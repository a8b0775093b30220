//! L5 `dead-counter`: every field of the instrumentation structs must be
//! *written* somewhere in `crates/core`/`crates/service` and *read* by the
//! counters test ([`CONSUMER`]) — otherwise it is either a counter nothing
//! maintains (reports silently show zero) or a counter nothing reads (dead
//! weight the next refactor will miscount around). This is the one
//! whole-workspace rule: it needs the struct definitions, the producer crates,
//! and the consumer file in one view.
//!
//! Matching is by field *name*, not receiver type — a lexical linter cannot
//! resolve types. The instrumentation fields are named distinctively enough
//! that this has not mattered; a shared name (`produced_paths` appears in both
//! `SearchCounters` and `ServiceStats`) simply lets either struct's traffic
//! vouch for both, which errs on the quiet side.

use std::collections::HashSet;

use crate::lexer::Tok;
use crate::scan::matching_brace;
use crate::{Diagnostic, SourceFile};

/// The instrumentation structs under contract.
const STRUCTS: [&str; 3] = ["ServiceStats", "IndexReuse", "SearchCounters"];

/// The one file whose reads count: an integration test that drives every counter.
/// It lives under `crates/service/` but is never a producer.
pub const CONSUMER: &str = "crates/service/tests/counters.rs";

/// Operators that, followed by `=`, form a compound assignment.
const COMPOUND_OPS: [char; 7] = ['+', '-', '*', '/', '|', '&', '^'];

struct FieldDef {
    strukt: &'static str,
    field: String,
    file: usize,
    line: u32,
}

pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut defs: Vec<FieldDef> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for strukt in STRUCTS {
            for (field, line) in struct_fields(file, strukt) {
                defs.push(FieldDef {
                    strukt,
                    field,
                    file: fi,
                    line,
                });
            }
        }
    }
    if defs.is_empty() {
        return Vec::new();
    }
    let names: HashSet<&str> = defs.iter().map(|d| d.field.as_str()).collect();

    let mut written: HashSet<String> = HashSet::new();
    let mut read: HashSet<String> = HashSet::new();
    for file in files {
        let consumer = file.path.ends_with(CONSUMER);
        let producer = !consumer
            && (file.path.contains("crates/core/") || file.path.contains("crates/service/"));
        if !producer && !consumer {
            continue;
        }
        let lexed = &file.lexed;
        for i in 0..lexed.tokens.len() {
            if !lexed.is_punct(i, '.') {
                continue;
            }
            let Some(name) = lexed.ident(i + 1) else {
                continue;
            };
            if !names.contains(name) {
                continue;
            }
            // `.f = x` writes; `.f += x` writes (the self-read does not make a
            // report); anything else — `.f`, `.f == x`, `a.f + b` — reads.
            let j = i + 2;
            let pure_assign = lexed.is_punct(j, '=') && !lexed.is_punct(j + 1, '=');
            let compound = matches!(lexed.tokens.get(j), Some(t)
                if matches!(t.tok, Tok::Punct(c) if COMPOUND_OPS.contains(&c)))
                && lexed.is_punct(j + 1, '=');
            if producer && (pure_assign || compound) {
                written.insert(name.to_string());
            }
            if consumer && !pure_assign && !compound {
                read.insert(name.to_string());
            }
        }
    }

    let mut out = Vec::new();
    for def in &defs {
        let file = &files[def.file];
        if !written.contains(&def.field) {
            out.push(file.diag(
                super::DEAD_COUNTER,
                def.line,
                format!(
                    "counter `{}.{}` is never written (no `=`/`+=` on `.{}` anywhere in \
                     crates/core or crates/service)",
                    def.strukt, def.field, def.field
                ),
            ));
        }
        if !read.contains(&def.field) {
            out.push(file.diag(
                super::DEAD_COUNTER,
                def.line,
                format!(
                    "counter `{}.{}` is never read by {CONSUMER} — drive it there or \
                     delete it",
                    def.strukt, def.field
                ),
            ));
        }
    }
    out
}

/// The `(name, line)` of each field of `struct name { .. }` in `file`.
/// Tuple structs and unit structs yield nothing.
fn struct_fields(file: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let lexed = &file.lexed;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lexed.tokens.len() {
        if lexed.ident(i) != Some("struct") || lexed.ident(i + 1) != Some(name) {
            i += 1;
            continue;
        }
        // Find the body `{`; a `;` or `(` first means unit/tuple struct.
        let mut j = i + 2;
        let mut open = None;
        while j < lexed.tokens.len() {
            match lexed.tokens[j].tok {
                Tok::Punct('{') => {
                    open = Some(j);
                    break;
                }
                Tok::Punct(';') | Tok::Punct('(') => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let Some(close) = matching_brace(lexed, open) else {
            break;
        };
        // Walk the body: a field name is the first identifier of each
        // comma-separated entry (after attributes and visibility), directly
        // followed by a single `:`.
        let mut expect_field = true;
        let mut depth = 0i32;
        let mut k = open + 1;
        while k < close {
            match lexed.tokens[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') | Tok::Punct('<') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') | Tok::Punct('>') => depth -= 1,
                Tok::Punct(',') if depth <= 0 => expect_field = true,
                Tok::Punct('#') if lexed.is_punct(k + 1, '[') => {
                    // Skip the attribute outright.
                    let mut d = 0i32;
                    k += 1;
                    while k < close {
                        match lexed.tokens[k].tok {
                            Tok::Punct('[') => d += 1,
                            Tok::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                Tok::Ident(ref w) => {
                    if w == "pub" {
                        // Visibility, possibly `pub(crate)`; not the field.
                    } else if expect_field
                        && lexed.is_punct(k + 1, ':')
                        && !lexed.is_punct(k + 2, ':')
                    {
                        out.push((w.clone(), lexed.tokens[k].line));
                        expect_field = false;
                    } else {
                        expect_field = false;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = close + 1;
    }
    out
}
