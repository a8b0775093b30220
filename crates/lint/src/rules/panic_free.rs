//! L4 `panic-free-hot-path`: the per-edge enumeration kernel must not panic.
//!
//! A panic in the hot path poisons the admission lock, kills the worker, and
//! wedges every queued batch behind it — far worse than a wrong answer, which
//! the property tests would at least catch. The enumeration files therefore
//! may not `unwrap`/`expect`, invoke the panic macro family, or index slices
//! directly. Every deliberate exception must carry a
//! `// lint:allow(panic-free-hot-path) <why this cannot fail>` annotation, so
//! the proof obligation is written next to the code it covers.

use crate::lexer::Tok;
use crate::scan::is_call;
use crate::{Diagnostic, SourceFile};

/// The enumeration hot path: frontier search and its shared form (Algorithm 4's
/// `Search` and per-query join), prefix concatenation, the arena buffers they
/// allocate from, the parallel work-splitting driver, the distance row every
/// scanned edge probes (Lemma 3.1), and the engine a service worker calls once
/// per micro-batch (a panic there abandons every request in the batch).
pub const HOT_FILES: [&str; 7] = [
    "crates/core/src/search.rs",
    "crates/core/src/batch_enum.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/concat.rs",
    "crates/core/src/buffers.rs",
    "crates/core/src/parallel.rs",
    "crates/index/src/distance_row.rs",
];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may legitimately precede a `[` without it being an index
/// expression (`in [a, b]`, `return [x]`, slice types after `mut`/`dyn`, ...).
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "while",
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !HOT_FILES.iter().any(|f| file.path.ends_with(f)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let lexed = &file.lexed;
    for i in 0..lexed.tokens.len() {
        if file.mask[i] {
            continue; // tests may panic freely
        }
        match &lexed.tokens[i].tok {
            Tok::Ident(word) => {
                let line = lexed.tokens[i].line;
                if matches!(word.as_str(), "unwrap" | "expect")
                    && lexed.tokens.get(i.wrapping_sub(1)).map(|t| &t.tok) == Some(&Tok::Punct('.'))
                    && is_call(lexed, i)
                {
                    out.push(file.diag(
                        super::PANIC_FREE_HOT_PATH,
                        line,
                        format!(
                            "`.{word}()` in the enumeration hot path; handle the None/Err arm \
                             or annotate with lint:allow and a proof it cannot fail"
                        ),
                    ));
                } else if PANIC_MACROS.contains(&word.as_str()) && lexed.is_punct(i + 1, '!') {
                    out.push(file.diag(
                        super::PANIC_FREE_HOT_PATH,
                        line,
                        format!("`{word}!` in the enumeration hot path"),
                    ));
                }
            }
            Tok::Punct('[') => {
                let indexes = match lexed.tokens.get(i.wrapping_sub(1)).map(|t| &t.tok) {
                    Some(Tok::Ident(prev)) => {
                        !NON_INDEX_KEYWORDS.contains(&prev.as_str())
                            // `name![...]` is a macro invocation, not an index.
                            && !lexed.is_punct(i.wrapping_sub(1) + 1, '!')
                    }
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                    _ => false,
                };
                if indexes {
                    out.push(file.diag(
                        super::PANIC_FREE_HOT_PATH,
                        lexed.tokens[i].line,
                        "direct slice/array indexing in the enumeration hot path; use `get` or \
                         annotate with lint:allow and the bound that makes it safe"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}
