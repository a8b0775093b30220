//! L1 `blocking-under-guard`: in `crates/service`, no blocking call may run
//! while a `MutexGuard` of the admission/epoch lock is live.
//!
//! The admission lock (`EpochCell::publisher`) serialises query admission and
//! epoch publication. PR 4 shipped — and fixed — a deadlock where a worker
//! blocked at a rendezvous while still holding a queue mutex; this rule pins
//! the generalised discipline: acquire the admission/epoch lock, do the
//! O(small) critical-section work, release *before* anything that can park the
//! thread (`recv`, condvar `wait`, a handle's `wait_result`, `join`, file `sync`).
//!
//! Guard liveness is tracked lexically: a `let` binding whose initialiser
//! locks a tracked lock makes the binding a live guard until `drop(guard)`,
//! the end of its block, or the end of the function. A tracked lock chained
//! into a temporary (`cell.publisher.lock().unwrap().method()`) is live to the
//! end of its statement.

use crate::lexer::Tok;
use crate::scan::{functions, is_call};
use crate::{Diagnostic, SourceFile};

/// Field/binding names whose `.lock()` produces a tracked guard. `publisher`
/// is the `EpochCell` admission/epoch mutex.
const TRACKED_LOCKS: [&str; 1] = ["publisher"];

/// Calls that can park the thread for an unbounded time.
const BLOCKING: [&str; 13] = [
    "recv",
    "recv_timeout",
    "wait",
    "wait_result",
    "wait_timeout",
    "wait_while",
    "join",
    "sync",
    "sync_all",
    "sync_data",
    "sync_dir",
    "sync_through",
    "sleep",
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !file.path.contains("crates/service/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let lexed = &file.lexed;
    for f in functions(lexed) {
        if file.mask[f.body_start] {
            continue; // test code
        }
        // (guard name, scope depth it was declared at)
        let mut live: Vec<(String, i32)> = Vec::new();
        let mut depth = 0i32;
        let mut stmt_temp: Option<u32> = None; // line of a tracked temp guard
        let mut i = f.body_start;
        while i <= f.body_end {
            match &lexed.tokens[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    live.retain(|(_, d)| *d < depth);
                    depth -= 1;
                    stmt_temp = None;
                }
                Tok::Punct(';') => stmt_temp = None,
                Tok::Ident(word) => {
                    if word == "let" {
                        if let Some((names, after)) = let_binding(file, i, f.body_end) {
                            // Does the initialiser lock a tracked lock?
                            if stmt_locks_tracked(file, after, f.body_end) {
                                for name in names {
                                    live.push((name, depth));
                                }
                            }
                            i = after;
                            continue;
                        }
                    } else if word == "drop" && lexed.is_punct(i + 1, '(') {
                        if let Some(Tok::Ident(arg)) = lexed.tokens.get(i + 2).map(|t| &t.tok) {
                            if lexed.is_punct(i + 3, ')') {
                                live.retain(|(n, _)| n != arg);
                            }
                        }
                    } else if TRACKED_LOCKS.contains(&word.as_str())
                        && lexed.is_punct(i + 1, '.')
                        && lexed.ident(i + 2) == Some("lock")
                    {
                        // A tracked lock chained into a temporary guard: live
                        // until the end of this statement (unless a `let`
                        // already claimed it above).
                        stmt_temp = Some(lexed.tokens[i].line);
                    } else if BLOCKING.contains(&word.as_str())
                        && lexed.tokens.get(i.wrapping_sub(1)).map(|t| &t.tok)
                            == Some(&Tok::Punct('.'))
                        && is_call(lexed, i)
                    {
                        if let Some((guard, _)) = live.first() {
                            out.push(file.diag(
                                super::BLOCKING_UNDER_GUARD,
                                lexed.tokens[i].line,
                                format!(
                                    "blocking call `.{word}()` while admission/epoch guard \
                                     `{guard}` is live in `{}`; release the guard (drop or end \
                                     of block) before parking the thread",
                                    f.name
                                ),
                            ));
                        } else if stmt_temp.is_some() {
                            out.push(file.diag(
                                super::BLOCKING_UNDER_GUARD,
                                lexed.tokens[i].line,
                                format!(
                                    "blocking call `.{word}()` chained on a temporary \
                                     admission/epoch guard in `{}`; bind and drop the guard \
                                     before blocking",
                                    f.name
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// Parses the pattern of a `let` statement starting at the `let` token; returns
/// the candidate binding names and the index of the `=` (where the initialiser
/// begins). `None` for `let` without `=` (e.g. `let x;`).
fn let_binding(file: &SourceFile, let_idx: usize, end: usize) -> Option<(Vec<String>, usize)> {
    let lexed = &file.lexed;
    let mut names = Vec::new();
    let mut depth = 0i32;
    let mut i = let_idx + 1;
    while i <= end {
        match &lexed.tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('>') => depth -= 1,
            Tok::Punct('=') => {
                // `==` never appears in a pattern position; a lone `=` ends it.
                return if names.is_empty() {
                    None
                } else {
                    Some((names, i + 1))
                };
            }
            Tok::Punct(';') | Tok::Punct('{') if depth <= 0 => return None,
            Tok::Ident(word)
                if !matches!(
                    word.as_str(),
                    "mut" | "ref" | "Ok" | "Err" | "Some" | "None" | "box"
                ) =>
            {
                names.push(word.clone());
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether the statement starting at `start` (just after a `let ... =`) locks a
/// tracked lock before its terminating `;`. A lock taken inside a nested block
/// (`let x = { ..lock().. };`) does not count — that guard dies with the inner
/// block, not with the binding.
fn stmt_locks_tracked(file: &SourceFile, start: usize, end: usize) -> bool {
    let lexed = &file.lexed;
    let mut depth = 0i32;
    let mut braces = 0i32;
    let mut i = start;
    while i <= end {
        match &lexed.tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') => {
                depth += 1;
                braces += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                braces -= 1;
            }
            Tok::Punct(';') if depth <= 0 => return false,
            Tok::Ident(word)
                if braces == 0
                    && TRACKED_LOCKS.contains(&word.as_str())
                    && lexed.is_punct(i + 1, '.')
                    && lexed.ident(i + 2) == Some("lock") =>
            {
                return true;
            }
            _ => {}
        }
        i += 1;
    }
    false
}
