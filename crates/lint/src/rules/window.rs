//! L2 `unsafe-window`: between `note_deletions` and `flush_dirty` the distance
//! index under-estimates distances, which silently breaks the Lemma 3.1
//! pruning bound. PR 6 made the window explicit (a `debug_assert` state
//! machine inside the index); this rule enforces the calling discipline
//! statically: a function that opens the window (`note_deletions`) must close
//! it (`flush_dirty`) before reaching any query entry point. Leaving the
//! window open at function end is legal — that is the documented lazy-repair
//! pattern (`Engine::ensure_index` flushes before the next batch).

use crate::lexer::Tok;
use crate::scan::{functions, is_call};
use crate::{Diagnostic, SourceFile};

/// Entry points that consult the index (directly or transitively) and
/// therefore must never run inside the open window.
const QUERY_ENTRIES: [&str; 10] = [
    "ensure_index",
    "run_batch",
    "run_batch_with_index",
    "run_batch_parallel",
    "run_specs",
    "run_with_sink",
    "run_parallel_with_sink",
    "run_counting",
    "run_single_buffered",
    "enumerate_half_with",
];

/// Functions that are themselves part of the window protocol (the `BatchIndex`
/// wrapper fans `note_deletions` out per direction; the flush is the closer).
const APPROVED_WRAPPERS: [&str; 2] = ["note_deletions", "flush_dirty"];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let lexed = &file.lexed;
    for f in functions(lexed) {
        if APPROVED_WRAPPERS.contains(&f.name.as_str()) {
            continue;
        }
        let mut open_since: Option<u32> = None;
        for i in f.body_start..=f.body_end {
            let Tok::Ident(word) = &lexed.tokens[i].tok else {
                continue;
            };
            if !is_call(lexed, i) {
                continue;
            }
            match word.as_str() {
                "note_deletions" => open_since = Some(lexed.tokens[i].line),
                "flush_dirty" => open_since = None,
                w if QUERY_ENTRIES.contains(&w) => {
                    if let Some(opened) = open_since {
                        out.push(file.diag(
                            super::UNSAFE_WINDOW,
                            lexed.tokens[i].line,
                            format!(
                                "query entry `{w}` inside the note_deletions -> flush_dirty \
                                 unsafe window (opened at line {opened} in `{}`); flush the \
                                 dirty roots first — the index under-estimates distances here",
                                f.name
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}
