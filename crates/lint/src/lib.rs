//! `hcsp-lint` — a workspace invariant linter.
//!
//! The workspace documents several cross-cutting rules that rustc and clippy
//! cannot see: lock-ordering around the admission/epoch mutex, the
//! `note_deletions` → `flush_dirty` unsafe window, fsync-strictly-before-ack,
//! panic freedom in the enumeration kernel, and the contract that every
//! instrumentation counter is both maintained and reported. This crate makes
//! them machine-checked: a hand-rolled lexer ([`lexer`]), cheap structural
//! passes ([`scan`]), and one module per rule ([`rules`]). No dependencies —
//! the build environment is offline and the linter must never be the thing
//! that breaks the build.
//!
//! Suppression is per-line and must be justified:
//!
//! ```text
//! // lint:allow(panic-free-hot-path) idx < arena.len() checked by caller
//! let slot = &arena[idx];
//! ```
//!
//! An allow with an unknown rule id or an empty reason is itself a diagnostic
//! (`allow-syntax`), and that diagnostic cannot be allowed away.

pub mod lexer;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Lexed};
use scan::test_region_mask;

/// One finding, addressed by workspace-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (see [`rules::CATALOGUE`]), or [`rules::ALLOW_SYNTAX`].
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            rules::code_of(self.rule),
            self.rule,
            self.message
        )
    }
}

/// A lexed source file plus the precomputed test-region mask the rules share.
pub struct SourceFile {
    /// Workspace-relative, `/`-separated — rules scope themselves by substring
    /// (`crates/service/`), so the separator must be stable across platforms.
    pub path: String,
    pub lexed: Lexed,
    /// `mask[i]` is true when token `i` lies in test code (a `#[cfg(test)]`
    /// module, a `#[test]` function, or an entire `tests/`/`examples/` file).
    pub mask: Vec<bool>,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, src: &str) -> Self {
        let lexed = lex(src);
        let mask = test_region_mask(&lexed);
        SourceFile {
            path: path.into(),
            lexed,
            mask,
        }
    }

    /// Helper the rules use to emit a finding against this file.
    pub fn diag(&self, rule: &'static str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.path.clone(),
            line,
            message,
        }
    }
}

/// Runs every rule over `files`, applies `// lint:allow` suppression, and
/// validates the allow comments themselves. Diagnostics come back sorted by
/// `(path, line, rule)`.
pub fn lint_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = rules::run_all(files);
    diags.retain(|d| !is_allowed(files, d));
    for file in files {
        for allow in &file.lexed.allows {
            if !rules::is_known(&allow.rule) {
                diags.push(file.diag(
                    rules::ALLOW_SYNTAX,
                    allow.line,
                    format!(
                        "lint:allow names unknown rule `{}`; known rules: {}",
                        allow.rule,
                        rules::CATALOGUE
                            .iter()
                            .map(|(_, id, _)| *id)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ));
            } else if allow.reason.is_empty() {
                diags.push(file.diag(
                    rules::ALLOW_SYNTAX,
                    allow.line,
                    format!(
                        "lint:allow({}) has no reason; write why the exception is sound",
                        allow.rule
                    ),
                ));
            }
        }
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}

/// Whether a *well-formed* allow on the same or the preceding line covers `d`.
/// Malformed allows (unknown rule / missing reason) never suppress anything.
fn is_allowed(files: &[SourceFile], d: &Diagnostic) -> bool {
    let Some(file) = files.iter().find(|f| f.path == d.path) else {
        return false;
    };
    file.lexed.allows.iter().any(|a| {
        a.rule == d.rule
            && !a.reason.is_empty()
            && rules::is_known(&a.rule)
            && (a.line == d.line || a.line + 1 == d.line)
    })
}

/// Collects every workspace `.rs` file under `root/crates`, lexes it, and
/// marks whole-file test regions for `tests/` and `examples/` directories.
/// The linter's own fixture corpus is excluded — fixtures are *supposed* to
/// fail.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(&root.join("crates"), &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.contains("crates/lint/fixtures/") {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        let mut file = SourceFile::new(rel, src.as_str());
        if file.path.contains("/tests/") || file.path.contains("/examples/") {
            file.mask.iter_mut().for_each(|m| *m = true);
        }
        files.push(file);
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root`; returns `(files checked, findings)`.
pub fn lint_workspace(root: &Path) -> io::Result<(usize, Vec<Diagnostic>)> {
    let files = collect_workspace_files(root)?;
    let diags = lint_sources(&files);
    Ok((files.len(), diags))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_on_same_or_preceding_line_suppresses() {
        let src = "\
fn f(v: &[u32], i: usize) -> u32 {
    // lint:allow(panic-free-hot-path) i is bounded by the caller
    v[i]
}
fn g(v: &[u32], i: usize) -> u32 {
    v[i] // lint:allow(panic-free-hot-path) same-line form
}
fn h(v: &[u32], i: usize) -> u32 {
    v[i]
}
";
        let files = vec![SourceFile::new("crates/core/src/search.rs", src)];
        let diags = lint_sources(&files);
        assert_eq!(
            diags.len(),
            1,
            "only the unannotated index survives: {diags:?}"
        );
        assert_eq!(diags[0].line, 9);
    }

    #[test]
    fn malformed_allows_are_reported_and_do_not_suppress() {
        let src = "\
fn f(v: &[u32]) -> u32 {
    // lint:allow(panic-free-hot-path)
    v[0]
}
fn g(v: &[u32]) -> u32 {
    // lint:allow(no-such-rule) with a reason
    v[0]
}
";
        let files = vec![SourceFile::new("crates/core/src/buffers.rs", src)];
        let diags = lint_sources(&files);
        let rules_hit: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        // Both indexes still fire, plus one empty-reason and one unknown-rule.
        assert_eq!(
            rules_hit
                .iter()
                .filter(|r| **r == rules::PANIC_FREE_HOT_PATH)
                .count(),
            2,
            "{diags:?}"
        );
        assert_eq!(
            rules_hit
                .iter()
                .filter(|r| **r == rules::ALLOW_SYNTAX)
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_with_code_and_rule() {
        let d = Diagnostic {
            rule: rules::DEAD_COUNTER,
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "nope".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: [L5/dead-counter] nope"
        );
    }
}
