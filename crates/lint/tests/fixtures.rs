//! Fixture-driven rule tests: every `fail_*` fixture must trip exactly the
//! rule its directory names, every `pass_*` fixture must not. The fixtures are
//! plain `.rs` files lexed under a *virtual* workspace path, because the rules
//! scope themselves by path (`crates/service/`, the hot-path file list, ...).

use std::fs;
use std::path::{Path, PathBuf};

use hcsp_lint::{lint_sources, rules, SourceFile};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// `(rule directory == rule id, virtual path the fixture pretends to live at)`.
const SINGLE_FILE_RULES: &[(&str, &str)] = &[
    (rules::BLOCKING_UNDER_GUARD, "crates/service/src/fixture.rs"),
    (rules::UNSAFE_WINDOW, "crates/core/src/engine_fixture.rs"),
    (rules::ACK_AFTER_DURABILITY, "crates/storage/src/fixture.rs"),
    (rules::PANIC_FREE_HOT_PATH, "crates/core/src/search.rs"),
    (rules::ALLOW_SYNTAX, "crates/core/src/search.rs"),
];

fn fixture_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("missing fixture dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_rule_has_fail_and_pass_fixtures() {
    for (rule, vpath) in SINGLE_FILE_RULES {
        let dir = fixtures_root().join(rule);
        let files = fixture_files(&dir);
        let mut fails = 0usize;
        let mut passes = 0usize;
        for path in files {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = fs::read_to_string(&path).unwrap();
            let lexed = vec![SourceFile::new(*vpath, &src)];
            let hits = lint_sources(&lexed)
                .into_iter()
                .filter(|d| d.rule == *rule)
                .count();
            if name.starts_with("fail_") {
                fails += 1;
                assert!(
                    hits >= 1,
                    "{rule}/{name}: expected a `{rule}` finding, got none"
                );
            } else if name.starts_with("pass_") {
                passes += 1;
                assert_eq!(hits, 0, "{rule}/{name}: expected no `{rule}` findings");
            } else {
                panic!("{rule}/{name}: fixture names must start with fail_ or pass_");
            }
        }
        assert!(
            fails >= 1,
            "{rule}: no failing fixture — the rule is unproven"
        );
        assert!(
            passes >= 1,
            "{rule}: no passing fixture — the rule is untested for FPs"
        );
    }
}

/// The hot-path file list is what scopes L4: a fixture that fails must fail under
/// every listed path (the distance row's lookup file among them), and must not under
/// a neighbouring file that is off the list.
#[test]
fn panic_free_covers_every_hot_file_and_nothing_else() {
    let dir = fixtures_root().join(rules::PANIC_FREE_HOT_PATH);
    let hits = |name: &str, vpath: &str| {
        let src = fs::read_to_string(dir.join(name)).unwrap();
        lint_sources(&[SourceFile::new(vpath, &src)])
            .into_iter()
            .filter(|d| d.rule == rules::PANIC_FREE_HOT_PATH)
            .count()
    };
    assert!(rules::panic_free::HOT_FILES.contains(&"crates/index/src/distance_row.rs"));
    assert!(rules::panic_free::HOT_FILES.contains(&"crates/core/src/batch_enum.rs"));
    assert!(rules::panic_free::HOT_FILES.contains(&"crates/core/src/engine.rs"));
    for vpath in rules::panic_free::HOT_FILES {
        assert!(hits("fail_unwrap_index.rs", vpath) >= 1, "{vpath}");
        assert_eq!(hits("pass_annotated.rs", vpath), 0, "{vpath}");
    }
    assert_eq!(
        hits("fail_unwrap_index.rs", "crates/index/src/distance_index.rs"),
        0
    );
}

/// `dead-counter` needs a definition file, a producer, and a consumer in one
/// view, so its fixtures are directories of files mapped by name.
#[test]
fn dead_counter_fixture_sets() {
    let base = fixtures_root().join(rules::DEAD_COUNTER);
    let mut sets: Vec<PathBuf> = fs::read_dir(&base)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    sets.sort();
    assert!(!sets.is_empty());
    let mut fails = 0usize;
    let mut passes = 0usize;
    for set in sets {
        let name = set.file_name().unwrap().to_string_lossy().into_owned();
        let files: Vec<SourceFile> = fixture_files(&set)
            .into_iter()
            .map(|p| {
                let vpath = match p.file_name().unwrap().to_string_lossy().as_ref() {
                    "def.rs" => "crates/core/src/stats.rs",
                    "core.rs" => "crates/core/src/engine.rs",
                    "consumer.rs" => rules::counters::CONSUMER,
                    other => panic!("{name}: unmapped fixture file {other}"),
                };
                SourceFile::new(vpath, &fs::read_to_string(&p).unwrap())
            })
            .collect();
        let hits = lint_sources(&files)
            .into_iter()
            .filter(|d| d.rule == rules::DEAD_COUNTER)
            .count();
        if name.starts_with("fail_") {
            fails += 1;
            assert!(hits >= 1, "dead-counter/{name}: expected a finding");
        } else {
            passes += 1;
            assert_eq!(hits, 0, "dead-counter/{name}: expected no findings");
        }
    }
    assert!(fails >= 1 && passes >= 1);
}

/// The catalogue, the fixture directories, and `is_known` must stay in sync.
#[test]
fn catalogue_covers_all_fixture_directories() {
    for (code, id, _) in rules::CATALOGUE {
        assert!(rules::is_known(id));
        assert_eq!(rules::code_of(id), code);
        assert!(
            fixtures_root().join(id).is_dir(),
            "rule {id} has no fixture directory"
        );
    }
}
