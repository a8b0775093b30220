//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hcsp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one process
//! hcsp-benchmark run --all [--seed n] [--seconds s]     every workload, untraced then traced
//! hcsp-benchmark trace --workload <name> [--seed n]     one traced run
//! hcsp-benchmark compare a.json b.json [--force]        judge b against a
//! ```

mod catalog;
mod compare;
mod env;
mod inputs;
mod json;
mod loadgen;
mod offline;
mod outcome;
mod serve;
mod stats;
mod trace;

use catalog::MetricDef;
use inputs::Workload;
use json::Json;
use outcome::{Outcome, Plan};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_SEED: u64 = 42;

/// Everything the benchmark writes goes here: `benchmark/out`, inside the checkout.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Runs one workload in this process.
fn run_workload(workload: Workload, plan: Plan, seed: u64, traced: bool) -> Outcome {
    let started = Instant::now();
    let mut outcome = match (workload.is_offline(), traced) {
        (true, false) => offline::run(workload, plan, seed),
        (true, true) => offline::run_traced(workload, plan, seed),
        (false, false) => serve::run(workload, plan, seed),
        (false, true) => serve::run_traced(workload, plan, seed),
    };
    if !traced {
        // The last thing measured: the process's high-water mark includes everything.
        outcome.set_value("peak_rss_mb", env::peak_rss_mb());
    }
    outcome
        .notes
        .push(format!("wall {:.1} s", started.elapsed().as_secs_f64()));
    outcome
}

fn metric_defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    }
}

/// The detail file of one run: every metric with its range and sample count, the
/// environment stamp, and (traced) the spans and per-layer self times.
fn detail_json(workload: Workload, seed: u64, plan: Plan, traced: bool, outcome: &Outcome) -> Json {
    let metrics = metric_defs(traced).iter().map(|def| {
        let summary = outcome
            .metrics
            .get(def.name)
            .cloned()
            .unwrap_or_else(|| stats::Summary::single(0.0));
        (def.name, summary.to_json(def.unit))
    });
    let mut fields = vec![
        ("workload", Json::str(workload.name())),
        ("env", env::stamp(seed)),
        ("seconds", Json::Num(plan.seconds)),
        ("traced", Json::Bool(traced)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "invalid",
            Json::Arr(outcome.invalid.iter().map(Json::str).collect()),
        ),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
        (
            if traced { "per_layer" } else { "end_to_end" },
            Json::obj(metrics),
        ),
    ];
    if traced {
        fields.push(("self_times", trace::self_times_to_json(&outcome.spans)));
        fields.push(("spans", trace::spans_to_json(&outcome.spans)));
    }
    Json::obj(fields)
}

fn detail_path(workload: Workload, traced: bool) -> PathBuf {
    let stem = if traced { "trace" } else { "run" };
    out_dir().join(format!("{stem}-{}.json", workload.name()))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(traced: bool, outcome: &Outcome) -> String {
    let metrics = metric_defs(traced).iter().map(|def| {
        let value = outcome.value(def.name);
        (
            def.name,
            Json::obj([
                (
                    "value",
                    Json::Num(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Json::str(def.unit)),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn print_metrics(workload: Workload, traced: bool, outcome: &Outcome) {
    println!(
        "== {} ({}) — attempted {} failed {} correct {}",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for def in metric_defs(traced) {
        match outcome.metrics.get(def.name) {
            Some(s) if s.n > 1 => println!(
                "{:<30} {:>14.4} {:<7} (min {:.4}, max {:.4}, n={})",
                def.name, s.median, def.unit, s.min, s.max, s.n
            ),
            Some(s) => println!("{:<30} {:>14.4} {:<7}", def.name, s.median, def.unit),
            None => println!(
                "{:<30} {:>14} {:<7} (does not apply)",
                def.name, 0, def.unit
            ),
        }
    }
    if traced {
        println!("-- per-layer self time (span duration minus child spans)");
        for (name, (count, total, own)) in trace::self_times(&outcome.spans) {
            println!(
                "{:<34} n={:<6} total {:>9.4} s  self {:>9.4} s",
                name,
                count,
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }
    for line in &outcome.invalid {
        println!("INVALID MEASUREMENT: {line}");
    }
    for line in &outcome.notes {
        println!("note: {line}");
    }
}

/// One run in this process, as the driver invokes it. The result line is the last line
/// of standard output.
fn single_run(workload: Workload, plan: Plan, seed: u64, traced: bool) -> ExitCode {
    let outcome = run_workload(workload, plan, seed, traced);
    for def in metric_defs(traced) {
        let missing = !outcome.metrics.contains_key(def.name);
        let bad = !outcome.value(def.name).is_finite();
        if bad || (missing && !traced) {
            eprintln!("metric {} was not measured", def.name);
            return ExitCode::FAILURE;
        }
    }
    print_metrics(workload, traced, &outcome);
    let detail = detail_json(workload, seed, plan, traced, &outcome);
    let path = detail_path(workload, traced);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, detail.render() + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(traced, &outcome));
    ExitCode::SUCCESS
}

/// Every workload untraced, then traced — one OS process each, so `peak_rss_mb` is the
/// workload's own — merged into `benchmark/out/results.json`.
fn run_all(plan: Plan, seed: u64, out_name: &str) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut merged = vec![];
        for traced in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &plan.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                eprintln!(
                    "{} (trace {}) did not complete",
                    workload.name(),
                    traced as u8
                );
                return ExitCode::FAILURE;
            }
            let text = std::fs::read_to_string(detail_path(workload, traced)).unwrap_or_default();
            let Ok(Json::Obj(detail)) = Json::parse(&text) else {
                eprintln!("{} wrote no readable detail file", workload.name());
                return ExitCode::FAILURE;
            };
            all_correct &= detail.get("correct").and_then(Json::as_bool) == Some(true);
            for (key, value) in detail {
                let keep = match key.as_str() {
                    "end_to_end" | "per_layer" | "self_times" => true,
                    // The untraced run decides correctness of the end-to-end numbers.
                    "correct" | "attempted" | "failed" | "invalid" | "notes" => !traced,
                    _ => false,
                };
                if keep {
                    merged.push((key, value));
                }
            }
        }
        workloads.push((workload.name(), Json::obj(merged)));
    }
    let results = Json::obj([
        ("env", env::stamp(seed)),
        ("seconds", Json::Num(plan.seconds)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join(out_name);
    if let Err(e) = std::fs::write(&path, results.render() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload was not answered correctly");
        ExitCode::FAILURE
    }
}

fn compare_files(paths: &[String], force: bool) -> ExitCode {
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (read(&paths[0]), read(&paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match compare::compare(&a, &b, force) {
        Ok(result) => {
            print!("{}", result.table);
            println!(
                "{} worse, {} unresolved{}",
                result.worse,
                result.unresolved,
                if result.failed {
                    ", failed answers"
                } else {
                    ""
                }
            );
            if result.worse > 0 || result.failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hcsp-benchmark --workload <{}> [--seed n] [--seconds s] [--trace 0|1]\n       \
         hcsp-benchmark run --all [--seed n] [--seconds s] [--out results.json]\n       \
         hcsp-benchmark trace --workload <name> [--seed n] [--seconds s]\n       \
         hcsp-benchmark compare a.json b.json [--force]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut traced, mut all, mut force) = (false, false, false);
    let mut out_name = "results.json".to_string();
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => match value().and_then(Workload::parse) {
                Some(w) => workload = Some(w),
                None => return usage(),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => return usage(),
            },
            "--out" => match value() {
                Some(v) => out_name = v.to_string(),
                None => return usage(),
            },
            "--all" => all = true,
            "--force" => force = true,
            word if !word.starts_with("--") => words.push(word.to_string()),
            _ => return usage(),
        }
    }
    let plan = Plan {
        scale: hcsp_workload::DatasetScale::Small,
        seconds,
    };
    match (words.first().map(String::as_str), workload) {
        (Some("compare"), _) if words.len() == 3 => compare_files(&words[1..], force),
        (Some("run"), _) if all => run_all(plan, seed, &out_name),
        (Some("trace"), Some(w)) => single_run(w, plan, seed, true),
        (None | Some("run"), Some(w)) if words.len() <= 1 => single_run(w, plan, seed, traced),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_workload::DatasetScale;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(file: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        file.get(key)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let file = benchmark_json();
        for (key, defs) in [
            ("end_to_end", catalog::END_TO_END),
            ("per_layer", catalog::PER_LAYER),
        ] {
            let listed = declared(&file, key);
            assert_eq!(listed.len(), defs.len(), "{key}: count differs");
            for (def, (name, unit, better, bound)) in defs.iter().zip(&listed) {
                assert_eq!(
                    (def.name, def.unit, def.better.as_str()),
                    (&**name, &**unit, &**better)
                );
                assert!(
                    name.len() <= 64
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                );
                if key == "end_to_end" {
                    assert_eq!(*bound, Some(def.bound), "{name}: bound differs");
                    assert!(def.bound <= 0.25);
                } else {
                    assert_eq!(*bound, None, "{name}: per-layer metrics carry no bound");
                }
            }
        }
        let names: Vec<&str> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let all: BTreeSet<&str> = catalog::END_TO_END
            .iter()
            .chain(catalog::PER_LAYER)
            .map(|d| d.name)
            .collect();
        assert_eq!(
            all.len(),
            catalog::END_TO_END.len() + catalog::PER_LAYER.len(),
            "a name is used twice"
        );
    }

    /// Every workload end to end on sub-second inputs: nothing fails, and the run emits
    /// exactly the names `BENCHMARK.json` lists for its mode.
    fn tiny(workload: Workload) {
        let plan = Plan {
            scale: DatasetScale::Tiny,
            seconds: 1.0,
        };
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run_workload(workload, plan, 7, traced);
            assert_eq!(
                outcome.failed,
                0,
                "{} {key}: {:?}",
                workload.name(),
                outcome.notes
            );
            assert!(outcome.attempted > 0);
            let line = Json::parse(&result_line(traced, &outcome)).unwrap();
            let emitted: BTreeSet<String> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .keys()
                .cloned()
                .collect();
            let listed: BTreeSet<String> = declared(&benchmark_json(), key)
                .into_iter()
                .map(|m| m.0)
                .collect();
            assert_eq!(emitted, listed);
            if !traced {
                for def in catalog::END_TO_END {
                    assert!(
                        outcome.value(def.name) > 0.0,
                        "{} is never 0, got {:?}",
                        def.name,
                        outcome.metrics.get(def.name)
                    );
                }
            }
        }
    }

    #[test]
    fn offline_random_runs_at_tiny_scale() {
        tiny(Workload::OfflineRandom);
    }

    #[test]
    fn offline_similar_runs_at_tiny_scale() {
        tiny(Workload::OfflineSimilar);
    }

    #[test]
    fn serve_read_runs_at_tiny_scale() {
        tiny(Workload::ServeRead);
    }

    #[test]
    fn serve_mixed_runs_at_tiny_scale() {
        tiny(Workload::ServeMixed);
    }

    #[test]
    fn another_seed_changes_the_inputs_and_nothing_fails() {
        let plan = Plan {
            scale: DatasetScale::Tiny,
            seconds: 0.5,
        };
        for seed in [1, 2] {
            let outcome = run_workload(Workload::OfflineRandom, plan, seed, false);
            assert_eq!(outcome.failed, 0);
        }
    }
}
