//! Experiment driver: regenerates every table and figure of the paper's evaluation.
//!
//! ```bash
//! # run everything with the default (laptop-friendly) configuration
//! cargo run -p hcsp-bench --bin experiments --release -- all
//!
//! # a single experiment, a subset of datasets, a bigger scale
//! cargo run -p hcsp-bench --bin experiments --release -- exp1 --datasets EP,SL --scale small
//!
//! # machine-readable output (one JSON document per experiment)
//! cargo run -p hcsp-bench --bin experiments --release -- exp3 --json
//!
//! # the CI perf gate: quick parallel-scaling run, JSON artifact, baseline comparison
//! cargo run -p hcsp-bench --bin experiments --release -- perf-smoke
//! cargo run -p hcsp-bench --bin experiments --release -- perf-smoke --write-baseline
//! ```
//!
//! Experiments: `table1`, `fig3c`, `exp1` … `exp7`, `ablation-order`, `ablation-cluster`,
//! `parallel-scaling`, `mixed-rw`, `result-modes`, `storage`, `server-latency` (drives a
//! live TCP server with the load generator and writes `BENCH_server_latency.json`),
//! `all`, plus the `perf-smoke` gate (parallel scaling and mixed read/write, each against
//! its committed baseline).
//! Options: `--scale
//! tiny|small|medium|large`, `--datasets A,B,...`, `--queries N`, `--kmin K`, `--kmax K`,
//! `--json`, `--threads 1,2,4`, `--batches 8,32`, `--out FILE`, `--baseline FILE`,
//! `--tolerance 0.2`, `--write-baseline` (the same scale/dataset/query knobs are also
//! available through the `HCSP_BENCH_*` environment variables, and the gate tolerance
//! through `HCSP_PERF_TOLERANCE`).

// Stdout is the product here: this binary exists to print result tables.
#![allow(clippy::print_stdout)]

use hcsp_bench::report::Table;
use hcsp_bench::{compare_throughput, harness, parse_json, BenchConfig};
use hcsp_workload::{Dataset, DatasetScale};

/// Output and perf-gate options on top of the workload configuration.
struct CliOptions {
    json: bool,
    threads: Vec<usize>,
    batches: Vec<usize>,
    repeats: usize,
    out: String,
    baseline: String,
    tolerance: f64,
    write_baseline: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            json: false,
            threads: vec![1, 2, 4],
            // Batches big enough that a point measures tens of milliseconds: the 20 %
            // regression gate needs headroom above scheduler jitter.
            batches: vec![64, 256],
            repeats: 3,
            out: "BENCH_parallel_scaling.json".to_string(),
            baseline: "bench/baseline.json".to_string(),
            tolerance: std::env::var("HCSP_PERF_TOLERANCE")
                .ok()
                .and_then(|t| t.parse().ok())
                .unwrap_or(0.2),
            write_baseline: false,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let (experiments, config, options, workload_flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n");
            print_usage();
            std::process::exit(2);
        }
    };

    if experiments.iter().any(|e| e == "perf-smoke") {
        // The gate runs standalone on the quick configuration (env overrides still
        // apply) so its numbers stay comparable to the committed baseline; mixing it
        // with other experiments or with workload flags would silently produce numbers
        // that are not comparable, so both are rejected up front.
        if experiments.len() > 1 {
            eprintln!(
                "error: perf-smoke runs standalone (requested alongside: {})",
                experiments
                    .iter()
                    .filter(|e| *e != "perf-smoke")
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
        if !workload_flags.is_empty() {
            eprintln!(
                "error: perf-smoke ignores workload flags ({}); it always uses the quick \
                 configuration (override via HCSP_BENCH_* environment variables so the \
                 baseline stays comparable)",
                workload_flags.join(", ")
            );
            std::process::exit(2);
        }
        run_perf_smoke(&options);
        return;
    }

    println!(
        "# configuration: scale={:?} datasets={:?} queries={} k={}..{}\n",
        config.scale,
        config
            .datasets
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
        config.query_set_size,
        config.k_min,
        config.k_max
    );

    for experiment in &experiments {
        run_experiment(experiment, &config, &options);
    }
}

/// Prints a finished table as fixed-width text or as one JSON document.
fn emit(table: &Table, options: &CliOptions) {
    if options.json {
        println!("{}", table.to_json());
    } else {
        println!("{table}");
    }
}

fn run_experiment(experiment: &str, config: &BenchConfig, options: &CliOptions) {
    let start = std::time::Instant::now();
    let table = match experiment {
        "table1" => harness::table1(config),
        "fig3c" => harness::fig3c_materialization(config),
        "exp1" => harness::exp1_vary_similarity(config, &[0.0, 0.2, 0.4, 0.6, 0.8, 0.9]),
        "exp2" => {
            let base = config.query_set_size.max(20);
            let sizes: Vec<usize> = (1..=5).map(|i| base * i).collect();
            harness::exp2_vary_query_set_size(config, &sizes)
        }
        "exp3" => harness::exp3_decomposition(config),
        "exp4" => {
            harness::exp4_vary_gamma(config, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        }
        "exp5" => harness::exp5_scalability(config, &[0.2, 0.4, 0.6, 0.8, 1.0]),
        "exp6" => harness::exp6_ksp_comparison(config),
        "exp7" => harness::exp7_path_counts(config, &[3, 4, 5, 6, 7]),
        "ablation-order" => harness::ablation_search_order(config),
        "ablation-cluster" => harness::ablation_clustering(config),
        "parallel-scaling" => {
            harness::parallel_scaling(config, &options.threads, &options.batches, options.repeats)
        }
        "mixed-rw" => harness::mixed_read_write(config),
        "result-modes" => harness::result_modes(config),
        "storage" => harness::storage_durability(config),
        "counters" => harness::instrumentation_counters(config),
        "server-latency" => {
            let table = harness::server_latency(config);
            let document = format!(
                "{{\"bench\":\"server_latency\",\"schema_version\":1,{}",
                &table.to_json()[1..]
            );
            write_or_die("BENCH_server_latency.json", &document);
            table
        }
        other => {
            eprintln!("error: unknown experiment {other:?}");
            print_usage();
            std::process::exit(2);
        }
    };
    emit(&table, options);
    if !options.json {
        println!(
            "# {experiment} finished in {:.1}s\n",
            start.elapsed().as_secs_f64()
        );
    }
}

/// Wraps a scaling table into the `BENCH_parallel_scaling.json` document.
fn scaling_document(table: &Table) -> String {
    let table_json = table.to_json();
    // `to_json` renders `{"title":...}`; prepend the bench identity to the same object.
    format!(
        "{{\"bench\":\"parallel_scaling\",\"schema_version\":1,{}",
        &table_json[1..]
    )
}

/// Committed baseline of the mixed read/write scenario (gated alongside parallel
/// scaling; regenerate with `perf-smoke --write-baseline`).
const MIXED_BASELINE: &str = "bench/baseline_mixed_rw.json";

/// The CI perf gate: quick scaling + mixed read/write runs → JSON artifacts → baseline
/// comparisons. Both scenarios gate with the same tolerance semantics; a scenario with
/// no committed baseline is skipped (with a note) rather than failed.
fn run_perf_smoke(options: &CliOptions) {
    let config = BenchConfig::quick();
    println!(
        "# perf-smoke: scale={:?} datasets={:?} threads={:?} batches={:?}",
        config.scale,
        config
            .datasets
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
        options.threads,
        options.batches
    );
    let table =
        harness::parallel_scaling(&config, &options.threads, &options.batches, options.repeats);
    emit(&table, options);
    let document = scaling_document(&table);
    write_or_die(&options.out, &document);

    let mixed = harness::mixed_read_write(&config);
    let mixed_document = format!(
        "{{\"bench\":\"mixed_read_write\",\"schema_version\":1,{}",
        &mixed.to_json()[1..]
    );
    let mixed_out = "BENCH_mixed_rw.json";
    write_or_die(mixed_out, &mixed_document);

    // Report-only epoch counters from a live service run over the delete-heavy mix:
    // proof the snapshot machinery is exercised (not a gated number).
    let epoch_stats = harness::service_epoch_counters(&config);
    println!(
        "# epoch counters: epochs_published={} batches_pinned_behind={} rebfs_avoided={}",
        epoch_stats.epochs_published, epoch_stats.batches_pinned_behind, epoch_stats.rebfs_avoided
    );

    if options.write_baseline {
        write_baseline_or_die(&options.baseline, &document);
        write_baseline_or_die(MIXED_BASELINE, &mixed_document);
        return;
    }

    let scaling_ok = gate_against(
        "parallel-scaling",
        &options.baseline,
        &document,
        options.tolerance,
    );
    let mixed_ok = gate_against(
        "mixed-rw",
        MIXED_BASELINE,
        &mixed_document,
        options.tolerance,
    );
    if !(scaling_ok && mixed_ok) {
        std::process::exit(1);
    }
}

fn write_or_die(path: &str, document: &str) {
    if let Err(e) = std::fs::write(path, document) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("# wrote {path}");
}

fn write_baseline_or_die(path: &str, document: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(path, document) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("# wrote baseline {path}");
}

/// Gates `document` against the baseline at `baseline_path`. Returns `false` on a
/// failed gate; a missing baseline skips (and passes) with a note.
fn gate_against(name: &str, baseline_path: &str, document: &str, tolerance: f64) -> bool {
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(_) => {
            println!(
                "# no baseline at {baseline_path} — {name} gate skipped (run with \
                 --write-baseline to create one)"
            );
            return true;
        }
    };
    let outcome = parse_json(&baseline_text)
        .and_then(|baseline| {
            parse_json(document)
                .and_then(|current| compare_throughput(&baseline, &current, tolerance))
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {name} perf comparison failed: {e}");
            std::process::exit(1);
        });
    println!(
        "# {name} gate: {} points compared ({} missing from baseline), geomean throughput \
         ratio {:.3}, tolerance {:.0}%",
        outcome.compared,
        outcome.missing_in_baseline,
        outcome.geomean_ratio,
        tolerance * 100.0
    );
    for warning in &outcome.warnings {
        println!("#   warning (not failing): {warning}");
    }
    if outcome.passed() {
        println!("# {name} gate PASSED");
        true
    } else {
        eprintln!("# {name} gate FAILED: throughput regressed beyond tolerance");
        for regression in &outcome.regressions {
            eprintln!("#   {regression}");
        }
        false
    }
}

/// Parse result: experiments, workload config, output/gate options, and which workload
/// flags were explicitly passed (perf-smoke rejects those — it pins the quick config).
type Parsed = (Vec<String>, BenchConfig, CliOptions, Vec<&'static str>);

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut config = BenchConfig::full();
    let mut options = CliOptions::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut workload_flags: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} expects a value"))
        };
        match arg.as_str() {
            "--scale" => {
                workload_flags.push("--scale");
                config.scale = match take_value(&mut i)?.to_ascii_lowercase().as_str() {
                    "tiny" => DatasetScale::Tiny,
                    "small" => DatasetScale::Small,
                    "medium" => DatasetScale::Medium,
                    "large" => DatasetScale::Large,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--datasets" => {
                workload_flags.push("--datasets");
                let list = take_value(&mut i)?;
                let datasets: Result<Vec<Dataset>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                config.datasets = datasets?;
            }
            "--queries" => {
                workload_flags.push("--queries");
                config.query_set_size = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "--queries expects a number".to_string())?;
            }
            "--kmin" => {
                workload_flags.push("--kmin");
                config.k_min = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "--kmin expects a number".to_string())?;
            }
            "--kmax" => {
                workload_flags.push("--kmax");
                config.k_max = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "--kmax expects a number".to_string())?;
            }
            "--json" => options.json = true,
            "--threads" => {
                options.threads = parse_usize_list(&take_value(&mut i)?, "--threads")?;
            }
            "--batches" => {
                options.batches = parse_usize_list(&take_value(&mut i)?, "--batches")?;
            }
            "--repeats" => {
                options.repeats = take_value(&mut i)?
                    .parse::<usize>()
                    .map_err(|_| "--repeats expects a number".to_string())?
                    .max(1);
            }
            "--out" => options.out = take_value(&mut i)?,
            "--baseline" => options.baseline = take_value(&mut i)?,
            "--tolerance" => {
                options.tolerance = take_value(&mut i)?
                    .parse()
                    .map_err(|_| "--tolerance expects a number in [0, 1]".to_string())?;
            }
            "--write-baseline" => options.write_baseline = true,
            "all" => {
                experiments = vec![
                    "table1",
                    "fig3c",
                    "exp1",
                    "exp2",
                    "exp3",
                    "exp4",
                    "exp5",
                    "exp6",
                    "exp7",
                    "ablation-order",
                    "ablation-cluster",
                    "parallel-scaling",
                    "mixed-rw",
                    "result-modes",
                    "storage",
                    "counters",
                    "server-latency",
                ]
                .into_iter()
                .map(String::from)
                .collect();
            }
            name if !name.starts_with('-') => experiments.push(name.to_string()),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push("table1".to_string());
    }
    config.k_max = config.k_max.max(config.k_min);
    Ok((experiments, config, options, workload_flags))
}

fn parse_usize_list(list: &str, flag: &str) -> Result<Vec<usize>, String> {
    let parsed: Result<Vec<usize>, _> = list.split(',').map(|s| s.trim().parse()).collect();
    match parsed {
        Ok(values) if !values.is_empty() => Ok(values),
        _ => Err(format!("{flag} expects a comma-separated list of numbers")),
    }
}

fn print_usage() {
    println!(
        "usage: experiments [EXPERIMENT ...] [--scale tiny|small|medium|large] \
         [--datasets EP,SL,...] [--queries N] [--kmin K] [--kmax K] [--json] \
         [--threads 1,2,4] [--batches 64,256] [--repeats N] [--out FILE] [--baseline FILE] \
         [--tolerance 0.2] [--write-baseline]\n\
         experiments: table1 fig3c exp1 exp2 exp3 exp4 exp5 exp6 exp7 \
         ablation-order ablation-cluster parallel-scaling mixed-rw result-modes \
         storage counters server-latency perf-smoke all\n\
         perf-smoke: runs parallel-scaling and mixed-rw in quick mode, writes the JSON \
         artifacts (--out and BENCH_mixed_rw.json) and fails when either scenario's \
         throughput regresses more than --tolerance against its committed baseline \
         (--baseline and bench/baseline_mixed_rw.json); --write-baseline (re)creates both \
         baselines instead"
    );
}
