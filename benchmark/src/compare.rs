//! `compare a.json b.json`: one row per (workload, end-to-end metric) of two result
//! files, judged against the metric's own bound.

use crate::catalog::{self, Better};
use crate::json::Json;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A file's own min-max spread exceeds the bound: the difference cannot be told
    /// from noise, which is not the same as "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Sample {
    median: f64,
    min: f64,
    max: f64,
}

impl Sample {
    fn read(metric: &Json) -> Option<Sample> {
        Some(Sample {
            median: metric.get("value")?.as_f64()?,
            min: metric.get("min")?.as_f64()?,
            max: metric.get("max")?.as_f64()?,
        })
    }

    fn spread(&self) -> f64 {
        (self.max - self.min) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

fn judge(a: &Sample, b: &Sample, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    // Positive when b is worse than a, as a share of a.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Comparison {
    pub table: String,
    pub worse: usize,
    pub unresolved: usize,
    pub failed: bool,
}

fn env_field<'a>(file: &'a Json, key: &str) -> Option<&'a Json> {
    file.get("env")?.get(key)
}

/// Compares two result files. `Err` when they cannot be compared at all.
pub fn compare(a: &Json, b: &Json, force: bool) -> Result<Comparison, String> {
    for key in ["nproc", "cpu_model"] {
        let (ea, eb) = (env_field(a, key), env_field(b, key));
        if ea != eb && !force {
            return Err(format!(
                "the files were taken on different machines ({key}: {} vs {}); \
                 pass --force to compare anyway",
                ea.map_or("missing".to_string(), Json::render),
                eb.map_or("missing".to_string(), Json::render),
            ));
        }
    }
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("a: no workloads")?;
    let workloads_b = b
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("b: no workloads")?;
    let mut out = Comparison {
        table: String::new(),
        worse: 0,
        unresolved: 0,
        failed: false,
    };
    let _ = writeln!(
        out.table,
        "{:<16} {:<15} {:>12} {:>12} {:>8}  {:>6}  verdict",
        "workload", "metric", "a", "b", "b÷a", "bound"
    );
    for (name, wa) in workloads_a {
        let Some(wb) = workloads_b.get(name) else {
            return Err(format!("workload {name} is missing from b"));
        };
        for (label, w) in [("a", wa), ("b", wb)] {
            if w.get("correct").and_then(Json::as_bool) != Some(true) {
                let failed = w.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let _ = writeln!(
                    out.table,
                    "{name}: file {label} is not correct (failed = {failed})"
                );
                out.failed = true;
            }
        }
        for def in catalog::END_TO_END {
            let read = |w: &Json| w.get("end_to_end")?.get(def.name).and_then(Sample::read);
            let (Some(sa), Some(sb)) = (read(wa), read(wb)) else {
                return Err(format!(
                    "{name}: metric {} is missing from a file",
                    def.name
                ));
            };
            let verdict = judge(&sa, &sb, def.better, def.bound);
            match verdict {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let _ = writeln!(
                out.table,
                "{:<16} {:<15} {:>12.4} {:>12.4} {:>7.3}x  {:>5.0}%  {} ({} {}, spread a {:.1}% b {:.1}%)",
                name,
                def.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                def.bound * 100.0,
                verdict.as_str(),
                def.unit,
                def.better.as_str(),
                sa.spread() * 100.0,
                sb.spread() * 100.0,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, min: f64, max: f64) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("min", Json::Num(min)),
            ("max", Json::Num(max)),
            ("n", Json::Num(3.0)),
            ("unit", Json::str("x")),
        ])
    }

    /// A file where every end-to-end metric of one workload reads `value` ± `spread`,
    /// except `name`, which reads `special`.
    fn file(nproc: f64, name: &str, special: Json, correct: bool) -> Json {
        let metrics = catalog::END_TO_END.iter().map(|def| {
            let m = if def.name == name {
                special.clone()
            } else {
                metric(10.0, 9.9, 10.1)
            };
            (def.name, m)
        });
        Json::obj([
            (
                "env",
                Json::obj([("nproc", Json::Num(nproc)), ("cpu_model", Json::str("cpu"))]),
            ),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("correct", Json::Bool(correct)),
                        ("failed", Json::Num(if correct { 0.0 } else { 2.0 })),
                        ("end_to_end", Json::obj(metrics)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = file(2.0, "", Json::Null, true);
        // batchenum_s, lower is better: past the bound upwards is worse, past it downwards
        // better, inside it the same. Every sample set here is tight (±1 %).
        let bound = catalog::find("batchenum_s").unwrap().bound;
        let tight = |value: f64| metric(value, value * 0.99, value * 1.01);
        let run = |m: Json| compare(&base, &file(2.0, "batchenum_s", m, true), false).unwrap();
        let worse = run(tight(10.0 * (1.0 + 1.5 * bound)));
        assert_eq!((worse.worse, worse.unresolved), (1, 0));
        let better = run(tight(10.0 * (1.0 - 1.5 * bound)));
        assert_eq!(better.worse, 0);
        assert!(better.table.contains("better"));
        assert_eq!(run(tight(10.0 * (1.0 + 0.5 * bound))).worse, 0);
        // A file whose own samples span more than the bound resolves nothing.
        let value = 10.0 * (1.0 + 1.5 * bound);
        let noisy = run(metric(value, value * (1.0 - bound), value * (1.0 + bound)));
        assert_eq!((noisy.worse, noisy.unresolved), (0, 1));
        // capacity_qps, higher is better: a drop is worse, a rise is not.
        let bound = catalog::find("capacity_qps").unwrap().bound;
        let run = |m: Json| compare(&base, &file(2.0, "capacity_qps", m, true), false).unwrap();
        assert_eq!(run(tight(10.0 * (1.0 - 1.5 * bound))).worse, 1);
        assert_eq!(run(tight(10.0 * (1.0 + 1.5 * bound))).worse, 0);
    }

    #[test]
    fn refuses_other_machines_and_flags_failed_runs() {
        let a = file(2.0, "", Json::Null, true);
        let other = file(8.0, "", Json::Null, true);
        assert!(compare(&a, &other, false).is_err());
        assert!(compare(&a, &other, true).is_ok());
        let failed = file(2.0, "", Json::Null, false);
        assert!(compare(&a, &failed, false).unwrap().failed);
        assert!(!compare(&a, &a, false).unwrap().failed);
    }
}
