//! `benchmark compare A.json B.json`: apply the bounds recorded in
//! `BENCHMARK.json` to two results files written by `benchmark all`.

use crate::json::{self, Json};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The change is beyond the bound but the two sides' repetition
    /// quartile ranges overlap: the run-to-run spread is wider than the
    /// bound, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the metric's value and, for host metrics, the
/// first and third quartile over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

/// Relative change from `a` to `b`, signed so that positive means worse.
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == b {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    let delta = worse_by(a.value, b.value, lower_is_better);
    if delta.abs() <= bound {
        return Verdict::Same;
    }
    let overlap = match (a.quartiles, b.quartiles) {
        (Some((a1, a3)), Some((b1, b3))) => a1 <= b3 && b1 <= a3,
        _ => false,
    };
    if overlap {
        Verdict::Unresolved
    } else if delta > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let q = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Side {
        value: m.get("value")?.as_f64()?,
        quartiles: q("rep_q1").zip(q("rep_q3")),
    })
}

pub fn cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut bounds_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            paths.push(arg.as_str());
        }
    }
    let [path_a, path_b] = paths[..] else {
        return Err("usage: benchmark compare A.json B.json [--bounds BENCHMARK.json]".to_owned());
    };
    let (a, b, manifest) = (load(path_a)?, load(path_b)?, load(&bounds_path)?);
    let metrics = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{bounds_path}: no end_to_end list"))?;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{path_a}: no workloads"))?;

    println!(
        "{:<18} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut worse = 0;
    for (workload, _) in workloads {
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(sa), Some(sb)) = (side(&a, workload, name), side(&b, workload, name)) else {
                return Err(format!(
                    "{workload} / {name} is missing from one of the files"
                ));
            };
            let v = verdict(sa, sb, lower, bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{workload:<18} {name:<24} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {}",
                sa.value,
                sb.value,
                100.0 * worse_by(sa.value, sb.value, lower),
                100.0 * bound,
                v.as_str()
            );
        }
    }
    println!("{worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        Side {
            value,
            quartiles: None,
        }
    }

    fn host(value: f64, q1: f64, q3: f64) -> Side {
        Side {
            value,
            quartiles: Some((q1, q3)),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(worse_by(100.0, 110.0, true), 0.10);
        assert_eq!(worse_by(100.0, 110.0, false), -0.10);
        assert_eq!(worse_by(5.0, 5.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        // Simulated metrics have no spread: beyond the bound is decisive.
        assert_eq!(verdict(exact(24.0), exact(24.0), true, 0.01), Verdict::Same);
        assert_eq!(verdict(exact(24.0), exact(24.1), true, 0.01), Verdict::Same);
        assert_eq!(
            verdict(exact(24.0), exact(25.0), true, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            verdict(exact(24.0), exact(23.0), true, 0.01),
            Verdict::Better
        );
        // Throughput: higher is better.
        let a = host(7000.0, 6500.0, 6900.0);
        assert_eq!(
            verdict(a, host(6000.0, 5600.0, 5950.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, host(8000.0, 7400.0, 7900.0), false, 0.10),
            Verdict::Better
        );
        // Same drop, but the repetition quartile ranges overlap.
        assert_eq!(
            verdict(a, host(6000.0, 5600.0, 6600.0), false, 0.10),
            Verdict::Unresolved
        );
    }
}
