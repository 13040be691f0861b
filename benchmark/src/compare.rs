//! `compare A.json B.json`: for every workload and end-to-end metric, the
//! two medians with their quartiles, the ratio with its base, and a
//! verdict against the metric's bound in `BENCHMARK.json`.
//!
//! A file holds one or more runs per workload (`run --repeat`). With
//! several, the statistics are over the runs' values, as the acceptance
//! rule takes them; with one, the quartiles come from that run's raw
//! samples where the metric has any.

use crate::json::Json;
use crate::spec::{MetricDef, Spec};
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// `B` is worse than `A` by more than the bound.
    Regressed,
    /// The spread of either side is wider than the bound: the runs cannot
    /// tell a change of that size from noise.
    Unresolved,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub spread: f64,
}

impl Stat {
    /// `values`: the metric's value in each run; `raw`: the samples behind
    /// a single run's value.
    pub fn of(values: &[f64], raw: &[f64]) -> Stat {
        let from = if values.len() >= 2 || raw.is_empty() {
            values
        } else {
            raw
        };
        let (q1, _, q3) = quartiles(from);
        Stat {
            q1,
            median: crate::stats::median(values),
            q3,
            spread: spread(from),
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better),
/// and the verdict.
pub fn judge(def: &MetricDef, a: &Stat, b: &Stat) -> (f64, Verdict) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if def.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

struct Runs<'a>(Vec<&'a Json>);

impl<'a> Runs<'a> {
    /// The untraced runs of `workload` in a results file.
    fn of(file: &'a Json, workload: &str) -> Self {
        Runs(
            file.get("runs")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter(|r| {
                    r.get("workload").and_then(Json::as_str) == Some(workload)
                        && r.get("traced") == Some(&Json::Bool(false))
                })
                .collect(),
        )
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
            .collect()
    }

    fn raw(&self, metric: &str) -> Vec<f64> {
        match self.0.as_slice() {
            [only] => only
                .get("samples")
                .and_then(|s| s.get(metric))
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            _ => Vec::new(),
        }
    }

    fn failed_share(&self) -> f64 {
        let sum = |key: &str| -> f64 {
            self.0
                .iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        sum("ops_failed") / sum("ops_attempted").max(1.0)
    }
}

/// Print the comparison; `true` when nothing regressed, no metric is
/// missing and `B` fails no larger a share of its operations.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> bool {
    let mut pass = true;
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<18} {:<22} {:>34} {:>34} {:>22}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)"
    );
    for (workload, _) in &spec.workloads {
        let (ra, rb) = (Runs::of(a, workload), Runs::of(b, workload));
        if ra.0.is_empty() || rb.0.is_empty() {
            println!(
                "{workload:<18} missing from {}",
                if ra.0.is_empty() { "A" } else { "B" }
            );
            pass = false;
            continue;
        }
        for def in &spec.end_to_end {
            let (va, vb) = (ra.values(&def.name), rb.values(&def.name));
            if va.len() != ra.0.len() || vb.len() != rb.0.len() {
                println!("{workload:<18} {:<22} missing metric", def.name);
                pass = false;
                continue;
            }
            let sa = Stat::of(&va, &ra.raw(&def.name));
            let sb = Stat::of(&vb, &rb.raw(&def.name));
            let (worse_by, verdict) = judge(def, &sa, &sb);
            let cell = |s: &Stat| format!("{:.6e} [{:.4e}, {:.4e}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<18} {:<22} {:>34} {:>34} {:>8.4} ({:.4e} {})  {}",
                def.name,
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                sa.median,
                def.unit,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regressed => format!(
                        "regressed (worse by {:.1} %, bound {:.1} %)",
                        100.0 * worse_by,
                        100.0 * def.bound.unwrap_or(0.0)
                    ),
                    Verdict::Unresolved => format!(
                        "unresolved (spread {:.1} % / {:.1} %, bound {:.1} %)",
                        100.0 * sa.spread,
                        100.0 * sb.spread,
                        100.0 * def.bound.unwrap_or(0.0)
                    ),
                }
            );
            regressed += (verdict == Verdict::Regressed) as usize;
            unresolved += (verdict == Verdict::Unresolved) as usize;
        }
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        if fb > fa {
            println!("{workload:<18} failed-operation share rose: {fa:.4} -> {fb:.4}");
            pass = false;
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    pass && regressed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |m: f64| Stat::of(&[m * 0.99, m, m * 1.01], &[]);
        let lower = def(false, 0.10);
        assert_eq!(judge(&lower, &tight(1.0), &tight(1.05)).1, Verdict::Ok);
        assert_eq!(
            judge(&lower, &tight(1.0), &tight(1.15)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, &tight(1.0), &tight(0.5)).1, Verdict::Ok);
        let higher = def(true, 0.10);
        assert_eq!(
            judge(&higher, &tight(1.0), &tight(0.85)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&higher, &tight(1.0), &tight(1.5)).1, Verdict::Ok);
        let noisy = Stat::of(&[0.8, 1.0, 1.3], &[]);
        assert_eq!(judge(&lower, &noisy, &tight(1.5)).1, Verdict::Unresolved);
        let (worse_by, _) = judge(&lower, &tight(2.0), &tight(2.2));
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_single_run_takes_its_quartiles_from_the_raw_samples() {
        let s = Stat::of(&[5.0], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.0, 8.25));
        let s = Stat::of(&[5.0], &[]);
        assert_eq!((s.q1, s.median, s.q3, s.spread), (5.0, 5.0, 5.0, 0.0));
        let s = Stat::of(&[4.0, 6.0], &[100.0, 200.0]);
        assert_eq!(s.median, 5.0);
        assert!(s.q3 < 10.0);
    }
}
