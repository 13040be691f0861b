//! `BENCHMARK.json`, embedded at build time: the one list of workloads and
//! metrics (name, unit, direction, bound). The code looks its output up in
//! this list, so the file and the program cannot disagree.

use crate::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            root.get(key)
                .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let name = text_of(m, "name")?;
                    if !valid_name(&name) {
                        return Err(format!("BENCHMARK.json: invalid metric name `{name}`"));
                    }
                    Ok(MetricDef {
                        name,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads: root
                .get("workloads")
                .ok_or("BENCHMARK.json: missing `workloads`")?
                .as_arr()
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The embedded file; malformed is a build defect, not a runtime input.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is well-formed")
    }

    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::workloads;

    #[test]
    fn names_are_validated() {
        for ok in ["setup_s", "core.level.L4.avg_rank", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn embedded_spec_matches_the_contract_and_the_code() {
        let spec = Spec::embedded();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let coded: Vec<&str> = workloads(false).iter().map(|w| w.name).collect();
        assert_eq!(names, coded);
        assert!(spec.workloads.iter().all(|(n, why)| valid_name(n)
            && !why.is_empty()
            && why.len() <= 200
            && !why.contains('\n')));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        let mut all: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(names)
            .collect();
        all.sort_unstable();
        assert!(all.windows(2).all(|w| w[0] != w[1]), "a name is used once");
        assert!(BENCHMARK_JSON.len() <= 64 << 10);
    }
}
