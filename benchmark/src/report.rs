//! The contract and the result object. `BENCHMARK.json` at the repository
//! root is the one place that names the workloads, the metrics with unit,
//! direction and bound, and the measured seconds; it is compiled in, so
//! what the driver reads and what this program prints cannot differ. Every
//! workload reports every name — a per-layer metric that does not apply to
//! a workload reads 0 there.

use std::sync::OnceLock;

use crate::json::{self, obj, Json};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as this program needs it.
pub struct Contract {
    pub workloads: Vec<String>,
    /// Measured seconds per run when `--seconds` is not given.
    pub run_seconds: u64,
    /// What a user of the system sees. Measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// Single layers, by crate. Sources: micro (timed calls into the
    /// crate), trace (the traced run's spans), count (run reports).
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// The metrics a run with this `--trace` value reports.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn parse_contract(text: &str) -> Option<Contract> {
    let doc = json::parse(text).ok()?;
    let metrics = |key: &str| -> Option<Vec<MetricDef>> {
        doc.get(key)?
            .as_arr()?
            .iter()
            .map(|m| {
                Some(MetricDef {
                    name: m.get("name")?.as_str()?.to_string(),
                    unit: m.get("unit")?.as_str()?.to_string(),
                    better: match m.get("better")?.as_str()? {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        _ => return None,
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Some(Contract {
        workloads: doc
            .get("workloads")?
            .as_arr()?
            .iter()
            .map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect::<Option<_>>()?,
        run_seconds: doc.get("run_seconds")?.as_f64()? as u64,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        parse_contract(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    })
}

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }

    /// Names set here that `defs` does not declare (a typo guard).
    pub fn undeclared(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        self.0
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !defs.iter().any(|d| d.name == *n))
            .collect()
    }
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Failed checks and guard warnings, for the human-readable output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of `defs`
    /// in declaration order.
    pub fn result_json(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    obj([
                        ("value", Json::Num(self.values.get(&d.name).unwrap_or(0.0))),
                        ("unit", Json::Str(d.unit.clone())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_within_the_drivers_limits() {
        let c = contract();
        let mut seen = std::collections::HashSet::new();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for w in &c.workloads {
            assert!(seen.insert(w.clone()) && name_ok(w), "{w}");
        }
        for d in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(seen.insert(d.name.clone()), "duplicate name {}", d.name);
            assert!(name_ok(&d.name) && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()) && (1..=128).contains(&c.per_layer.len()));
        assert!((1..=60).contains(&c.run_seconds));
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = c.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        // Set-up time gets the largest bound.
        assert!(c.end_to_end.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let defs = &contract().end_to_end;
        let mut out = Outcome {
            correct: true,
            attempted: 10,
            ..Outcome::default()
        };
        out.values.set("goodput_rps", 123.5);
        let json = out.result_json(defs);
        let metrics = json.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), defs.len());
        assert_eq!(
            json.get("metrics")
                .unwrap()
                .get("goodput_rps")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(123.5)
        );
        assert_eq!(json.as_obj().unwrap().len(), 4);
        assert!(out.values.undeclared(defs).is_empty());
        out.values.set("typo", 1.0);
        assert_eq!(out.values.undeclared(defs), ["typo"]);
    }
}
