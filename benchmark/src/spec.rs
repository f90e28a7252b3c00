//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is the one
//! place they are written; it is compiled into this binary and read here.

use std::sync::OnceLock;

use crate::json::{self, Json};

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change is a regression. One bound
    /// serves every workload.
    pub bound: Option<f64>,
}

pub struct Spec {
    /// How long one run measures when nothing else is asked, and the run
    /// length every phase size in this crate is quoted at.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn unit_of(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }

    /// The metrics one pass prints, in the order the contract lists them.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn text(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                bound: m.get("bound").and_then(Json::as_num),
            })
        })
        .collect()
}

fn parse(source: &str) -> Result<Spec, String> {
    let doc = json::parse(source)?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
        workloads: list(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

const SOURCE: &str = include_str!("../../BENCHMARK.json");

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(SOURCE).expect("the BENCHMARK.json this binary was built with"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn benchmark_json_fits_the_contract() {
        assert!(SOURCE.len() <= 64 * 1024);
        let doc = json::parse(SOURCE).unwrap();
        let keys: Vec<&str> = json::entries(&doc)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (list, keys) in [
            ("workloads", &["name", "why"][..]),
            ("end_to_end", &["name", "unit", "better", "bound"]),
            ("per_layer", &["name", "unit", "better"]),
        ] {
            for item in doc.get(list).unwrap().as_arr().unwrap() {
                let found: Vec<&str> = json::entries(item)
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(found, keys, "{list}");
                if let Some(better) = item.get("better") {
                    assert!(matches!(better.as_str(), Some("higher" | "lower")));
                }
                if let Some(why) = item.get("why").and_then(Json::as_str) {
                    assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
                }
            }
        }
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [json::str("benchmark")]
        );

        let spec = spec();
        let mut seen = BTreeSet::new();
        let names = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name:?}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(well_formed(&m.unit, 16, "_/%.-"), "bad unit {:?}", m.unit);
        }
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(spec.run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_on_every_workload() {
        // One bound per metric covers every workload; it must exist, be
        // positive and stay within what the contract allows, and set-up
        // time has the largest.
        let spec = spec();
        let bound = |m: &Metric| m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        for m in &spec.end_to_end {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.unit, "s");
        assert!(spec.end_to_end.iter().all(|m| bound(m) <= bound(setup)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
