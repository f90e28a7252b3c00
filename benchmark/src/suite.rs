//! `--all`: every workload as a child run of this binary — fresh process,
//! fresh peak memory, exactly what the acceptance driver does — with the
//! result lines validated against the spec, tabulated, and (with
//! `--check`) held to the benchmark's own bounds across repeated sets.

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::spec::spec;
use crate::{flag, has, host, parsed, stats};

/// Size of a `--smoke` run relative to the reference.
const SMOKE_DIVISOR: f64 = 50.0;

/// Check one result line against the contract: exactly the four keys,
/// and exactly the spec's metrics for the pass, each a finite number with
/// the spec's unit (and, for end-to-end metrics, not zero).
pub fn validate_line(line: &str, trace: bool) -> Result<Json, String> {
    let doc = json::parse(line)?;
    let keys: Vec<&str> = json::entries(&doc)
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    doc.get("correct")
        .and_then(json::as_bool)
        .ok_or("correct is not a boolean")?;
    for (key, least) in [("attempted", 1.0), ("failed", 0.0)] {
        let value = doc
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("{key} is not a number"))?;
        if value.fract() != 0.0 || value < least {
            return Err(format!("{key} is {value}"));
        }
    }
    let expected = spec().metrics(trace);
    let metrics = doc.get("metrics").map(json::entries).unwrap_or_default();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    if names != wanted {
        let missing: Vec<&&str> = wanted.iter().filter(|n| !names.contains(n)).collect();
        let extra: Vec<&&str> = names.iter().filter(|n| !wanted.contains(n)).collect();
        return Err(format!(
            "metric names differ: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    for ((name, metric), wanted) in metrics.iter().zip(expected) {
        let fields: Vec<&str> = json::entries(metric)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if fields != ["value", "unit"] {
            return Err(format!("{name} has fields {fields:?}"));
        }
        let value = metric
            .get("value")
            .and_then(Json::as_num)
            .ok_or(format!("{name} has no numeric value"))?;
        if !trace && value == 0.0 {
            return Err(format!("{name} is zero"));
        }
        if metric.get("unit").and_then(Json::as_str) != Some(&wanted.unit) {
            return Err(format!("{name} does not carry unit {}", wanted.unit));
        }
    }
    Ok(doc)
}

/// One child run; its validated result line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("child stdout piped")
        .read_to_string(&mut stdout)
        .map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    let line = stdout.lines().last().unwrap_or_default();
    let doc = validate_line(line, trace).map_err(|e| format!("{workload} (trace {trace}): {e}"))?;
    if !status.success() || doc.get("correct").and_then(json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} (trace {trace}) exited {status} with outputs marked incorrect"
        ));
    }
    Ok(doc)
}

fn value_of(doc: &Json, metric: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

/// Spread of one metric over repeated sets: quartile distance over
/// median from four sets up (what the acceptance driver computes), range
/// over median below that.
fn spread_of(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return stats::spread(values);
    }
    let sorted = stats::sorted(values.to_vec());
    let mid = stats::median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (sorted[sorted.len() - 1] - sorted[0]) / mid.abs()
    }
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let smoke = has(args, "--smoke");
    let seed: u64 = parsed(args, "--seed", 7)?;
    let repeat: usize = parsed(args, "--repeat", 1)?;
    let check = has(args, "--check");
    let run_seconds = spec().run_seconds;
    let seconds = if smoke {
        run_seconds / SMOKE_DIVISOR
    } else {
        parsed(args, "--seconds", run_seconds)?
    };
    let passes: &[bool] = match flag(args, "--trace").unwrap_or(if smoke { "both" } else { "0" }) {
        "0" => &[false],
        "1" => &[true],
        "both" => &[false, true],
        other => return Err(format!("--trace takes 0, 1 or both, not {other:?}")),
    };
    if repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }

    // sets[set][pass][workload]. Every set runs the same seed: what
    // differs between sets is then the noise of the host and nothing
    // else, and the counts must repeat exactly.
    let mut sets: Vec<Vec<Vec<Json>>> = Vec::new();
    for set in 0..repeat {
        let mut by_pass = Vec::new();
        for &trace in passes {
            // The traced runs of one set share their probes; no set
            // inherits another's.
            if let Ok(dir) = host::out_dir() {
                let _ = std::fs::remove_file(dir.join(crate::ledger::PROBE_FILE));
            }
            let mut docs = Vec::new();
            for workload in &spec().workloads {
                let began = std::time::Instant::now();
                let doc = child_run(workload, seed, seconds, trace)?;
                eprintln!(
                    "set {set}: {workload} (trace {}) ran {:.1}s",
                    u8::from(trace),
                    began.elapsed().as_secs_f64()
                );
                docs.push(doc);
            }
            by_pass.push(docs);
        }
        sets.push(by_pass);
    }

    let mut failures = Vec::new();
    let mut tables = Vec::new();
    for (p, &trace) in passes.iter().enumerate() {
        println!(
            "\n== {} pass ==",
            if trace {
                "traced (per-layer)"
            } else {
                "end-to-end"
            }
        );
        for (w, workload) in spec().workloads.iter().enumerate() {
            println!("\n{workload}");
            let mut rows = Vec::new();
            for metric in spec().metrics(trace) {
                let (name, unit) = (metric.name.as_str(), metric.unit.as_str());
                let values: Vec<f64> = sets.iter().map(|s| value_of(&s[p][w], name)).collect();
                let mid = stats::median_of(&values);
                let mut row = vec![
                    ("name", json::str(name)),
                    ("unit", json::str(unit)),
                    ("median", json::num(mid)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| json::num(v)).collect()),
                    ),
                ];
                if repeat >= 2 {
                    let spread = spread_of(&values);
                    row.push(("spread", json::num(spread)));
                    let verdict = match metric.bound {
                        Some(bound) if name != "setup_s" && spread > bound => {
                            failures.push(format!(
                                "{workload} {name}: spread {spread:.4} exceeds its bound {bound}"
                            ));
                            "  EXCEEDS BOUND"
                        }
                        _ => "",
                    };
                    let bound = metric
                        .bound
                        .map_or(String::new(), |b| format!("  bound {b}"));
                    println!(
                        "  {name:<44} {mid:>14.6} {unit:<6} spread {spread:.4}{bound}{verdict}"
                    );
                } else {
                    println!("  {name:<44} {mid:>14.6} {unit}");
                }
                rows.push(json::obj(row));
            }
            tables.push(json::obj([
                ("workload", json::str(workload)),
                ("trace", Json::Bool(trace)),
                ("metrics", Json::Arr(rows)),
            ]));
        }
    }

    let summary = json::obj([
        ("seed", json::count(seed)),
        ("seconds", json::num(seconds)),
        ("scale", json::num(seconds / run_seconds)),
        ("sets", json::count(repeat as u64)),
        ("provenance", host::provenance()),
        ("results", Json::Arr(tables)),
    ]);
    let path = host::out_dir()
        .map(|dir| dir.join(if smoke { "smoke.json" } else { "all.json" }))
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, json::render(&summary)).map_err(|e| e.to_string())?;
    println!("\nwrote {}", path.display());

    if check && !failures.is_empty() {
        for failure in &failures {
            eprintln!("check failed: {failure}");
        }
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "{}: {} workloads x {} pass(es) x {} set(s), every result line valid{}",
        if smoke { "smoke OK" } else { "OK" },
        spec().workloads.len(),
        passes.len(),
        repeat,
        if check {
            ", every spread within its bound"
        } else {
            ""
        }
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(trace: bool, tweak: impl Fn(&mut Vec<(String, Json)>)) -> String {
        let value = if trace { 0.0 } else { 1.5 };
        let mut metrics: Vec<(String, Json)> = spec()
            .metrics(trace)
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json::obj([("value", json::num(value)), ("unit", json::str(&m.unit))]),
                )
            })
            .collect();
        tweak(&mut metrics);
        json::render(&json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", json::count(10)),
            ("failed", json::count(0)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    #[test]
    fn accepts_exactly_the_specs_metrics() {
        assert!(validate_line(&line(false, |_| ()), false).is_ok());
        // Per-layer values may be zero; end-to-end ones may not.
        assert!(validate_line(&line(true, |_| ()), true).is_ok());
        assert!(
            validate_line(&line(true, |_| ()), false).is_err(),
            "wrong pass"
        );
        let dropped = line(false, |m| {
            m.pop();
        });
        assert!(validate_line(&dropped, false)
            .unwrap_err()
            .contains("peak_rss_mb"));
        let zero = line(false, |m| {
            m[0].1 = json::obj([("value", json::num(0.0)), ("unit", json::str("1/s"))])
        });
        assert!(validate_line(&zero, false).unwrap_err().contains("zero"));
        let unit = line(false, |m| {
            m[0].1 = json::obj([("value", json::num(1.0)), ("unit", json::str("s"))])
        });
        assert!(validate_line(&unit, false).unwrap_err().contains("unit"));
        assert!(validate_line("{\"correct\": true}", false).is_err());
        assert!(validate_line("not json", false).is_err());
    }

    #[test]
    fn spread_uses_quartiles_from_four_sets_up() {
        assert!((spread_of(&[100.0, 110.0]) - 10.0 / 100.0).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_of(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread_of(&[0.0, 0.0]), 0.0);
    }
}
