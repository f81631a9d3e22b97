//! Sets of runs, and the comparison of two of them: per (workload, metric)
//! both medians, their ratio with its base, the bound, and a verdict.

use crate::metrics::{Better, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::stats::{median, quartiles};
use jsonlite::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(workload, metric) → one value per run`, split by run family.
#[derive(Debug, Default)]
pub struct Set {
    pub untraced: BTreeMap<(String, String), Vec<f64>>,
    pub traced: BTreeMap<(String, String), Vec<f64>>,
    pub failed: u64,
}

impl Set {
    /// Adds the result object a run printed as its last line.
    pub fn add(&mut self, workload: &str, traced: bool, result: &Json) -> Result<(), String> {
        self.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result line has no metrics object")?;
        let family = if traced { &mut self.traced } else { &mut self.untraced };
        for (name, m) in metrics {
            let v =
                m.get("value").and_then(Json::as_f64).ok_or_else(|| format!("{name}: no value"))?;
            family.entry((workload.to_string(), name.clone())).or_default().push(v);
        }
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        let family = |f: &BTreeMap<(String, String), Vec<f64>>| {
            Json::Array(
                f.iter()
                    .map(|((w, m), v)| {
                        Json::Object(vec![
                            ("workload".into(), Json::Str(w.clone())),
                            ("metric".into(), Json::Str(m.clone())),
                            (
                                "values".into(),
                                Json::Array(v.iter().map(|&x| Json::Float(x)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Object(vec![
            ("failed".into(), Json::UInt(self.failed)),
            ("untraced".into(), family(&self.untraced)),
            ("traced".into(), family(&self.traced)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let family = |key: &str| -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
            let mut out = BTreeMap::new();
            for row in
                doc.get(key).and_then(Json::as_array).ok_or_else(|| format!("no {key} array"))?
            {
                let field = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
                let (Some(w), Some(m)) = (field("workload"), field("metric")) else {
                    return Err(format!("{key}: row without workload or metric"));
                };
                let values = row
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("{key}: {w}/{m} has no values"))?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                out.insert((w, m), values);
            }
            Ok(out)
        };
        Ok(Self {
            failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
            untraced: family("untraced")?,
            traced: family("traced")?,
        })
    }
}

/// Interquartile range as a share of the median (`None` below two values).
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

/// The comparison table of `b` against base `a`, and whether every bounded
/// pair came out `ok`.
pub fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = a.failed == 0 && b.failed == 0;
    let _ = writeln!(out, "failed operations: a {}, b {}", a.failed, b.failed);
    let _ = writeln!(
        out,
        "{:<18} {:<42} {:>12} {:>12} {:>14} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "spread", "bound"
    );
    let mut row =
        |w: &str, name: &str, better: Better, bound: Option<f64>, va: &[f64], vb: &[f64]| {
            let (ma, mb) = (median(va), median(vb));
            // Two zeros agree exactly; 0 / 0 would print as NaN.
            let ratio = if ma == mb { 1.0 } else { mb / ma };
            let worse_by = match better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let widest = spread(va)
                .into_iter()
                .chain(spread(vb))
                .fold(None, |m: Option<f64>, s| Some(m.map_or(s, |m| m.max(s))));
            let verdict = match bound {
                None if EXACT_COUNTS.contains(&name) => {
                    if ma.to_bits() == mb.to_bits() {
                        "identical"
                    } else {
                        "DIFFERS"
                    }
                }
                None => "-",
                // The spread of `setup_s` is not held against it: the acceptance
                // check gates it on medians only.
                Some(bound) if name != "setup_s" && widest.is_some_and(|s| s > bound) => {
                    "unresolved"
                }
                Some(bound) if worse_by > bound => "worse",
                Some(_) => "ok",
            };
            all_ok &= !matches!(verdict, "worse" | "unresolved" | "DIFFERS");
            let _ = writeln!(
                out,
                "{w:<18} {name:<42} {ma:>12.4} {mb:>12.4} {:>14} {:>7} {:>7}  {verdict}",
                format!("{ratio:.3}x of a"),
                widest.map_or("n/a".into(), |s| format!("{s:.3}")),
                bound.map_or("-".into(), |b| format!("{b:.2}")),
            );
        };
    for ((w, name), va) in &a.untraced {
        let Some(vb) = b.untraced.get(&(w.clone(), name.clone())) else { continue };
        if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
            row(w, name, m.better, Some(m.bound), va, vb);
        }
    }
    for ((w, name), va) in &a.traced {
        let Some(vb) = b.traced.get(&(w.clone(), name.clone())) else { continue };
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            row(w, name, m.better, None, va, vb);
        }
    }
    // Tracing overhead: the traced run's own medians over the untraced ones.
    for (label, set) in [("a", a), ("b", b)] {
        for ((w, name), traced) in &set.traced {
            let Some(base) = name.strip_prefix("traced.") else { continue };
            let Some(untraced) = set.untraced.get(&(w.clone(), base.to_string())) else { continue };
            let ratio = median(traced) / median(untraced);
            let _ = writeln!(
                out,
                "{w:<18} trace_overhead_ratio[{base}] in set {label}: {ratio:.3}x of the untraced median"
            );
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> Set {
        let mut s = Set::default();
        s.untraced.insert(("small_ops".into(), "write_p50_us".into()), values.to_vec());
        s.untraced.insert(("small_ops".into(), "write_mib_s".into()), values.to_vec());
        s
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = set(&[100.0, 101.0, 99.0, 100.0]);
        let (table, ok) = compare(&base, &set(&[105.0, 104.0, 106.0, 105.0]));
        assert!(ok, "{table}"); // 5 % worse latency, 5 % better throughput
        let (table, ok) = compare(&base, &set(&[135.0, 134.0, 136.0, 135.0]));
        assert!(!ok && table.contains("worse"), "{table}");
        // Higher is better for MiB/s: 35 % more is fine there, so only the
        // latency row is worse.
        assert_eq!(table.matches("worse").count(), 1, "{table}");
        let (table, ok) = compare(&base, &set(&[60.0, 140.0, 100.0, 180.0]));
        assert!(!ok && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn sets_survive_a_json_round_trip() {
        let s = set(&[1.5, 2.5]);
        let back = Set::from_json(&Json::parse(&s.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.untraced, s.untraced);
    }
}
