//! `compare A.json B.json` — B against A, one row per workload ×
//! end-to-end metric, by the bounds `BENCHMARK.json` fixes.
//!
//! Host metrics (units of time, reference-kernel times and memory) get
//! a ratio band: B may be
//! worse than A by the metric's bound; if either set's own quartiles
//! are further apart than the bound the row is *unresolved*, not
//! unchanged. Virtual-time, ratio and count metrics repeat exactly for
//! a seed, so any difference at all is reported.

use crate::harness::SPEC;
use crate::json::{self, Value};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

struct Sample {
    value: f64,
    /// (q3 − q1) / median of the set's own repeats, if it has any.
    spread: Option<f64>,
}

fn sample(workload: &Value, metric: &str) -> Option<Sample> {
    let m = ["metrics", "extras"]
        .iter()
        .find_map(|k| workload.get(k)?.get(metric))?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (m.get("q1"), m.get("q3")) {
        (Some(q1), Some(q3)) => Some((q3.as_f64()? - q1.as_f64()?) / value),
        _ => None,
    };
    Some(Sample { value, spread })
}

/// Is this metric measured on the host clock (noisy) rather than
/// computed by the deterministic simulation (exact)?
fn is_host_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns" | "MB" | "x_ref")
}

fn judge(a: &Sample, b: &Sample, lower_is_better: bool, bound: Option<f64>) -> Verdict {
    // Signed so that positive means B is worse.
    let worse = if lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    };
    match bound {
        None if a.value.to_bits() == b.value.to_bits() => Verdict::Unchanged,
        None if worse > 0.0 => Verdict::Regressed,
        None => Verdict::Improved,
        Some(bound) => {
            let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
            let rel = worse / a.value.abs();
            if spread > bound {
                Verdict::Unresolved
            } else if rel > bound {
                Verdict::Regressed
            } else if rel < -bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

/// A result file holds either one workload or a set of them.
fn workloads_of(file: &Value) -> Vec<(String, &Value)> {
    match file.get("workloads").and_then(Value::as_obj) {
        Some(set) => set.iter().map(|(k, v)| (k.clone(), v)).collect(),
        None => file
            .get("workload")
            .and_then(Value::as_str)
            .map(|w| vec![(w.to_string(), file)])
            .unwrap_or_default(),
    }
}

/// Prints the table; returns the number of regressed and of unresolved
/// rows.
pub fn compare(a_text: &str, b_text: &str) -> Result<(usize, usize), String> {
    let (a, b) = (json::parse(a_text)?, json::parse(b_text)?);
    let spec = json::parse(SPEC)?;
    let (wa, wb) = (workloads_of(&a), workloads_of(&b));
    let mut rows: Vec<(String, String, bool, Option<f64>)> = Vec::new();
    for m in spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
    {
        let field = |k| m.get(k).and_then(Value::as_str).unwrap_or_default();
        let bound = m.get("bound").and_then(Value::as_f64);
        rows.push((
            field("name").to_string(),
            field("unit").to_string(),
            field("better") == "lower",
            bound.filter(|_| is_host_unit(field("unit"))),
        ));
    }
    for (name, lower) in [
        ("eq_residual", true),
        ("overlap_fraction", false),
        ("fail_share", true),
    ] {
        rows.push((name.to_string(), "ratio".to_string(), lower, None));
    }

    println!(
        "{:<13} {:<17} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    let (mut regressed, mut unresolved, mut compared) = (0, 0, 0);
    for w in WORKLOADS {
        let (Some((_, ra)), Some((_, rb))) = (
            wa.iter().find(|(n, _)| n == w),
            wb.iter().find(|(n, _)| n == w),
        ) else {
            continue;
        };
        for (name, unit, lower, bound) in &rows {
            let (Some(sa), Some(sb)) = (sample(ra, name), sample(rb, name)) else {
                continue;
            };
            let verdict = judge(&sa, &sb, *lower, *bound);
            compared += 1;
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            // 0 / 0 is "the same", not NaN.
            let ratio = if sa.value == sb.value {
                1.0
            } else {
                sb.value / sa.value
            };
            println!(
                "{w:<13} {name:<17} {:>14.6e} {:>14.6e} {ratio:>8.4}  {}{}",
                sa.value,
                sb.value,
                format!("{verdict:?}").to_lowercase(),
                match bound {
                    Some(bd) => format!(" (band {:.0} %, {unit})", bd * 100.0),
                    None => format!(" (exact, {unit})"),
                }
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload × metric".to_string());
    }
    println!("{compared} rows: {regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: Option<f64>) -> Sample {
        Sample { value, spread }
    }

    #[test]
    fn host_metrics_get_a_band() {
        let band = Some(0.10);
        let a = s(1.0, Some(0.02));
        assert_eq!(
            judge(&a, &s(1.05, Some(0.02)), true, band),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &s(1.15, Some(0.02)), true, band),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &s(0.85, Some(0.02)), true, band),
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &s(1.15, Some(0.2)), true, band),
            Verdict::Unresolved
        );
    }

    #[test]
    fn simulated_metrics_are_exact() {
        let a = s(1.0, None);
        assert_eq!(judge(&a, &s(1.0, None), true, None), Verdict::Unchanged);
        assert_eq!(
            judge(&a, &s(1.0 + 1e-15, None), true, None),
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &s(0.5, None), false, None), Verdict::Regressed);
        assert_eq!(judge(&a, &s(2.0, None), false, None), Verdict::Improved);
    }
}
