//! Host-time spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's side of the layer
//! boundaries only (spans inside the program are a later change), kept
//! in memory and written out once when the run ends. A disabled tracer
//! records nothing and costs one branch per call, so end-to-end metrics
//! are measured with tracing off and the traced run reports the
//! difference as `host.trace_overhead`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    pub t0_ns: u64,
    pub t1_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    workload: &'static str,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer {
            workload,
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span charged to `layer`. Returns `f`'s result
    /// and the span's wall-clock seconds (measured whether or not the
    /// tracer records, so callers time with one clock).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name: name.into(),
            t0_ns: self.epoch.elapsed().as_nanos() as u64,
            t1_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].t1_ns = t1;
        (out, (t1 - self.spans[id].t0_ns) as f64 * 1e-9)
    }

    /// Attaches a count to the innermost open span, so ratios are
    /// measured where the work happens.
    pub fn count(&mut self, key: &'static str, v: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, v));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover, summed by the span's layer.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.t1_ns - s.t0_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.t1_ns - s.t0_ns).saturating_sub(child_cover[s.id]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("id", (s.id as u64).into()),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| (p as u64).into()),
                        ),
                        ("workload", Value::str(self.workload)),
                        ("layer", Value::str(s.layer)),
                        ("name", Value::str(s.name.as_str())),
                        ("t0_ns", s.t0_ns.into()),
                        ("t1_ns", s.t1_ns.into()),
                        (
                            "counts",
                            Value::Obj(
                                s.counts
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new("w", true);
        t.span("outer", "a", |t| {
            t.span("inner", "b", |t| {
                t.count("n", 3.0);
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let by = t.self_seconds_by_layer();
        assert!(by["inner"] >= 0.005 && by["outer"] >= 0.005);
        let total = (t.spans()[0].t1_ns - t.spans()[0].t0_ns) as f64 * 1e-9;
        assert!((by["inner"] + by["outer"] - total).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].counts, vec![("n", 3.0)]);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new("w", false);
        let (v, secs) = t.span("l", "x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
