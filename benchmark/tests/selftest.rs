//! Self-tests of the benchmark at `--smoke` sizing: they drive the
//! built binary the way the driver does and check what it prints
//! against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use benchmark::harness::SPEC;
use benchmark::json::{self, Value};
use benchmark::workloads::WORKLOADS;

struct Run {
    /// The driver's JSON line.
    line: Value,
    /// The result file, with the extras and the loss digest.
    file: Value,
    stdout: String,
    out_dir: PathBuf,
}

/// Each caller gets a directory of its own: tests run in parallel.
fn run(tag: &str, workload: &str, seed: u64, trace: bool) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{tag}"));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited {:?}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = json::parse(stdout.lines().last().expect("a last line")).expect("JSON last line");
    let mode = if trace { "trace" } else { "e2e" };
    let file = std::fs::read_to_string(out_dir.join(format!("{workload}.{mode}.json")))
        .expect("result file written");
    Run {
        line,
        file: json::parse(&file).expect("result file parses"),
        stdout,
        out_dir,
    }
}

fn spec() -> Value {
    json::parse(SPEC).expect("BENCHMARK.json parses")
}

fn names(v: &Value, section: &str) -> Vec<(String, String)> {
    v.get(section)
        .and_then(Value::as_arr)
        .expect("section")
        .iter()
        .map(|m| {
            let f = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
            (f("name"), f("unit"))
        })
        .collect()
}

fn value(run: &Run, metric: &str) -> f64 {
    run.line
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {metric} printed"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_keeps_the_contract() {
    let spec = spec();
    let keys: Vec<&str> = spec
        .as_obj()
        .expect("object")
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
    let listed: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        listed, WORKLOADS,
        "BENCHMARK.json and the code name the same workloads"
    );
    let mut seen = BTreeSet::new();
    for (name, unit) in names(&spec, "end_to_end")
        .into_iter()
        .chain(names(&spec, "per_layer"))
        .chain(listed.iter().map(|w| (w.clone(), "count".to_string())))
    {
        assert!(is_name(&name), "bad name {name:?}");
        assert!(seen.insert(name.clone()), "{name} used twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    for m in spec.get("end_to_end").and_then(Value::as_arr).expect("e2e") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(names(&spec, "end_to_end").contains(&("setup_s".to_string(), "s".to_string())));
}

/// Every metric and workload `BENCHMARK.json` names is printed, with
/// its unit, and nothing else is — in both kinds of run.
#[test]
fn every_listed_metric_is_printed_and_vice_versa() {
    let spec = spec();
    for w in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run("names", w, 1, trace);
            let keys: Vec<&str> = r
                .line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.line.get("correct"), Some(&Value::Bool(true)), "{w}");
            assert_eq!(r.line.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(
                r.line
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let printed: Vec<(String, String)> = r
                .line
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics")
                .iter()
                .map(|(k, m)| {
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{w} {k}");
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, names(&spec, section), "{w} trace={trace}");
            // The same names, one per line, for a person.
            for (name, unit) in &printed {
                assert!(
                    r.stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{w} {name} = "))
                            && l.contains(unit.as_str())),
                    "{w}: no line for {name}"
                );
            }
            if !trace {
                for (name, _) in &printed {
                    assert!(value(&r, name) > 0.0, "{w} {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn spans_are_well_formed() {
    for w in WORKLOADS {
        let r = run("spans", w, 1, true);
        let text =
            std::fs::read_to_string(r.out_dir.join(format!("spans.{w}.json"))).expect("spans file");
        let spans = json::parse(&text).expect("spans parse");
        let spans = spans.as_arr().expect("array");
        assert!(spans.len() > 10, "{w}: {} spans", spans.len());
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).expect("number");
        let mut child_cover = vec![0.0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(num(s, "id"), i as f64, "ids are dense");
            assert_eq!(s.get("workload").and_then(Value::as_str), Some(w));
            assert!(num(s, "t1_ns") >= num(s, "t0_ns"));
            assert!(is_name(
                s.get("layer").and_then(Value::as_str).expect("layer")
            ));
            match s.get("parent") {
                Some(Value::Null) => {}
                Some(p) => {
                    let p = p.as_f64().expect("parent id") as usize;
                    assert!(p < i, "{w}: span {i} starts before its parent exists");
                    assert!(
                        num(&spans[p], "t0_ns") <= num(s, "t0_ns"),
                        "child inside parent"
                    );
                    assert!(
                        num(&spans[p], "t1_ns") >= num(s, "t1_ns"),
                        "child inside parent"
                    );
                    child_cover[p] += num(s, "t1_ns") - num(s, "t0_ns");
                }
                None => panic!("span without a parent field"),
            }
        }
        for (s, cover) in spans.iter().zip(&child_cover) {
            assert!(
                num(s, "t1_ns") - num(s, "t0_ns") >= *cover,
                "{w}: self time of span {} is negative",
                num(s, "id")
            );
        }
        // One probe tree per layer that has probes, and the pass spans.
        for want in ["pass", "probe:mpsim", "probe:collectives"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some(want)),
                "{w}: no {want} span"
            );
        }
    }
}

/// The simulated statistics are a pure function of the seed.
#[test]
fn same_seed_repeats_bit_for_bit_and_another_seed_differs() {
    let exact_trace = [
        "tensor.flops",
        "mpsim.envelopes",
        "mpsim.words",
        "mpsim.timeouts",
        "mpsim.retries",
        "mpsim.dropped",
        "collectives.calls_allreduce",
        "collectives.calls_allgather",
        "collectives.calls_iallreduce",
        "collectives.calls_iallgather",
        "collectives.exposed_wait",
        "collectives.overlap_fraction",
        "distmm.halo_words",
        "distmm.virt_comm_ratio",
        "core.virt_compute",
        "core.virt_comm",
        "core.eq_residual",
        "core.eq8_ratio_min",
        "core.eq8_ratio_max",
        "core.recoveries",
        "core.rollbacks",
        "core.recovery_virt",
    ];
    let digest = |r: &Run| {
        r.file
            .get("loss_digest")
            .and_then(Value::as_str)
            .expect("digest")
            .to_string()
    };
    let extra = |r: &Run, k: &str| {
        r.file
            .get("extras")
            .and_then(|e| e.get(k))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("extra")
    };
    for w in WORKLOADS {
        let (a, b) = (run("det-a", w, 7, false), run("det-b", w, 7, false));
        assert_eq!(
            value(&a, "virt_makespan").to_bits(),
            value(&b, "virt_makespan").to_bits(),
            "{w}"
        );
        for k in ["eq_residual", "overlap_fraction", "fail_share"] {
            assert_eq!(extra(&a, k).to_bits(), extra(&b, k).to_bits(), "{w} {k}");
        }
        assert_eq!(digest(&a), digest(&b), "{w}");

        let (ta, tb) = (run("det-a", w, 7, true), run("det-b", w, 7, true));
        for k in exact_trace {
            assert_eq!(value(&ta, k).to_bits(), value(&tb, k).to_bits(), "{w} {k}");
        }

        // Another seed: other inputs, and every check still passes
        // (`run` asserts the exit code).
        let c = run("det-c", w, 8, false);
        assert_ne!(
            digest(&a),
            digest(&c),
            "{w}: seed does not reach the inputs"
        );
        assert_eq!(c.line.get("correct"), Some(&Value::Bool(true)));
    }
}

#[test]
fn compare_flags_an_exact_metric_that_moved() {
    let a = run("cmp", "scale_square", 3, false);
    let path_a = a.out_dir.join("scale_square.e2e.json");
    let same = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("compare")
        .arg(&path_a)
        .arg(&path_a)
        .output()
        .expect("compare runs");
    assert!(same.status.success());
    let table = String::from_utf8_lossy(&same.stdout).to_string();
    assert!(table.contains("0 regressed"), "{table}");

    // A later makespan is a regression however small.
    let text = std::fs::read_to_string(&path_a).expect("result file");
    let makespan = value(&a, "virt_makespan");
    let worse = text.replace(&makespan.to_string(), &(makespan * 1.000001).to_string());
    assert_ne!(text, worse);
    let path_b = a.out_dir.join("scale_square.worse.json");
    std::fs::write(&path_b, worse).expect("write");
    let moved = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("compare")
        .arg(&path_a)
        .arg(&path_b)
        .output()
        .expect("compare runs");
    assert!(!moved.status.success(), "a regressed row fails the command");
    assert!(String::from_utf8_lossy(&moved.stdout).contains("regressed (exact"));
}

#[test]
fn unknown_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--sead", "1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
