//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload (what the driver runs)
//! benchmark [--seed N] [--seconds S] [--trace]              all five, one child process each
//! benchmark compare A.json B.json                           B against A by BENCHMARK.json's bounds
//! benchmark --bless [--seed N]                              regenerate golden.json entries
//! ```
//!
//! `--smoke` selects the self-test sizing and `--out DIR` moves the
//! result files (default `benchmark/out/`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use benchmark::harness::{self, Metric, Opts, Outcome};
use benchmark::json::{self, Value};
use benchmark::workloads::scale::Scale;
use benchmark::workloads::WORKLOADS;
use benchmark::{compare, provenance};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
        bless: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                let v = value("a u64")?;
                a.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            // The driver passes 0 or 1; a bare `--trace` means 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// `{name: {value, unit}}`; the result files also keep the quartiles
/// and sample count of a median, the driver's line must not.
fn metrics_json(ms: &[Metric], with_spread: bool) -> Value {
    let one = |m: &Metric| {
        let mut kv = vec![
            ("value", Value::Num(m.value)),
            ("unit", Value::str(m.unit.as_str())),
        ];
        if let (true, Some((q1, q3, n))) = (with_spread, m.spread) {
            kv.extend([
                ("q1", q1.into()),
                ("q3", q3.into()),
                ("n", (n as u64).into()),
            ]);
        }
        Value::obj(kv)
    };
    Value::Obj(ms.iter().map(|m| (m.name.clone(), one(m))).collect())
}

fn mode_name(trace: bool) -> &'static str {
    if trace {
        "trace"
    } else {
        "e2e"
    }
}

/// One workload in this process: prints every metric by name with its
/// unit, writes the result file, and ends with the driver's JSON line.
fn run_one(a: &Args, workload: &str) -> Result<bool, String> {
    let opts = Opts {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
    };
    let Outcome {
        attempted,
        failures,
        metrics,
        extras,
        sizes,
        passes,
        loss_digest,
        wall_samples,
        ref_samples,
    } = harness::run(&opts, &a.out)?;

    println!(
        "# {workload} seed={} {sizes} ({passes} passes) loss_digest={loss_digest:016x}",
        a.seed
    );
    for m in metrics.iter().chain(&extras) {
        let spread = m.spread.map_or(String::new(), |(q1, q3, n)| {
            format!("  [q1 {q1:.6} q3 {q3:.6} n {n}]")
        });
        println!("{workload} {} = {} {}{spread}", m.name, m.value, m.unit);
    }
    for f in &failures {
        println!("FAILED {workload}: {f}");
    }

    let file = Value::obj(vec![
        ("workload", Value::str(workload)),
        ("mode", Value::str(mode_name(a.trace))),
        (
            "provenance",
            provenance::collect(a.seed, a.smoke, a.seconds),
        ),
        ("sizes", Value::str(sizes)),
        ("passes", (passes as u64).into()),
        ("loss_digest", Value::str(format!("{loss_digest:016x}"))),
        (
            "wall_samples",
            Value::Arr(wall_samples.iter().map(|&s| s.into()).collect()),
        ),
        (
            "ref_samples",
            Value::Arr(ref_samples.iter().map(|&s| s.into()).collect()),
        ),
        ("attempted", attempted.into()),
        ("failed", (failures.len() as u64).into()),
        (
            "failures",
            Value::Arr(failures.iter().map(|f| Value::str(f.as_str())).collect()),
        ),
        ("metrics", metrics_json(&metrics, true)),
        ("extras", metrics_json(&extras, true)),
    ]);
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let path = a
        .out
        .join(format!("{workload}.{}.json", mode_name(a.trace)));
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    // The driver reads exactly these keys from the last line.
    let line = Value::obj(vec![
        ("correct", failures.is_empty().into()),
        ("attempted", attempted.into()),
        ("failed", (failures.len() as u64).into()),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    println!("{line}");
    Ok(failures.is_empty())
}

/// All five workloads, each in a child process of its own (so
/// `peak_rss_mb` is the workload's and nothing carries over), one
/// after another, then one combined result file.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut set = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out);
        if a.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child to end.
        let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
        ok &= status.success();
        let path = a.out.join(format!("{w}.{}.json", mode_name(a.trace)));
        if let Ok(text) = std::fs::read_to_string(&path) {
            set.push((w.to_string(), json::parse(&text)?));
        }
    }
    let combined = Value::obj(vec![
        ("mode", Value::str(mode_name(a.trace))),
        (
            "provenance",
            provenance::collect(a.seed, a.smoke, a.seconds),
        ),
        ("workloads", Value::Obj(set)),
    ]);
    let path = a.out.join(format!("result.{}.json", mode_name(a.trace)));
    std::fs::write(&path, combined.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}

/// Adds this seed's skeleton checksums and makespans to golden.json.
fn bless(a: &Args) -> Result<bool, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Value::Obj(mut golden) = json::parse(&text)? else {
        return Err("golden.json is not an object".to_string());
    };
    for smoke in [false, true] {
        for flat in [false, true] {
            let (key, entry) = Scale::setup(a.seed, smoke, flat).bless();
            golden.retain(|(k, _)| *k != key);
            println!("blessed {key}");
            golden.push((key, entry));
        }
    }
    golden.sort_by(|x, y| x.0.cmp(&y.0));
    std::fs::write(&path, Value::Obj(golden).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => std::fs::read_to_string(a)
                .and_then(|ta| Ok((ta, std::fs::read_to_string(b)?)))
                .map_err(|e| format!("compare: {e}"))
                .and_then(|(ta, tb)| compare::compare(&ta, &tb))
                .map(|(regressed, _)| regressed == 0),
            _ => Err("usage: compare A.json B.json".to_string()),
        }
    } else {
        parse(&args).and_then(|a| match &a.workload {
            _ if a.bless => bless(&a),
            Some(w) => run_one(&a, w),
            None => run_all(&a),
        })
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
