//! The RCT benchmark's command line.
//!
//! ```text
//! rctbench --workload <rct_primary|rct_bba|rct_insitu> [--seed N] [--seconds S]
//!          [--trace 0|1] [--size full|tiny]
//! rctbench compare <old result.json> <new result.json>
//! ```
//!
//! A run prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  It
//! exits 1 if the correctness gate fails.

use rctbench::json;
use rctbench::layers::{layer_stats, write_spans, Layer, NoClock};
use rctbench::metrics::{self, median, metrics_json, number};
use rctbench::sys::{cpu_time_s, now, nproc, peak_rss_mb, Machine};
use rctbench::traced::{traced_pass, Traced};
use rctbench::workload::{self, Setup, Size, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "usage: rctbench --workload <rct_primary|rct_bba|rct_insitu> [--seed N] \
                     [--seconds S] [--trace 0|1] [--size full|tiny]\n       \
                     rctbench compare <old result.json> <new result.json>";

/// Untraced repetitions measured at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Golden result fingerprints for `DEFAULT_SEED` at full size.
const EXPECTED: &str = include_str!("../expected.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Primary,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            "--size" => {
                args.size = Size::parse(value).ok_or_else(|| format!("unknown size {value}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One untraced repetition of the workload.
struct Rep {
    hours: f64,
    wall_s: f64,
    cpu_s: f64,
    analysis_s: f64,
    retrain_s: Option<f64>,
    archive_bytes: Option<u64>,
    fingerprint: u64,
    problems: Vec<String>,
    sessions: usize,
    failed: usize,
}

/// Run the workload through `run_rct` with tracing off, then its tail.
fn untraced_rep(a: &Args, setup: &Setup, out_dir: &Path, index: usize) -> std::io::Result<Rep> {
    let archive = a
        .workload
        .in_situ()
        .then(|| workload::archive_dir(out_dir, a.workload, &format!("rep{index}")));
    let cfg = workload::experiment_config(a.workload, a.size, a.seed, archive.clone());
    let schemes = setup.schemes.clone();
    let cpu0 = cpu_time_s();
    let t0 = now();
    let result = puffer_platform::run_rct(schemes, &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_time_s() - cpu0;
    let tail = workload::run_tail(a.workload, &result, a.seed, &mut NoClock)?;
    let problems = workload::check(a.workload, &cfg, &result, &tail);
    let fingerprint = workload::fingerprint(&result, &tail)?;
    if let Some(dir) = archive {
        std::fs::remove_dir_all(dir)?;
    }
    let quarantined: usize = result.arms.iter().map(|arm| arm.consort.quarantined).sum();
    Ok(Rep {
        hours: workload::stream_hours(&result),
        wall_s,
        cpu_s,
        analysis_s: tail.analysis_s,
        retrain_s: tail.retrain_s,
        archive_bytes: tail.archive_bytes,
        fingerprint,
        problems,
        sessions: result.total_sessions,
        failed: quarantined + result.incidents.len(),
    })
}

/// The recorded golden fingerprint of `w` for the default seed.
fn expected_fingerprint(w: Workload) -> Option<String> {
    let doc = json::parse(EXPECTED).expect("expected.json is valid JSON");
    doc.get("fingerprints")?.get(w.name())?.as_str().map(str::to_string)
}

fn hex(x: u64) -> String {
    format!("{x:#018x}")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        exit(compare(&argv[1..]));
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("rctbench: {e}\n{USAGE}");
        exit(2)
    });
    match run(&args) {
        Ok(correct) => exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("rctbench: {e}");
            exit(1)
        }
    }
}

fn run(a: &Args) -> std::io::Result<bool> {
    let w = a.workload;
    let machine = Machine::detect();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)?;
    println!(
        "rctbench workload={} seed={} size={} seconds={} trace={}",
        w.name(),
        a.seed,
        a.size.name(),
        a.seconds,
        u8::from(a.trace)
    );
    println!("machine: {}", machine.to_json());

    // Set-up, repeated so its median is steady; every repetition does the
    // same work (set-up ignores `--seed`).
    let setup_reps = match (a.size, w) {
        (Size::Tiny, _) => 1,
        (Size::Full, Workload::Bba) => 9,
        (Size::Full, _) => 3,
    };
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..setup_reps {
        let t0 = now();
        setup = Some(workload::setup(w, a.size));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let shape = workload::shape(w, a.size);
    let arm_names: Vec<&str> =
        setup.schemes.iter().map(puffer_platform::SchemeSpec::name).collect();
    println!(
        "workload: arms [{}]; {} day(s) x {} sessions per repetition; {} worker threads",
        arm_names.join(", "),
        shape.days,
        shape.sessions_per_day,
        nproc()
    );

    // Untraced pass: whole repetitions until the time budget is spent.
    let budget = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let started = now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < budget {
        reps.push(untraced_rep(a, &setup, &out_dir, reps.len())?);
    }

    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.iter().cloned()).collect();
    let fp = reps[0].fingerprint;
    if reps.iter().any(|r| r.fingerprint != fp) {
        problems.push("result fingerprint differs between repetitions".into());
    }
    let expected = expected_fingerprint(w);
    let golden_applies = a.seed == DEFAULT_SEED && a.size == Size::Full;
    if golden_applies && expected.as_deref() != Some(hex(fp).as_str()) {
        problems.push(format!(
            "fingerprint {} != recorded {:?} for seed {DEFAULT_SEED}",
            hex(fp),
            expected
        ));
    }
    println!(
        "result fingerprint: {}{}",
        hex(fp),
        if golden_applies {
            format!(
                " (recorded for seed {DEFAULT_SEED}: {})",
                expected.as_deref().unwrap_or("none")
            )
        } else {
            String::new()
        }
    );

    let per = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let workers = nproc() as f64;
    let rate = per(&|r| r.hours / r.wall_s);
    let rate_cpu = per(&|r| r.hours / r.cpu_s);
    let busy_frac = per(&|r| r.cpu_s / (r.wall_s * workers));
    let retrain_s = reps[0].retrain_s.map(|_| per(&|r| r.retrain_s.unwrap_or(f64::NAN)));
    let bytes_per_hour = reps[0].archive_bytes.map(|b| b as f64 / reps[0].hours);
    let attempted: usize = reps.iter().map(|r| r.sessions).sum();
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    let e2e: Vec<(String, f64, &str)> = vec![
        ("stream_hours_per_s".into(), rate, "h/s"),
        ("stream_hours_per_cpu_s".into(), rate_cpu, "h/cpu-s"),
        ("setup_s".into(), median(&setup_times), "s"),
    ];
    debug_assert!(e2e.iter().map(|m| m.0.as_str()).eq(metrics::END_TO_END.iter().map(|m| m.0)));
    // End-to-end metrics without a bound; `None` where the workload has no
    // retrain or archive.  The peak is read before any traced pass.
    let tail: [(&str, Option<f64>, &str); 4] = [
        ("peak_rss_mb", Some(peak_rss_mb()), "MiB"),
        ("retrain_s", retrain_s, "s"),
        ("analysis_s", Some(per(&|r| r.analysis_s)), "s"),
        ("archive_bytes_per_stream_hour", bytes_per_hour, "B/h"),
    ];

    let rates: Vec<String> = reps.iter().map(|r| format!("{:.2}", r.hours / r.wall_s)).collect();
    println!(
        "repetitions: {} untraced, {:.1} stream-hours each, stream-hours/s [{}]",
        reps.len(),
        reps[0].hours,
        rates.join(", ")
    );
    println!("end-to-end metrics (tracing off):");
    for (name, v, unit) in &e2e {
        println!("  {name:<32} {v:>14.6} {unit}");
    }
    for (name, v, unit) in &tail {
        println!("  {name:<32} {:>14} {unit}", v.map_or("N/A".to_string(), |v| format!("{v:.6}")));
    }
    println!(
        "  {:<32} {:>14.6} frac ({failed} failed of {attempted} sessions attempted)",
        "session_fail_frac",
        failed as f64 / attempted as f64
    );

    let mut layer_metrics: Vec<(String, f64, &str)> = Vec::new();
    if a.trace {
        let t = traced_pass(w, a.size, a.seed, &setup, &out_dir)?;
        problems.extend(t.problems.iter().cloned());
        let cfg = workload::experiment_config(w, a.size, a.seed, None);
        problems.extend(
            workload::check(w, &cfg, &t.result, &t.tail)
                .into_iter()
                .map(|p| format!("traced: {p}")),
        );
        let traced_fp = workload::fingerprint(&t.result, &t.tail)?;
        if traced_fp != fp {
            problems.push(format!("traced fingerprint {} != untraced {}", hex(traced_fp), hex(fp)));
        }
        if let Some(dir) = t.result.archive_paths.first().and_then(|p| p.parent()) {
            std::fs::remove_dir_all(dir)?;
        }
        layer_metrics = layer_report(&t, rate, busy_frac);
        layer_metrics.extend(tail.iter().map(|&(n, v, u)| (n.to_string(), v.unwrap_or(0.0), u)));
        debug_assert!(layer_metrics
            .iter()
            .map(|m| &m.0)
            .eq(metrics::per_layer().iter().map(|m| &m.0)));
        let spans_path = out_dir.join(format!("spans_{}.csv", w.name()));
        write_spans(&spans_path, &t.spans)?;
        println!(
            "traced pass: {:.3} s RCT + tail {:.3} s; {} spans written to {}; Fugu split checked on {} decisions",
            t.rct_wall_s,
            t.pass_wall_s - t.rct_wall_s,
            t.spans.len(),
            spans_path.display(),
            t.split_checks
        );
        println!("per-layer metrics (traced pass):");
        for (name, v, unit) in &layer_metrics {
            println!("  {name:<40} {v:>16.6} {unit}");
        }
    }

    let correct = problems.is_empty();
    for p in &problems {
        println!("CORRECTNESS FAILURE: {p}");
    }
    let shown = if a.trace { &layer_metrics } else { &e2e };
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"size\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \
         \"fingerprint\": {}, \"repetitions\": {}, \"correct\": {correct}, \"problems\": [{}], \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}\n",
        json::quote(w.name()),
        a.seed,
        json::quote(a.size.name()),
        number(a.seconds),
        u8::from(a.trace),
        machine.to_json(),
        json::quote(&hex(fp)),
        reps.len(),
        problems.iter().map(|p| json::quote(p)).collect::<Vec<_>>().join(", "),
        metrics_json(&e2e.iter().chain(&layer_metrics).cloned().collect::<Vec<_>>())
    );
    let record_path =
        out_dir.join(format!("result_{}_seed{}_trace{}.json", w.name(), a.seed, u8::from(a.trace)));
    std::fs::write(&record_path, record)?;
    println!("record: {}", record_path.display());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(shown)
    );
    Ok(correct)
}

/// The traced pass's share of the `--trace 1` metrics: every reported
/// layer's calls, busy time and self-time percentiles, plus the counters and
/// ratios around them.
fn layer_report(
    t: &Traced,
    untraced_rate: f64,
    busy_frac: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    let mut worker_busy = 0.0;
    let mut main_busy = 0.0;
    for layer in Layer::REPORTED.into_iter().chain([Layer::AbrCallback]) {
        let s = layer_stats(&t.spans, layer);
        if layer.on_workers() {
            worker_busy += s.busy_s;
        } else {
            main_busy += s.busy_s;
        }
        if layer == Layer::AbrCallback {
            continue;
        }
        let n = layer.name();
        out.push((format!("{n}.calls"), s.calls as f64, "count"));
        out.push((format!("{n}.busy_s"), s.busy_s, "s"));
        out.push((format!("{n}.p50_us"), s.p50_us, "us"));
        out.push((format!("{n}.p99_us"), s.p99_us, "us"));
    }
    // Share of the traced pass's wall time the layers' self times cover:
    // worker layers run on `workers` threads at once.
    let coverage = (worker_busy / t.workers as f64 + main_busy) / t.pass_wall_s;
    let traced_rate = workload::stream_hours(&t.result) / t.rct_wall_s;
    out.push(("core.ttp.rows".into(), t.ttp_rows as f64, "count"));
    out.push(("core.training.samples".into(), t.train_samples as f64, "count"));
    out.push(("platform.archive.bytes".into(), t.archive_bytes as f64, "bytes"));
    out.push(("platform.experiment.busy_frac".into(), busy_frac, "frac"));
    out.push(("bench.trace.coverage".into(), coverage, "frac"));
    out.push(("bench.trace.overhead".into(), untraced_rate / traced_rate - 1.0, "frac"));
    out
}

/// Compare two result records metric by metric; refuse when their machine
/// fingerprints, workloads or sizes differ.
fn compare(paths: &[String]) -> i32 {
    let [old, new] = paths else {
        eprintln!("{USAGE}");
        return 2;
    };
    let load = |p: &str| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("rctbench compare: {e}");
            return 2;
        }
    };
    for key in ["machine", "workload", "size"] {
        if a.get(key) != b.get(key) {
            eprintln!(
                "rctbench compare: refusing to compare results with different {key}:\n  {old}: {:?}\n  {new}: {:?}",
                a.get(key),
                b.get(key)
            );
            return 3;
        }
    }
    let (Some(ma), Some(mb)) = (a.get("metrics").and_then(json::Json::as_object), b.get("metrics"))
    else {
        eprintln!("rctbench compare: records carry no metrics");
        return 2;
    };
    println!("{:<44} {:>14} {:>14} {:>8}", "metric", "old", "new", "new/old");
    for (name, va) in ma {
        let x = va.get("value").and_then(json::Json::as_f64);
        let y = mb.get(name).and_then(|v| v.get("value")).and_then(json::Json::as_f64);
        let unit = va.get("unit").and_then(json::Json::as_str).unwrap_or("");
        if let (Some(x), Some(y)) = (x, y) {
            let ratio = if x != 0.0 { format!("{:.3}", y / x) } else { "-".into() };
            println!("{name:<44} {x:>14.6} {y:>14.6} {ratio:>8} {unit}");
        }
    }
    0
}
