//! `puffer` — command-line interface to the reproduction.
//!
//! Subcommands:
//!
//! * `simulate`       — stream one video over a sampled path with a scheme
//! * `train-ttp`      — train a TTP variant on the day archives of a run
//! * `run-rct`        — run a randomized controlled trial, print the table
//! * `archive` — run one RCT day of BBA sessions and write its Appendix-B
//!   daily archive (CSV, compacted `.puf` binary, or both)
//! * `archive-export` — stream a `.puf` archive back out as the three CSVs
//! * `archive-stats` — one bounded-memory pass over a `.puf`: row counts,
//!   bytes/row, and the equivalent CSV size
//! * `power-analysis` — the §3.4 CI-width-vs-N experiment at paper scale,
//!   out-of-core over a generated `.puf` archive
//!
//! Every subcommand takes `--seed N`; runs are bit-reproducible.

use puffer_repro::fugu::{checkpoint, TrainConfig, TtpVariant};
use puffer_repro::media::VideoSource;
use puffer_repro::net::{CongestionControl, Connection};
use puffer_repro::platform::experiment::{run_rct, train_ttp_on};
use puffer_repro::platform::telemetry::{
    write_client_buffer_row, write_video_acked_row, write_video_sent_row, BufferEvent,
    ClientBuffer, CLIENT_BUFFER_CSV_HEADER, VIDEO_ACKED_CSV_HEADER, VIDEO_SENT_CSV_HEADER,
};
use puffer_repro::platform::user::StreamIntent;
use puffer_repro::platform::{
    export_csv, read_dataset, run_stream, ArchiveReader, ArchiveWriter, ExperimentConfig,
    FaultPlan, SchemeSpec, StreamClock, StreamConfig, UserModel,
};
use puffer_repro::stats::{bootstrap_ratio_ci, PowerCurve, Reservoir, SchemeSummary};
use puffer_repro::trace::TraceBank;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: puffer <command> [options]\n\
         \n\
         commands:\n\
           simulate        --scheme <bba|bola|mpc|robustmpc> [--seconds N] [--seed N]\n\
           train-ttp       --data <dir> --out <file> [--variant full|linear|no-tcp-info|throughput] [--seed N]\n\
           run-rct         [--schemes bba,bola,mpc,robustmpc] [--sessions N] [--days N]\n\
                           [--paired] [--emulation] [--fugu <ttp-checkpoint>] [--archive <dir>]\n\
                           [--fault-rate R] [--seed N]\n\
           archive         --out <dir> [--format csv|puf|both] [--sessions N] [--seed N]\n\
           archive-export  --in <file.puf> --out <dir> [--day N]\n\
           archive-stats   --in <file.puf>\n\
           power-analysis  --out <dir> [--cuts 5000,50000,500000] [--improvement 0.15]\n\
                           [--boot N] [--sessions N] [--days N] [--seed N]\n"
    );
    std::process::exit(2);
}

/// Minimal flag parser: `--key value` pairs plus boolean flags.
fn parse_flags(args: &[String], booleans: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        if booleans.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
        } else if let Some(v) = args.get(i + 1) {
            out.insert(key.to_string(), v.clone());
            i += 2;
        } else {
            return Err(format!("flag --{key} needs a value"));
        }
    }
    Ok(out)
}

/// The parsed value of `--key`, or `default` when the flag is absent.  A
/// value that does not parse is an error naming the flag, never a silent
/// fallback to the default (`--sessions 1O` must not run 100 sessions).
fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
    }
}

/// [`flag`] for a value that must also pass `ok`: a value outside that
/// range is an error naming the flag and what it `must` be.  The
/// subcommands check every range right after parsing, so `--sessions 0`
/// exits 2 before any work instead of panicking in a library assert.
fn flag_in<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
    ok: impl FnOnce(&T) -> bool,
    must: &str,
) -> Result<T, String> {
    let v = flag(flags, key, default)?;
    if ok(&v) {
        return Ok(v);
    }
    let raw = flags.get(key).map_or("", String::as_str);
    Err(format!("invalid value '{raw}' for --{key}: must be {must}"))
}

/// [`flag_in`] for the subcommands: a bad value prints the error and exits 2.
fn get_in<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
    ok: impl FnOnce(&T) -> bool,
    must: &str,
) -> T {
    flag_in(flags, key, default, ok, must).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`get_in`] for a flag whose every parsed value is in range.
fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    get_in(flags, key, default, |_| true, "")
}

/// `--sessions` and `--days`: the RCT needs at least one of each.
fn sessions_and_days(flags: &BTreeMap<String, String>, sessions: usize, days: u32) -> (usize, u32) {
    (
        get_in(flags, "sessions", sessions, |&n| n > 0, "at least 1"),
        get_in(flags, "days", days, |&n| n > 0, "at least 1"),
    )
}

/// `--cuts`: comma-separated per-arm stream-hours.
struct Cuts(Vec<f64>);

impl std::str::FromStr for Cuts {
    type Err = std::num::ParseFloatError;

    fn from_str(s: &str) -> Result<Cuts, Self::Err> {
        s.split(',').map(|c| c.trim().parse()).collect::<Result<_, _>>().map(Cuts)
    }
}

fn scheme_by_name(name: &str) -> Option<SchemeSpec> {
    match name {
        "bba" => Some(SchemeSpec::Bba),
        "bola" => Some(SchemeSpec::Bola),
        "mpc" => Some(SchemeSpec::MpcHm),
        "robustmpc" => Some(SchemeSpec::RobustMpcHm),
        _ => None,
    }
}

fn cmd_simulate(flags: BTreeMap<String, String>) -> ExitCode {
    let seed: u64 = get(&flags, "seed", 1);
    let user = UserModel { zap_prob: 0.0, ..UserModel::default() };
    let seconds: f64 = get_in(
        &flags,
        "seconds",
        180.0,
        |&s| s > 0.0 && s <= user.intent_cap,
        &format!("in (0, {}] (the user model's intent cap)", user.intent_cap),
    );
    let scheme = flags.get("scheme").map(String::as_str).unwrap_or("bba");
    let Some(spec) = scheme_by_name(scheme) else {
        eprintln!("unknown scheme '{scheme}'");
        return ExitCode::from(2);
    };
    let mut abr = spec.instantiate();

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let bank = TraceBank::puffer();
    let (path, trace) = bank.sample_session(seconds * 1.3 + 60.0, &mut rng);
    let mut conn = Connection::over_path(&path, trace, CongestionControl::Bbr);
    let mut source = VideoSource::puffer_default();
    let out = run_stream(
        &mut conn,
        &mut source,
        abr.as_mut(),
        &user,
        StreamClock::starting(StreamIntent::Watch(seconds)),
        &StreamConfig::default(),
        &mut rng,
    );
    println!(
        "path: {} ({:.1} Mbit/s nominal, {:.0} ms RTT)",
        path.class.name(),
        path.base_rate * 8.0 / 1e6,
        path.min_rtt * 1000.0
    );
    match out.summary {
        Some(s) => {
            println!("scheme: {}", abr.name());
            println!("chunks: {}   startup: {:.2} s", s.chunks, s.startup_delay);
            println!(
                "stalled: {:.2} s / {:.1} s watched ({:.3}%)",
                s.stall_time,
                s.watch_time,
                100.0 * s.stall_ratio()
            );
            println!(
                "mean SSIM: {:.2} dB   variation: {:.2} dB   bitrate: {:.2} Mbit/s",
                s.mean_ssim_db,
                s.ssim_variation_db,
                s.mean_bitrate() / 1e6
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("stream never began playing");
            ExitCode::FAILURE
        }
    }
}

/// Train a fresh TTP on the day archives (`telemetry_day<d>.puf`) that
/// `run-rct --archive <dir>` wrote to `--data <dir>`, read back through
/// [`read_dataset`].  No archive, an archive that does not read, or no
/// observation in them is exit 1, and no checkpoint is written.
fn cmd_train_ttp(flags: BTreeMap<String, String>) -> ExitCode {
    let (Some(data_dir), Some(out_path)) = (flags.get("data"), flags.get("out")) else {
        eprintln!("train-ttp needs --data <dir> and --out <file>");
        return ExitCode::from(2);
    };
    let variant = match flags.get("variant").map(String::as_str).unwrap_or("full") {
        "full" => TtpVariant::Full,
        "linear" => TtpVariant::Linear,
        "no-tcp-info" => TtpVariant::NoTcpInfo,
        "throughput" => TtpVariant::ThroughputPredictor,
        other => {
            eprintln!("unknown variant '{other}'");
            return ExitCode::from(2);
        }
    };
    let archives = match day_archives(Path::new(data_dir)) {
        Ok(paths) if paths.is_empty() => {
            eprintln!("no day archive (telemetry_day<d>.puf) in {data_dir}");
            return ExitCode::FAILURE;
        }
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("cannot list {data_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let data = match read_dataset(&archives) {
        Ok(d) if d.n_observations() == 0 => {
            eprintln!("the day archives in {data_dir} hold no training observation");
            return ExitCode::FAILURE;
        }
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read the day archives in {data_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("training {variant:?} on {} observations ...", data.n_observations());
    let ttp = train_ttp_on(variant, &data, &TrainConfig::default(), get(&flags, "seed", 1));
    if let Err(e) = checkpoint::save_to_file(&ttp, std::path::Path::new(out_path)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote TTP checkpoint to {out_path}");
    ExitCode::SUCCESS
}

/// The day archives in `dir`, by name.
fn day_archives(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("telemetry_day") && name.ends_with(".puf") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

fn cmd_run_rct(flags: BTreeMap<String, String>) -> ExitCode {
    let seed = get(&flags, "seed", 1);
    let (sessions_per_day, days) = sessions_and_days(&flags, 100, 2);
    let fault_rate: f64 =
        get_in(&flags, "fault-rate", 0.0, |r| (0.0..=1.0).contains(r), "in [0, 1]");
    let mut schemes: Vec<SchemeSpec> = Vec::new();
    for name in flags.get("schemes").map(String::as_str).unwrap_or("bba,mpc,robustmpc").split(',') {
        match scheme_by_name(name.trim()) {
            Some(s) => schemes.push(s),
            None => {
                eprintln!("unknown scheme '{name}'");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(ckpt) = flags.get("fugu") {
        match std::fs::read_to_string(ckpt)
            .map_err(|e| e.to_string())
            .and_then(|t| checkpoint::load_from_str(&t).map_err(|e| e.to_string()))
        {
            Ok(ttp) => schemes.push(SchemeSpec::fugu(ttp)),
            Err(e) => {
                eprintln!("cannot load TTP checkpoint {ckpt}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut cfg = ExperimentConfig {
        seed,
        sessions_per_day,
        days,
        emulation_world: flags.contains_key("emulation"),
        paired: flags.contains_key("paired"),
        archive_sink: flags.get("archive").map(PathBuf::from),
        ..ExperimentConfig::default()
    };
    if fault_rate > 0.0 {
        cfg.faults =
            FaultPlan::seeded(cfg.seed, cfg.days, cfg.sessions_per_day, schemes.len(), fault_rate);
    }
    eprintln!(
        "running RCT: {} arms, {} sessions/day x {} days{} ...",
        schemes.len(),
        cfg.sessions_per_day,
        cfg.days,
        if cfg.paired { " (paired)" } else { "" }
    );
    let result = run_rct(schemes, &cfg);
    println!(
        "{:<14} {:>9} {:>22} {:>10} {:>12}",
        "scheme", "streams", "stall % [95% CI]", "SSIM dB", "bitrate Mb/s"
    );
    for arm in &result.arms {
        if arm.streams.is_empty() {
            continue;
        }
        let agg = SchemeSummary::from_streams(&arm.streams);
        let pairs: Vec<(f64, f64)> =
            arm.streams.iter().map(|s| (s.stall_time, s.watch_time)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xc1);
        let ci = bootstrap_ratio_ci(&pairs, 500, 0.95, &mut rng);
        println!(
            "{:<14} {:>9} {:>7.3}% [{:.3},{:.3}] {:>10.2} {:>12.2}",
            arm.name,
            arm.streams.len(),
            100.0 * ci.point,
            100.0 * ci.lo,
            100.0 * ci.hi,
            agg.mean_ssim_db,
            agg.mean_bitrate / 1e6
        );
    }
    for p in &result.archive_paths {
        let bytes = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        println!("archived {} ({bytes} bytes)", p.display());
    }
    if !result.incidents.is_empty() {
        let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
        for i in &result.incidents {
            *by_kind.entry(i.kind.name()).or_default() += 1;
        }
        let summary: Vec<String> = by_kind.iter().map(|(name, n)| format!("{n} {name}")).collect();
        println!("incidents: {} ({})", result.incidents.len(), summary.join(", "));
    }
    ExitCode::SUCCESS
}

/// One day of BBA sessions through [`run_rct`]'s archive sink, then the
/// Appendix-B CSVs exported from its `telemetry_day0.puf`
/// ([`export_csv`]).  `--format csv` keeps only the CSVs, `puf` only the
/// archive.
fn cmd_archive(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(out_dir) = flags.get("out") else {
        eprintln!("archive needs --out <dir>");
        return ExitCode::from(2);
    };
    let format = flags.get("format").map(String::as_str).unwrap_or("csv");
    let (csv, puf) = match format {
        "csv" => (true, false),
        "puf" => (false, true),
        "both" => (true, true),
        _ => {
            eprintln!("unknown format '{format}' (use csv, puf, or both)");
            return ExitCode::from(2);
        }
    };
    let cfg = ExperimentConfig {
        seed: get(&flags, "seed", 1),
        sessions_per_day: get_in(&flags, "sessions", 20, |&n| n > 0, "at least 1"),
        days: 1,
        retrain: None,
        archive_sink: Some(PathBuf::from(out_dir)),
        ..ExperimentConfig::default()
    };
    let result = run_rct(vec![SchemeSpec::Bba], &cfg);
    let Some(archive) = result.archive_paths.first() else {
        eprintln!("archive write failed under {out_dir}");
        return ExitCode::FAILURE;
    };
    let csvs = if csv {
        match export_csv(archive, Path::new(out_dir), 0) {
            Ok(written) => written,
            Err(e) => {
                eprintln!("CSV export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    if !puf {
        if let Err(e) = std::fs::remove_file(archive) {
            eprintln!("cannot remove {}: {e}", archive.display());
            return ExitCode::FAILURE;
        }
    }
    let bytes = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    println!("wrote {} sessions:", result.total_sessions);
    for (path, rows) in &csvs {
        println!("  {} ({rows} rows, {} bytes)", path.display(), bytes(path));
    }
    if puf {
        println!("  {} ({} bytes)", archive.display(), bytes(archive));
    }
    ExitCode::SUCCESS
}

/// Stream a `.puf` archive back out as the three Appendix-B CSVs
/// ([`export_csv`]), without ever materializing the day in memory.
fn cmd_archive_export(flags: BTreeMap<String, String>) -> ExitCode {
    let (Some(in_path), Some(out_dir)) = (flags.get("in"), flags.get("out")) else {
        eprintln!("archive-export needs --in <file.puf> and --out <dir>");
        return ExitCode::from(2);
    };
    let day: u32 = get(&flags, "day", 0);
    match export_csv(Path::new(in_path), Path::new(out_dir), day) {
        Ok(outputs) => {
            for (path, rows) in outputs {
                println!("{} ({rows} rows)", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("export failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A `Write` sink that only counts bytes — used to price the CSV rendering
/// of rows without writing it anywhere.
struct CountingSink(u64);

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One bounded-memory pass over a `.puf` archive: per-measurement row and
/// block counts, sessions (distinct tags), on-disk bytes/row, and the
/// exact byte size the same rows would occupy as CSV.
fn cmd_archive_stats(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(in_path) = flags.get("in") else {
        eprintln!("archive-stats needs --in <file.puf>");
        return ExitCode::from(2);
    };
    let file_bytes = match std::fs::metadata(in_path) {
        Ok(m) => m.len(),
        Err(e) => {
            eprintln!("cannot stat {in_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = || -> std::io::Result<()> {
        let input = std::io::BufReader::new(std::fs::File::open(in_path)?);
        let mut reader = ArchiveReader::new(input)?;
        let mut rows = [0u64; 4];
        let mut blocks = [0u64; 4];
        let mut csv = CountingSink(
            (VIDEO_SENT_CSV_HEADER.len()
                + VIDEO_ACKED_CSV_HEADER.len()
                + CLIENT_BUFFER_CSV_HEADER.len()) as u64,
        );
        let mut tags = 0u64;
        let mut last_tag = None;
        while let Some(block) = reader.next_block()? {
            if last_tag != Some(block.tag) {
                tags += 1;
                last_tag = Some(block.tag);
            }
            let kind = block.kind.expect("decoded blocks always carry a kind");
            let i = kind.code() as usize;
            blocks[i] += 1;
            rows[i] += (block.video_sent.len()
                + block.video_acked.len()
                + block.client_buffer.len()
                + block.incidents.len()) as u64;
            for d in &block.video_sent {
                write_video_sent_row(&mut csv, d)?;
            }
            for d in &block.video_acked {
                write_video_acked_row(&mut csv, d)?;
            }
            for d in &block.client_buffer {
                write_client_buffer_row(&mut csv, d)?;
            }
        }
        let total_rows: u64 = rows.iter().sum();
        println!("{in_path}: {file_bytes} bytes, {total_rows} rows, {tags} sessions");
        for (name, i) in
            [("video_sent", 0), ("video_acked", 1), ("client_buffer", 2), ("incident", 3)]
        {
            if i == 3 && blocks[i] == 0 {
                continue; // incident blocks only exist in faulted runs
            }
            println!("  {name:<14} {:>10} rows in {:>6} blocks", rows[i], blocks[i]);
        }
        if total_rows > 0 {
            println!(
                "  bytes/row: {:.2} (.puf) vs {:.2} (CSV) — {:.2}x compaction",
                file_bytes as f64 / total_rows as f64,
                csv.0 as f64 / total_rows as f64,
                csv.0 as f64 / file_bytes as f64
            );
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("archive-stats failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fold a `.puf` archive's `client_buffer` rows into per-stream
/// `(expt_id, stall, watch)` triples, calling `f` once per stream.  Streams
/// are contiguous runs of one `stream_id`; watch time is last-minus-first
/// report time and stall is the final cumulative rebuffer — all derived
/// from the archive alone, in one bounded-memory pass.
fn fold_streams<F: FnMut(u32, f64, f64)>(path: &Path, mut f: F) -> std::io::Result<u64> {
    let input = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut reader = ArchiveReader::new(input)?;
    let mut current: Option<(u64, u32, f64, f64, f64)> = None; // id, arm, t0, t1, rebuf
    let mut streams = 0u64;
    while let Some(block) = reader.next_block()? {
        for d in &block.client_buffer {
            match current.as_mut() {
                Some((id, _, _, t1, rebuf)) if *id == d.stream_id => {
                    *t1 = d.time;
                    *rebuf = d.cum_rebuf;
                }
                _ => {
                    if let Some((_, arm, t0, t1, rebuf)) = current.take() {
                        streams += 1;
                        f(arm, rebuf, t1 - t0);
                    }
                    current = Some((d.stream_id, d.expt_id, d.time, d.time, d.cum_rebuf));
                }
            }
        }
    }
    if let Some((_, arm, t0, t1, rebuf)) = current {
        streams += 1;
        f(arm, rebuf, t1 - t0);
    }
    Ok(streams)
}

/// The §3.4 power analysis at paper scale, out-of-core end to end:
///
/// 1. run a small real RCT with the `.puf` archive sink to obtain an
///    empirical `(stall, watch)` stream population;
/// 2. resample-expand that population into a synthetic two-arm archive of
///    ≥ the largest requested cut of stream-hours per arm (the treatment
///    arm is the same population — its advantage is applied at analysis
///    time), streamed to disk through [`ArchiveWriter`];
/// 3. read the expanded archive back through [`ArchiveReader`], feeding a
///    [`PowerCurve`] (per-arm Poisson-bootstrap CIs snapshotted at each
///    cut) — peak memory is one block plus the accumulators, regardless
///    of scale.
fn cmd_power_analysis(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(out_dir) = flags.get("out") else {
        eprintln!("power-analysis needs --out <dir>");
        return ExitCode::from(2);
    };
    let seed: u64 = get(&flags, "seed", 1);
    let improvement: f64 =
        get_in(&flags, "improvement", 0.15, |i| (0.0..1.0).contains(i), "in [0, 1)");
    let n_boot: usize = get_in(&flags, "boot", 200, |&n| n >= 10, "at least 10");
    let confidence = 0.95;
    let Cuts(cuts) = get_in(
        &flags,
        "cuts",
        Cuts(vec![5000.0, 50000.0, 500000.0]),
        |Cuts(c)| c[0] > 0.0 && c.windows(2).all(|w| w[0] < w[1]) && c[c.len() - 1].is_finite(),
        "finite positive stream-hours in ascending order",
    );
    let (sessions_per_day, days) = sessions_and_days(&flags, 150, 2);
    let max_cut = cuts[cuts.len() - 1];
    let dir = Path::new(out_dir);

    // Phase 1: a small real RCT, telemetry spilled straight to `.puf`.
    let cfg = ExperimentConfig {
        seed,
        sessions_per_day,
        days,
        retrain: None,
        archive_sink: Some(dir.to_path_buf()),
        ..ExperimentConfig::default()
    };
    eprintln!(
        "phase 1: running {} sessions/day x {} days under BBA for the empirical population ...",
        cfg.sessions_per_day, cfg.days
    );
    let rct = run_rct(vec![SchemeSpec::Bba], &cfg);
    let mut population: Vec<(f64, f64)> = Vec::new();
    for p in &rct.archive_paths {
        let folded = fold_streams(p, |_, stall, watch| {
            if watch >= 4.0 {
                population.push((stall, watch));
            }
        });
        if let Err(e) = folded {
            eprintln!("cannot read {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if population.is_empty() {
        eprintln!("empirical population is empty");
        return ExitCode::FAILURE;
    }
    let mean_watch = population.iter().map(|p| p.1).sum::<f64>() / population.len() as f64;
    eprintln!(
        "phase 1: {} considered streams, mean watch {:.0} s, stall ratio {:.4}%",
        population.len(),
        mean_watch,
        100.0 * population.iter().map(|p| p.0).sum::<f64>()
            / population.iter().map(|p| p.1).sum::<f64>()
    );

    // Phase 2: resample-expand to ≥ max_cut stream-hours per arm, streamed
    // to one `.puf` through the writer (two client_buffer rows per stream:
    // startup and a final report carrying watch and cumulative stall).
    let expanded = dir.join("expanded.puf");
    eprintln!(
        "phase 2: expanding to {:.0} stream-hours/arm into {} ...",
        max_cut,
        expanded.display()
    );
    let gen = || -> std::io::Result<(u64, [f64; 2])> {
        let out = std::io::BufWriter::new(std::fs::File::create(&expanded)?);
        let mut w = ArchiveWriter::new(out)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut hours = [0.0f64; 2];
        let mut i = 0u64;
        while hours[0] < max_cut || hours[1] < max_cut {
            let &(stall, watch) = &population[rng.random_range(0..population.len())];
            let arm = rng.random_range(0..2u32);
            let stream_id = i * 1000;
            w.push(&ClientBuffer {
                time: 0.0,
                stream_id,
                expt_id: arm,
                event: BufferEvent::Startup,
                buffer: 0.0,
                cum_rebuf: 0.0,
            })?;
            w.push(&ClientBuffer {
                time: watch,
                stream_id,
                expt_id: arm,
                event: BufferEvent::Periodic,
                buffer: 0.0,
                cum_rebuf: stall,
            })?;
            hours[arm as usize] += watch / 3600.0;
            i += 1;
        }
        w.finish()?.flush()?;
        Ok((i, hours))
    };
    let (n_streams, hours) = match gen() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("expansion failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = std::fs::metadata(&expanded).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "phase 2: {n_streams} streams, {:.0} + {:.0} stream-hours, {bytes} bytes on disk",
        hours[0], hours[1]
    );

    // Phase 3: one streaming pass over the expanded archive.
    eprintln!("phase 3: streaming CI-width-vs-N pass ({n_boot} bootstrap replicates/arm) ...");
    let mut curve = PowerCurve::new(cuts.clone(), improvement, confidence, n_boot);
    let mut watch_sample = Reservoir::new(4096);
    let mut small_cut_pairs: Vec<(f64, f64)> = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x2545_f491);
    let folded = fold_streams(&expanded, |arm, stall, watch| {
        if curve.points().is_empty() && arm == 0 {
            small_cut_pairs.push((stall, watch));
        }
        curve.push_stream(arm == 1, stall, watch, &mut rng);
        watch_sample.push(watch, &mut rng);
    });
    if let Err(e) = folded {
        eprintln!("cannot read {}: {e}", expanded.display());
        return ExitCode::FAILURE;
    }
    let points = curve.finish();

    println!(
        "{:>14} {:>12} {:>26} {:>26} {:>8} {:>10}",
        "hours/arm",
        "streams/arm",
        "arm A stall% [95% CI]",
        "arm B stall% [95% CI]",
        "±%",
        "separated"
    );
    for p in &points {
        println!(
            "{:>14.0} {:>12} {:>9.4} [{:.4},{:.4}] {:>9.4} [{:.4},{:.4}] {:>7.1}% {:>10}",
            p.hours_per_arm,
            p.streams_per_arm,
            100.0 * p.ci_a.point,
            100.0 * p.ci_a.lo,
            100.0 * p.ci_a.hi,
            100.0 * p.ci_b.point,
            100.0 * p.ci_b.lo,
            100.0 * p.ci_b.hi,
            100.0 * p.ci_a.relative_half_width(),
            if p.separated() { "yes" } else { "no" }
        );
    }
    // Cross-check the one-pass Poisson bootstrap against the classical
    // random-access bootstrap at the smallest cut (where the pairs fit in
    // memory by construction).
    if let Some(first) = points.first() {
        if small_cut_pairs.len() > 1 {
            let classical = bootstrap_ratio_ci(
                &small_cut_pairs,
                n_boot,
                confidence,
                &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xc3),
            );
            println!(
                "cross-check at {:.0} h/arm: poisson ±{:.1}% vs classical ±{:.1}% (point {:.4}% vs {:.4}%)",
                cuts[0],
                100.0 * first.ci_a.relative_half_width(),
                100.0 * classical.relative_half_width(),
                100.0 * first.ci_a.point,
                100.0 * classical.point,
            );
        }
    }
    let mut watches: Vec<f64> = watch_sample.items().to_vec();
    watches.sort_by(|a, b| a.total_cmp(b));
    if !watches.is_empty() {
        println!(
            "watch-time sample (n={}): p50 {:.0} s, p90 {:.0} s, p99 {:.0} s",
            watch_sample.seen(),
            watches[watches.len() / 2],
            watches[watches.len() * 9 / 10],
            watches[watches.len() * 99 / 100],
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let flags = parse_flags(&args[1..], &["paired", "emulation"]).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    match command.as_str() {
        "simulate" => cmd_simulate(flags),
        "train-ttp" => cmd_train_ttp(flags),
        "run-rct" => cmd_run_rct(flags),
        "archive" => cmd_archive(flags),
        "archive-export" => cmd_archive_export(flags),
        "archive-stats" => cmd_archive_stats(flags),
        "power-analysis" => cmd_power_analysis(flags),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// Characters that turn a number into a non-number wherever they land
    /// (`'+'` is left out: a leading plus sign is a valid `u64`).
    const TYPOS: [char; 7] = ['O', 'l', 'x', '.', ' ', '_', 'e'];

    proptest! {
        /// Every `u64` survives `--flag value` → `parse_flags` → `flag`.
        #[test]
        fn any_u64_flag_value_round_trips(n in any::<u64>()) {
            let flags = parse_flags(&argv(&["--seed", &n.to_string()]), &[]).unwrap();
            prop_assert_eq!(flag(&flags, "seed", 1u64), Ok(n));
        }

        /// A numeric flag whose value is not a number is an error naming the
        /// flag, never the default.
        #[test]
        fn non_numeric_value_is_rejected(
            n in any::<u64>(),
            at in 0usize..21,
            typo in 0usize..TYPOS.len(),
        ) {
            let mut value = n.to_string();
            value.insert(at.min(value.len()), TYPOS[typo]);
            let flags = parse_flags(&argv(&["--sessions", &value]), &[]).unwrap();
            let err = flag(&flags, "sessions", 100usize).unwrap_err();
            prop_assert!(err.contains("--sessions") && err.contains(&value), "{}", err);
            prop_assert!(flag(&flags, "sessions", 100u64).is_err());
        }

        /// `parse_flags` keeps every `--key value` pair and boolean flag;
        /// absent flags take their default.
        #[test]
        fn parse_flags_keeps_pairs_and_booleans(
            values in vec(0u64..1_000_000, 1..6),
            paired in any::<bool>(),
        ) {
            let mut args = Vec::new();
            for (k, v) in values.iter().enumerate() {
                args.push(format!("--k{k}"));
                args.push(v.to_string());
            }
            if paired {
                args.push("--paired".to_string());
            }
            let flags = parse_flags(&args, &["paired"]).unwrap();
            for (k, v) in values.iter().enumerate() {
                prop_assert_eq!(flag(&flags, &format!("k{k}"), 0u64), Ok(*v));
            }
            prop_assert_eq!(flags.contains_key("paired"), paired);
            prop_assert_eq!(flag(&flags, "absent", 42u64), Ok(42));
        }
    }

    #[test]
    fn malformed_argument_lists_are_errors() {
        assert!(parse_flags(&argv(&["sessions", "3"]), &[]).is_err());
        assert!(parse_flags(&argv(&["--sessions"]), &[]).is_err());
    }
}
