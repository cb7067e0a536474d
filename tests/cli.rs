//! The `puffer` CLI rejects out-of-range flag values right after parsing:
//! exit code 2, the flag named on stderr, and no work done — never a panic
//! (exit 101) in a library assert, and never a silent run with a clamped or
//! ignored value.  An export of a damaged archive exits 1 and writes nothing,
//! and so does training on a directory without readable observations;
//! `train-ttp` on the day archives of `run-rct --archive` writes a
//! checkpoint that loads.

use puffer_repro::fugu::checkpoint;
use puffer_repro::platform::telemetry::{
    BufferEvent, ClientBuffer, StreamTelemetry, VideoAcked, VideoSent,
};
use puffer_repro::platform::ArchiveWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, not-yet-created output directory for one case.
fn out_dir(case: usize) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_range_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn out_of_range_values_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["run-rct", "--sessions", "0"], "--sessions"),
        (&["run-rct", "--days", "0"], "--days"),
        (&["run-rct", "--fault-rate", "7"], "--fault-rate"),
        (&["run-rct", "--fault-rate", "-1"], "--fault-rate"),
        (&["run-rct", "--fault-rate", "nan"], "--fault-rate"),
        (&["power-analysis", "--sessions", "0"], "--sessions"),
        (&["power-analysis", "--days", "0"], "--days"),
        (&["power-analysis", "--cuts", "50,5"], "--cuts"),
        (&["power-analysis", "--improvement", "1.5"], "--improvement"),
        (&["power-analysis", "--boot", "0"], "--boot"),
        (&["archive", "--sessions", "0"], "--sessions"),
        (&["simulate", "--seconds", "nan"], "--seconds"),
        (&["simulate", "--seconds", "inf"], "--seconds"),
        (&["simulate", "--seconds", "1e12"], "--seconds"),
        (&["simulate", "--seconds", "0"], "--seconds"),
        (&["simulate", "--seconds", "-5"], "--seconds"),
    ];
    for (case, &(args, flag)) in cases.iter().enumerate() {
        let dir = out_dir(case);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_puffer"));
        cmd.args(args);
        // `power-analysis` and `archive` need an output; nothing may reach it.
        if matches!(args[0], "power-analysis" | "archive") {
            cmd.arg("--out").arg(&dir);
        }
        let out = cmd.output().expect("runs the puffer binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let shown = format!("{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{shown}");
        assert!(stderr.contains(flag), "{shown}");
        assert!(out.stdout.is_empty(), "{shown}");
        assert!(!dir.exists(), "wrote output before rejecting, {shown}");
    }
}

/// Run the `puffer` binary with `args`.
fn puffer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_puffer")).args(args).output().expect("runs the puffer binary")
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("temporary paths are UTF-8")
}

#[test]
fn train_ttp_trains_on_the_day_archives_of_run_rct() {
    let dir = out_dir(1002);
    let ckpt = dir.join("ttp.txt");
    let run = puffer(&["run-rct", "--schemes", "bba", "--archive", arg(&dir), "--sessions", "3"]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    let train = puffer(&["train-ttp", "--data", arg(&dir), "--out", arg(&ckpt), "--seed", "3"]);
    assert_eq!(train.status.code(), Some(0), "{}", String::from_utf8_lossy(&train.stderr));
    checkpoint::load_from_file(&ckpt).expect("train-ttp writes a checkpoint that loads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_ttp_without_readable_observations_exits_1_and_writes_nothing() {
    let empty = out_dir(1003);
    std::fs::create_dir_all(&empty).unwrap();
    assert_train_fails(&empty, "no day archive");
    let cut = out_dir(1004);
    std::fs::create_dir_all(&cut).unwrap();
    let bytes = telemetry_archive();
    std::fs::write(cut.join("telemetry_day0.puf"), &bytes[..bytes.len() * 2 / 3]).unwrap();
    assert_train_fails(&cut, "cannot read");
    for dir in [empty, cut] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `puffer train-ttp --data data` must exit 1 with `message` on stderr and
/// write no checkpoint.
fn assert_train_fails(data: &Path, message: &str) {
    let ckpt = data.join("ttp.txt");
    let out = puffer(&["train-ttp", "--data", arg(data), "--out", arg(&ckpt)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(!ckpt.exists(), "wrote a checkpoint");
}

/// A 200-chunk stream's telemetry as a `.puf`, in 16-row blocks.
fn telemetry_archive() -> Vec<u8> {
    let mut t = StreamTelemetry::default();
    for i in 0..200u64 {
        let time = i as f64 * 2.002;
        t.video_sent.push(VideoSent {
            time,
            stream_id: 7,
            expt_id: 1,
            video_ts: i * 180_180,
            size: 4e5 + i as f64,
            ssim_index: 0.97,
            cwnd: 20.0,
            in_flight: 2.0,
            min_rtt: 0.04,
            rtt: 0.05,
            delivery_rate: 9e5,
        });
        t.video_acked.push(VideoAcked {
            time: time + 0.5,
            stream_id: 7,
            expt_id: 1,
            video_ts: i * 180_180,
            size: 4e5 + i as f64,
        });
        t.client_buffer.push(ClientBuffer {
            time: time + 0.5,
            stream_id: 7,
            expt_id: 1,
            event: BufferEvent::Periodic,
            buffer: 7.5,
            cum_rebuf: 0.0,
        });
    }
    let mut w = ArchiveWriter::with_block_rows(Vec::new(), 16).unwrap();
    w.add_stream(&t).unwrap();
    w.finish().unwrap()
}

#[test]
fn archive_export_of_a_truncated_archive_exits_1_and_writes_nothing() {
    let bytes = telemetry_archive();
    assert_export_fails(1000, &bytes[..bytes.len() * 2 / 3]);
}

#[test]
fn archive_export_of_an_unknown_incident_code_exits_1_and_writes_nothing() {
    // A header-only archive, then an incident block of two rows whose second
    // carries kind code 99: six columns of two one-byte varints each.
    let mut bytes = ArchiveWriter::new(Vec::new()).unwrap().finish().unwrap();
    bytes.extend_from_slice(&[3, 0, 0, 0]);
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    for _ in 0..6 {
        bytes.extend_from_slice(&2u32.to_le_bytes());
    }
    for col in 0..6 {
        bytes.extend_from_slice(&[0, if col == 3 { 99 } else { 0 }]);
    }
    assert_export_fails(1001, &bytes);
}

/// `puffer archive-export` of the `.puf` bytes `puf_bytes` must exit 1, say
/// the export failed, and write no CSV.
fn assert_export_fails(case: usize, puf_bytes: &[u8]) {
    let dir = out_dir(case);
    std::fs::create_dir_all(&dir).unwrap();
    let puf = dir.join("telemetry_day0.puf");
    std::fs::write(&puf, puf_bytes).unwrap();
    let csv_dir = dir.join("csv");
    let out = Command::new(env!("CARGO_BIN_EXE_puffer"))
        .args(["archive-export", "--in"])
        .arg(&puf)
        .arg("--out")
        .arg(&csv_dir)
        .output()
        .expect("runs the puffer binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("export failed"), "{stderr}");
    let written: Vec<_> = std::fs::read_dir(&csv_dir).map_or(Vec::new(), |d| d.collect());
    assert!(written.is_empty(), "wrote {} files", written.len());
    std::fs::remove_dir_all(&dir).ok();
}
