//! The `puffer` CLI rejects out-of-range flag values right after parsing:
//! exit code 2, the flag named on stderr, and no work done — never a panic
//! (exit 101) in a library assert, and never a silent run with a clamped or
//! ignored value.  An export of a damaged archive exits 1 and writes nothing.

use puffer_repro::platform::telemetry::{
    BufferEvent, ClientBuffer, StreamTelemetry, VideoAcked, VideoSent,
};
use puffer_repro::platform::ArchiveWriter;
use std::path::PathBuf;
use std::process::Command;

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
        (&["collect", "--sessions", "0"], "--sessions"),
        (&["collect", "--days", "0"], "--days"),
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
        // `collect`, `power-analysis` and `archive` need an output; nothing
        // may reach it.
        match args[0] {
            "collect" => cmd.arg("--out").arg(dir.join("data.txt")),
            "power-analysis" | "archive" => cmd.arg("--out").arg(&dir),
            _ => &mut cmd,
        };
        let out = cmd.output().expect("runs the puffer binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let shown = format!("{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{shown}");
        assert!(stderr.contains(flag), "{shown}");
        assert!(out.stdout.is_empty(), "{shown}");
        assert!(!dir.exists(), "wrote output before rejecting, {shown}");
    }
}

#[test]
fn archive_export_of_a_truncated_archive_exits_1_and_writes_nothing() {
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
    let bytes = w.finish().unwrap();

    let dir = out_dir(1000);
    std::fs::create_dir_all(&dir).unwrap();
    let puf = dir.join("telemetry_day0.puf");
    std::fs::write(&puf, &bytes[..bytes.len() * 2 / 3]).unwrap();
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
