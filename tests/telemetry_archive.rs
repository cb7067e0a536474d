//! Integration: telemetry flows end-to-end from an RCT day through its
//! archive sink into the Appendix-B style CSVs, and the exported CSVs are
//! internally consistent.

use puffer_repro::platform::{export_csv, run_rct, ExperimentConfig, SchemeSpec};
use std::path::PathBuf;

/// One day of `sessions` BBA sessions archived under a fresh directory
/// named `name`, exported to CSV.  Returns the directory, the exported
/// `(path, rows)` of `video_sent`, `video_acked` and `client_buffer`, and
/// the number of streams the day started.
fn simulate_archive(name: &str, seed: u64, sessions: usize) -> (PathBuf, Vec<(PathBuf, u64)>, u64) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("telemetry_archive_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ExperimentConfig {
        seed,
        sessions_per_day: sessions,
        days: 1,
        retrain: None,
        archive_sink: Some(dir.clone()),
        ..ExperimentConfig::default()
    };
    let result = run_rct(vec![SchemeSpec::Bba], &cfg);
    assert_eq!(result.archive_paths, vec![dir.join("telemetry_day0.puf")]);
    let csvs = export_csv(&result.archive_paths[0], &dir, 3).unwrap();
    assert_eq!(csvs.len(), 3, "a clean day carries no incidents");
    (dir, csvs, result.arms[0].consort.streams as u64)
}

#[test]
fn archive_counts_are_consistent() {
    let (dir, csvs, streams) = simulate_archive("counts", 41, 8);
    let (sent, acked, buffer) = (csvs[0].1, csvs[1].1, csvs[2].1);
    assert!(sent > 50, "eight sessions should send chunks, got {sent}");
    // Each stream can leave at most one chunk in flight (sent, never acked)
    // when the user departs.
    assert!(acked <= sent, "acks cannot exceed sends");
    assert!(sent - acked <= streams, "at most one unacked tail per stream");
    // Buffer events only exist for chunks that arrived before the user left,
    // so there are at most as many as acks.
    assert!(buffer <= acked);
    assert!(buffer > 0);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn archive_csvs_parse_back() {
    let (dir, csvs, _) = simulate_archive("parse", 42, 5);
    let names: Vec<_> = csvs.iter().map(|(p, _)| p.file_name().unwrap().to_owned()).collect();
    assert_eq!(names, ["video_sent_3.csv", "video_acked_3.csv", "client_buffer_3.csv"]);

    // Parse video_sent back and sanity-check every row.
    let sent_csv = std::fs::read_to_string(&csvs[0].0).unwrap();
    let mut rows = 0;
    let mut sent_by_chunk = std::collections::BTreeMap::new();
    for line in sent_csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 11, "schema: {line}");
        let time: f64 = fields[0].parse().unwrap();
        let size: f64 = fields[4].parse().unwrap();
        let ssim: f64 = fields[5].parse().unwrap();
        let min_rtt: f64 = fields[8].parse().unwrap();
        let rtt: f64 = fields[9].parse().unwrap();
        assert!(size > 0.0);
        assert!((0.0..1.0).contains(&ssim), "ssim index in range: {ssim}");
        assert!(rtt >= min_rtt * 0.99, "srtt >= min_rtt");
        // (stream_id, video_ts) identifies the chunk for the acked join.
        sent_by_chunk.insert((fields[1].to_string(), fields[3].to_string()), time);
        rows += 1;
    }
    assert_eq!(rows, csvs[0].1);

    // Every video_acked row joins a video_sent row on chunk identity, and
    // the ack never precedes the send.
    let acked_csv = std::fs::read_to_string(&csvs[1].0).unwrap();
    let mut acked_rows = 0;
    for line in acked_csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 5, "schema: {line}");
        let time: f64 = fields[0].parse().unwrap();
        let sent_time = sent_by_chunk
            .get(&(fields[1].to_string(), fields[3].to_string()))
            .unwrap_or_else(|| panic!("ack without a matching send: {line}"));
        assert!(time > *sent_time, "ack at {time} precedes send at {sent_time}");
        acked_rows += 1;
    }
    assert!(acked_rows <= rows);
    assert_eq!(acked_rows, csvs[1].1);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn archive_is_deterministic() {
    let (a_dir, a, _) = simulate_archive("det_a", 77, 4);
    let (b_dir, b, _) = simulate_archive("det_b", 77, 4);
    for ((pa, rows_a), (pb, rows_b)) in a.iter().zip(&b) {
        assert_eq!(rows_a, rows_b);
        let (bytes_a, bytes_b) = (std::fs::read(pa).unwrap(), std::fs::read(pb).unwrap());
        assert!(bytes_a == bytes_b, "{} and {} differ", pa.display(), pb.display());
    }
    std::fs::remove_dir_all(a_dir).ok();
    std::fs::remove_dir_all(b_dir).ok();
}
