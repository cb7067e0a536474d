//! Tiny-size smoke test of the benchmark: every workload, in both trace
//! modes, emits every named metric with its unit and passes the correctness
//! gate; `BENCHMARK.json` names the same metrics; `compare` refuses records
//! from different machines.

use rctbench::json::{self, Json};
use rctbench::metrics::{per_layer, END_TO_END};
use rctbench::workload::Workload;
use std::process::Command;

fn rctbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rctbench")).args(args).output().expect("run rctbench")
}

#[test]
fn every_workload_emits_every_metric_and_passes_the_gate() {
    let end_to_end: Vec<(String, &str)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for w in Workload::ALL {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer())] {
            let args = [
                "--workload",
                w.name(),
                "--seed",
                "3",
                "--seconds",
                "0.1",
                "--trace",
                trace,
                "--size",
                "tiny",
            ];
            let out = rctbench(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{args:?} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .expect("result line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{args:?}");
            assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Json::as_object).expect("metrics object");
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, want, "{args:?}: metric names");
            for ((name, m), (_, unit)) in metrics.iter().zip(expected.iter()) {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{args:?}: {name} has no finite value");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(*unit),
                    "{args:?}: {name} unit"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_names_the_same_metrics_and_workloads() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |ms: Vec<(String, &str)>| -> Vec<(String, String)> {
        ms.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(
        listed("end_to_end"),
        own(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect())
    );
    assert_eq!(listed("per_layer"), own(per_layer()));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn compare_refuses_records_from_different_machines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("compare-test");
    std::fs::create_dir_all(&dir).expect("create test dir");
    let record = |cpu: &str, rate: f64| {
        format!(
            "{{\"workload\": \"rct_bba\", \"size\": \"full\", \"machine\": {{\"nproc\": 2, \"cpu\": \"{cpu}\"}}, \
             \"metrics\": {{\"stream_hours_per_s\": {{\"value\": {rate}, \"unit\": \"h/s\"}}}}}}"
        )
    };
    let (a, b, c) = (dir.join("a.json"), dir.join("b.json"), dir.join("c.json"));
    std::fs::write(&a, record("X", 100.0)).expect("write a");
    std::fs::write(&b, record("X", 110.0)).expect("write b");
    std::fs::write(&c, record("Y", 110.0)).expect("write c");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 path").to_string();
    let same = rctbench(&["compare", &path(&a), &path(&b)]);
    assert_eq!(same.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&same.stdout).contains("1.100"), "ratio printed");
    let different = rctbench(&["compare", &path(&a), &path(&c)]);
    assert_eq!(different.status.code(), Some(3), "different machines must be refused");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
