//! Integration: trained models survive the checkpoint round trip with
//! *behaviorally identical* deployment decisions — the property the paper's
//! PyTorch→C++ hand-off depends on (§4.5) — and a damaged or mismatched
//! model file is rejected with an error, never a panic.

use puffer_repro::abr::pensieve::{N_FEATURES, N_RUNGS};
use puffer_repro::abr::{Abr, AbrContext, ChunkRecord, PensievePolicy};
use puffer_repro::fugu::{checkpoint, train, Dataset, Fugu, TrainConfig, Ttp, TtpConfig};
use puffer_repro::media::VideoSource;
use puffer_repro::net::TcpInfo;
use puffer_repro::nn::serialize::{self as nn_ser, LoadError};
use puffer_repro::nn::{Activation, Mlp, Scaler};
use puffer_repro::platform::experiment::collect_training_data;
use puffer_repro::platform::{read_dataset, run_rct, ExperimentConfig, SchemeSpec};
use rand::SeedableRng;
use std::process::Command;

fn trained_ttp() -> Ttp {
    let cfg = ExperimentConfig {
        seed: 500,
        sessions_per_day: 15,
        days: 1,
        threads: 1,
        retrain: None,
        ..ExperimentConfig::default()
    };
    let data: Dataset = collect_training_data(&SchemeSpec::Bba, &cfg);
    let mut ttp = Ttp::new(TtpConfig::default(), 9);
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    train(
        &mut ttp,
        &data,
        0,
        &TrainConfig { epochs: 1, max_samples_per_step: 2000, ..TrainConfig::default() },
        &mut rng,
    )
    .expect("telemetry available");
    ttp
}

fn decision_contexts() -> (Vec<puffer_repro::media::ChunkMenu>, Vec<ChunkRecord>, TcpInfo) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut src = VideoSource::puffer_default();
    let menus: Vec<_> = (0..5).map(|_| src.next_chunk(&mut rng)).collect();
    let history: Vec<ChunkRecord> = (0..8)
        .map(|i| ChunkRecord {
            size: 3e5 + 5e4 * i as f64,
            transmission_time: 0.4 + 0.05 * i as f64,
        })
        .collect();
    let info = TcpInfo { cwnd: 22.0, in_flight: 3.0, min_rtt: 0.05, rtt: 0.06, delivery_rate: 7e5 };
    (menus, history, info)
}

#[test]
fn trained_ttp_checkpoint_preserves_fugu_decisions() {
    let ttp = trained_ttp();
    let restored = checkpoint::load_from_str(&checkpoint::save_to_string(&ttp)).unwrap();

    let (menus, history, info) = decision_contexts();
    let mut original = Fugu::new(ttp);
    let mut loaded = Fugu::new(restored);
    for buffer in [0.5, 3.0, 7.0, 12.0, 14.5] {
        let ctx = AbrContext {
            buffer,
            prev_ssim_db: Some(14.0),
            prev_rung: Some(5),
            lookahead: &menus,
            history: &history,
            tcp_info: info,
        };
        assert_eq!(
            original.choose(&ctx),
            loaded.choose(&ctx),
            "decision must survive serialization at buffer {buffer}"
        );
    }
}

#[test]
fn pensieve_checkpoint_preserves_greedy_decisions() {
    let policy = PensievePolicy::new(21);
    let restored = PensievePolicy::load_from_str(&policy.save_to_string(), 999).unwrap();
    let (menus, history, info) = decision_contexts();
    let mut a = policy.clone();
    let mut b = restored;
    a.set_stochastic(false);
    b.set_stochastic(false);
    for buffer in [1.0, 6.0, 13.0] {
        let ctx = AbrContext {
            buffer,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &menus,
            history: &history,
            tcp_info: info,
        };
        assert_eq!(a.choose(&ctx), b.choose(&ctx));
    }
}

#[test]
fn dataset_roundtrip_preserves_training_outcome() {
    let dir = std::env::temp_dir().join(format!("puffer_dataset_roundtrip_{}", std::process::id()));
    let cfg = ExperimentConfig {
        seed: 501,
        sessions_per_day: 10,
        days: 1,
        threads: 1,
        retrain: None,
        archive_sink: Some(dir.clone()),
        ..ExperimentConfig::default()
    };
    let result = run_rct(vec![SchemeSpec::Bba], &cfg);
    let restored = read_dataset(&result.archive_paths).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Training on the dataset the run aggregated and on the one read back
    // from its day archive, with the same seed, must produce identical
    // models.
    let train_cfg = TrainConfig { epochs: 1, max_samples_per_step: 1500, ..TrainConfig::default() };
    let mut a = Ttp::new(TtpConfig::default(), 3);
    let mut b = Ttp::new(TtpConfig::default(), 3);
    let seeded = || rand::rngs::StdRng::seed_from_u64(4);
    train(&mut a, &result.dataset, 0, &train_cfg, &mut seeded()).unwrap();
    train(&mut b, &restored, 0, &train_cfg, &mut seeded()).unwrap();
    assert_eq!(
        checkpoint::save_to_string(&a),
        checkpoint::save_to_string(&b),
        "identical data + seed must give identical weights"
    );
}

/// A deliberately tiny TTP so corruption sweeps over its checkpoint text
/// stay fast (a paper-sized checkpoint is hundreds of kilobytes).
fn tiny_ttp() -> Ttp {
    let cfg = TtpConfig {
        horizon: 2,
        history_len: 2,
        hidden: vec![4],
        use_tcp_info: false,
        ..TtpConfig::default()
    };
    Ttp::new(cfg, 77)
}

/// A model file format the corruption sweeps run over: a saved model's
/// text, and a loader that saves again whatever it loads, so that a load
/// that succeeds can be compared with the original.
struct Format {
    name: &'static str,
    text: String,
    reload: fn(&str) -> Result<String, LoadError>,
    /// Truncation cuts every byte within two of a line break, and every
    /// `stride`-th byte in between.  Pensieve's architecture is fixed, so
    /// its file cannot be shrunk the way the TTP's is.
    stride: usize,
}

impl Format {
    fn cuts(&self) -> impl Iterator<Item = usize> + '_ {
        let bytes = self.text.as_bytes();
        (0..bytes.len()).filter(move |&cut| {
            cut % self.stride == 0
                || bytes[cut.saturating_sub(2)..(cut + 2).min(bytes.len())].contains(&b'\n')
        })
    }
}

fn formats() -> [Format; 2] {
    [
        Format {
            name: "ttp",
            text: checkpoint::save_to_string(&tiny_ttp()),
            reload: |s| checkpoint::load_from_str(s).map(|t| checkpoint::save_to_string(&t)),
            stride: 1,
        },
        Format {
            name: "pensieve",
            text: PensievePolicy::new(31).save_to_string(),
            reload: |s| PensievePolicy::load_from_str(s, 0).map(|p| p.save_to_string()),
            stride: 499,
        },
    ]
}

#[test]
fn truncated_checkpoint_never_loads_and_never_panics() {
    // Crash-during-write leaves a prefix of the file; the loader must
    // reject every such prefix with an error — or, when the truncation only
    // sheds trailing whitespace, load a model byte-identical to the
    // original.  It must never panic and never return a silently damaged
    // model.
    for f in formats() {
        let text = &f.text;
        assert_eq!((f.reload)(text).unwrap(), *text, "{}: full checkpoint must load", f.name);
        for cut in f.cuts() {
            match (f.reload)(&text[..cut]) {
                Err(_) => {}
                Ok(loaded) => assert_eq!(
                    loaded,
                    *text,
                    "{}: prefix of {cut}/{} bytes loaded a *different* model",
                    f.name,
                    text.len()
                ),
            }
        }
    }
}

#[test]
fn garbled_checkpoint_lines_are_rejected() {
    // Every line of the format is load-bearing: corrupting any one of them
    // must surface as a LoadError, never a panic or a silently wrong model.
    for f in formats() {
        let lines: Vec<&str> = f.text.lines().collect();
        for i in 0..lines.len() {
            let mut garbled: Vec<&str> = lines.clone();
            garbled[i] = "@@corrupted@@";
            assert!(
                (f.reload)(&garbled.join("\n")).is_err(),
                "{}: garbling line {i} ({:.40?}) must fail the load",
                f.name,
                lines[i]
            );
        }
    }
}

#[test]
fn deleted_checkpoint_lines_are_rejected() {
    for f in formats() {
        let lines: Vec<&str> = f.text.lines().collect();
        for i in 0..lines.len() {
            let mut pruned: Vec<&str> = lines.clone();
            pruned.remove(i);
            match (f.reload)(&pruned.join("\n")) {
                Err(_) => {}
                Ok(loaded) => assert_eq!(
                    loaded, f.text,
                    "{}: dropping line {i} ({:.40?}) loaded a *different* model",
                    f.name, lines[i]
                ),
            }
        }
    }
}

/// The text of a paper-sized TTP checkpoint (`hidden 64 64`).
fn paper_ttp_text() -> String {
    checkpoint::save_to_string(&Ttp::new(TtpConfig::default(), 5))
}

#[test]
fn model_files_that_disagree_with_their_architecture_are_rejected() {
    // A TTP's header fixes its step-nets, all ReLU: a header that disagrees
    // with the networks, or that no TTP can have, is an error.
    let text = paper_ttp_text();
    assert!(checkpoint::load_from_str(&text).is_ok());
    for (from, to) in [
        ("hidden 64 64", "hidden 64 32"),
        ("hidden 64 64", "hidden 64"),
        ("activation relu", "activation tanh"),
        ("history_len 8", "history_len 0"),
        ("history_len 8", "history_len 9223372036854775807"),
    ] {
        assert!(checkpoint::load_from_str(&text.replacen(from, to, 1)).is_err(), "{to}");
    }
    let header_only: String = text.lines().take(6).map(|l| format!("{l}\n")).collect();
    assert!(checkpoint::load_from_str(&header_only.replacen("horizon 5", "horizon 0", 1)).is_err());

    // Pensieve's type fixes its actor and critic.
    let save = |actor_dims: &[usize]| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut text = String::from("pensieve-policy v1\n");
        for dims in [actor_dims, &[N_FEATURES, 64, 64, 1]] {
            let net = Mlp::new(dims, Activation::Relu, &mut rng);
            let scaler = Scaler::identity(N_FEATURES);
            text += &nn_ser::save_to_string(&nn_ser::Checkpoint { net, scaler });
        }
        text
    };
    let text = save(&[N_FEATURES, 64, 64, N_RUNGS]);
    assert!(PensievePolicy::load_from_str(&text, 0).is_ok());
    let err = PensievePolicy::load_from_str(&save(&[N_FEATURES, 32, 64, N_RUNGS]), 0).unwrap_err();
    let wanted = format!("actor is {:?}", [N_FEATURES, 32, 64, N_RUNGS]);
    assert!(err.to_string().contains(&wanted), "{err}");
    assert!(PensievePolicy::load_from_str(&(text + "junk\n"), 0).is_err(), "trailing bytes");
}

#[test]
fn cli_exits_1_on_a_checkpoint_whose_header_disagrees_with_its_networks() {
    let dir = std::env::temp_dir().join(format!("puffer_cli_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ttp.txt");
    std::fs::write(&path, paper_ttp_text().replacen("hidden 64 64", "hidden 64 32", 1)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_puffer"))
        .args(["run-rct", "--fugu", path.to_str().unwrap(), "--sessions", "1", "--days", "1"])
        .output()
        .expect("run puffer");
    let _ = std::fs::remove_dir_all(&dir);
    let printed = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{printed}");
    assert!(printed.contains("cannot load TTP checkpoint"), "{printed}");
}

#[test]
fn save_to_file_is_atomic() {
    let dir = std::env::temp_dir().join(format!("puffer_ckpt_atomic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");
    let tmp = dir.join("model.txt.tmp");
    let ttp = tiny_ttp();

    // A stray temp file from a crashed writer must never shadow the real
    // checkpoint...
    std::fs::write(&tmp, "half-written garbage").unwrap();
    checkpoint::save_to_file(&ttp, &path).unwrap();
    assert!(!tmp.exists(), "save must clean up (rename away) its temp file");
    let reloaded = checkpoint::load_from_file(&path).unwrap();
    assert_eq!(checkpoint::save_to_string(&reloaded), checkpoint::save_to_string(&ttp));

    // ...overwriting an existing checkpoint goes through the same
    // temp+rename path, so a reader never observes a partial file.
    checkpoint::save_to_file(&ttp, &path).unwrap();
    assert!(!tmp.exists());
    assert!(checkpoint::load_from_file(&path).is_ok());

    // A truncated file on disk (simulated torn write from a pre-atomic
    // saver) is rejected by the loader.
    let text = checkpoint::save_to_string(&ttp);
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(checkpoint::load_from_file(&path).is_err());

    // Saving into a directory that doesn't exist reports the I/O error
    // instead of panicking.
    let missing = dir.join("no_such_dir").join("model.txt");
    assert!(checkpoint::save_to_file(&ttp, &missing).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}
