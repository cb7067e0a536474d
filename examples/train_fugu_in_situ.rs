//! Train Fugu's Transmission Time Predictor *in situ* (§4.3) and show why
//! it beats the harmonic-mean heuristic.
//!
//! The example (1) collects telemetry by streaming to simulated users in the
//! deployment world, (2) trains the TTP with supervised learning on the
//! 14-day window, and (3) compares its transmission-time predictions against
//! the harmonic-mean throughput predictor on held-out streams.
//!
//! ```sh
//! cargo run --release --example train_fugu_in_situ
//! ```

use puffer_repro::abr::predictor::{HarmonicMean, ThroughputPredictor};
use puffer_repro::abr::ChunkRecord;
use puffer_repro::fugu::{bins, train, TrainConfig, Ttp, TtpConfig};
use puffer_repro::platform::experiment::collect_training_data;
use puffer_repro::platform::{ExperimentConfig, SchemeSpec};
use rand::SeedableRng;

fn main() {
    // 1. Collect telemetry (two simulated days of BBA streaming).
    println!("collecting telemetry from the deployment world ...");
    let data_cfg = ExperimentConfig {
        seed: 11,
        sessions_per_day: 80,
        days: 2,
        retrain: None,
        ..ExperimentConfig::default()
    };
    let train_data = collect_training_data(&SchemeSpec::Bba, &data_cfg);
    println!(
        "  {} streams, {} chunk observations",
        train_data.n_streams(),
        train_data.n_observations()
    );

    // 2. Train the TTP.
    println!("training the TTP (2x64 hidden, 21 output bins, 5 horizons) ...");
    let mut ttp = Ttp::new(TtpConfig::default(), 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let report = train(
        &mut ttp,
        &train_data,
        1,
        &TrainConfig { epochs: 3, max_samples_per_step: 60_000, ..TrainConfig::default() },
        &mut rng,
    )
    .expect("window has data");
    println!(
        "  {} samples/step, final cross-entropy {:.3} nats (uniform would be {:.3})",
        report.samples_per_step[0],
        report.mean_ce(),
        (bins::N_BINS as f32).ln()
    );

    // 3. Held-out comparison: TTP's expected transmission time vs the
    //    harmonic-mean estimate (size / HM throughput), per §4.6's
    //    "Transmission-time prediction" ablation.
    println!("evaluating on held-out streams ...");
    let eval_cfg =
        ExperimentConfig { seed: 99, sessions_per_day: 30, days: 1, retrain: None, ..data_cfg };
    let eval_data = collect_training_data(&SchemeSpec::Bba, &eval_cfg);

    let mut n = 0usize;
    let mut ttp_abs_err = 0.0f64;
    let mut hm_abs_err = 0.0f64;
    let mut ttp_bin_hits = 0usize;
    let mut hm_bin_hits = 0usize;
    // Walk every held-out stream and replay each chunk's prediction problem:
    // the chunks delivered before it, the tcp_info when it was sent, its size.
    for stream in eval_data.streams() {
        let mut history: Vec<ChunkRecord> = Vec::new();
        for obs in stream {
            let truth_bin = ttp.target_bin(obs.size, obs.transmission_time);
            let truth_time = bins::bin_midpoint(truth_bin);

            let expected = ttp.expected_time(0, &history, &obs.tcp_info, obs.size);
            ttp_abs_err += (expected - truth_time).abs();
            if bins::bin_index(expected) == truth_bin {
                ttp_bin_hits += 1;
            }

            let hm_time = match HarmonicMean.predict(&history) {
                Some(tput) => obs.size / tput,
                None => 1.0,
            };
            hm_abs_err += (hm_time.min(30.0) - truth_time).abs();
            if bins::bin_index(hm_time.min(30.0)) == truth_bin {
                hm_bin_hits += 1;
            }
            n += 1;
            history.push(ChunkRecord { size: obs.size, transmission_time: obs.transmission_time });
        }
    }
    println!("  {} held-out predictions", n);
    println!(
        "  mean |error|:   TTP {:.3} s  vs  harmonic mean {:.3} s",
        ttp_abs_err / n as f64,
        hm_abs_err / n as f64
    );
    println!(
        "  bin accuracy:   TTP {:.1}%  vs  harmonic mean {:.1}%",
        100.0 * ttp_bin_hits as f64 / n as f64,
        100.0 * hm_bin_hits as f64 / n as f64
    );

    // 4. Save a deployment checkpoint.
    let path = std::env::temp_dir().join("fugu_ttp_example.txt");
    puffer_repro::fugu::checkpoint::save_to_file(&ttp, &path).unwrap();
    println!("checkpoint written to {}", path.display());
}
