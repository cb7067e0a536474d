//! Quickstart: stream five minutes of video with Fugu over a sampled
//! wild-Internet path and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use puffer_repro::abr::Abr as _;
use puffer_repro::fugu::{Fugu, Ttp, TtpConfig};
use puffer_repro::media::VideoSource;
use puffer_repro::net::{CongestionControl, Connection};
use puffer_repro::platform::user::StreamIntent;
use puffer_repro::platform::{run_stream, StreamClock, StreamConfig, UserModel};
use puffer_repro::trace::{bytes_per_sec_to_mbps, TraceBank};
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // 1. Sample a network path from the deployment-world mixture.
    let bank = TraceBank::puffer();
    let (path, trace) = bank.sample_session(400.0, &mut rng);
    println!(
        "path: {} ({:.1} Mbit/s nominal, {:.0} ms RTT)",
        path.class.name(),
        bytes_per_sec_to_mbps(path.base_rate),
        path.min_rtt * 1000.0
    );

    // 2. Open a TCP connection over it (BBR, like the primary experiment).
    let mut conn = Connection::over_path(&path, trace, CongestionControl::Bbr);

    // 3. Build Fugu.  An untrained TTP still plans sensibly (its
    //    distributions are just vague); train one with the
    //    `train_fugu_in_situ` example or the bench pipeline for real use.
    let mut fugu = Fugu::new(Ttp::new(TtpConfig::default(), 42));
    println!(
        "scheme: {} ({} networks, {} features each)",
        fugu.name(),
        fugu.ttp().horizon(),
        fugu.ttp().config().n_features()
    );

    // 4. Stream five minutes of live TV to a well-behaved viewer.
    let mut source = VideoSource::puffer_default();
    let user = UserModel { zap_prob: 0.0, ..UserModel::default() };
    let out = run_stream(
        &mut conn,
        &mut source,
        &mut fugu,
        &user,
        StreamClock::starting(StreamIntent::Watch(300.0)),
        &StreamConfig::default(),
        &mut rng,
    );

    // 5. Report.
    let s = out.summary.expect("stream should play");
    println!("\nchunks sent:        {}", s.chunks);
    println!("startup delay:      {:.2} s", s.startup_delay);
    println!("watch time:         {:.1} s", s.watch_time);
    println!("time stalled:       {:.2} s ({:.3}%)", s.stall_time, 100.0 * s.stall_ratio());
    println!("mean SSIM:          {:.2} dB", s.mean_ssim_db);
    println!("SSIM variation:     {:.2} dB per chunk", s.ssim_variation_db);
    println!("mean video bitrate: {:.2} Mbit/s", s.mean_bitrate() / 1e6);

    println!("\nfirst ten decisions (rung, size, transmission time):");
    for c in out.chunk_log.iter().take(10) {
        println!(
            "  rung {:>2}  {:>7.0} kB  {:>6.0} ms{}",
            c.rung,
            c.size / 1000.0,
            c.transmission_time * 1000.0,
            if c.stall > 0.0 { format!("  STALL {:.2}s", c.stall) } else { String::new() }
        );
    }
}
