//! TTP model checkpoints.
//!
//! The paper trains in PyTorch and ships weights to the C++ server (§4.5);
//! the artifact crossing that boundary is a checkpoint.  Here checkpoints
//! also power the experiment harness: the stale-model study (§4.6) freezes
//! TTPs trained on old windows, and the figure binaries cache the bootstrap
//! models so every figure doesn't retrain from scratch.
//!
//! Format: a small header describing the [`TtpConfig`], followed by one
//! `puffer-nn` checkpoint per lookahead step (each carrying the shared input
//! scaler — redundantly, but the nn format is self-contained).  The header
//! fixes every step-net's architecture, and the loader rejects a network
//! that does not match it.

use crate::ttp::{PredictionTarget, Ttp, TtpConfig};
use puffer_nn::serialize as nn_ser;
use puffer_nn::serialize::LoadError;
use puffer_nn::Activation;
use std::fmt::Write as _;
use std::path::Path;

/// Serialize a TTP (config + all step networks + scaler) to text.
pub fn save_to_string(ttp: &Ttp) -> String {
    let cfg = ttp.config();
    let mut out = String::new();
    out.push_str("fugu-ttp v1\n");
    let _ = writeln!(out, "horizon {}", cfg.horizon);
    let _ = writeln!(out, "history_len {}", cfg.history_len);
    out.push_str("hidden");
    for h in &cfg.hidden {
        let _ = write!(out, " {h}");
    }
    out.push('\n');
    let _ = writeln!(out, "use_tcp_info {}", u8::from(cfg.use_tcp_info));
    let _ = writeln!(
        out,
        "target {}",
        match cfg.target {
            PredictionTarget::TransmissionTime => "time",
            PredictionTarget::Throughput => "throughput",
        }
    );
    for net in ttp.nets() {
        let ckpt = nn_ser::Checkpoint { net: net.clone(), scaler: ttp.scaler().clone() };
        out.push_str(&nn_ser::save_to_string(&ckpt));
    }
    out
}

/// Parse a TTP checkpoint.
pub fn load_from_str(s: &str) -> Result<Ttp, LoadError> {
    let mut lines = s.lines();
    let magic = lines.next().ok_or_else(|| LoadError::Format("empty checkpoint".into()))?;
    if magic != "fugu-ttp v1" {
        return Err(LoadError::Format("missing fugu-ttp magic".into()));
    }
    let mut field = |name: &str| -> Result<String, LoadError> {
        let line =
            lines.next().ok_or_else(|| LoadError::Format(format!("missing field {name}")))?;
        line.strip_prefix(name)
            .map(|v| v.trim().to_string())
            .ok_or_else(|| LoadError::Format(format!("expected field '{name}', got '{line}'")))
    };
    let horizon: usize =
        field("horizon")?.parse().map_err(|_| LoadError::Format("bad horizon".into()))?;
    let history_len: usize =
        field("history_len")?.parse().map_err(|_| LoadError::Format("bad history_len".into()))?;
    let hidden: Vec<usize> = field("hidden")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| LoadError::Format("bad hidden width".into())))
        .collect::<Result<_, _>>()?;
    let use_tcp_info = match field("use_tcp_info")?.as_str() {
        "1" => true,
        "0" => false,
        other => return Err(LoadError::Format(format!("bad use_tcp_info '{other}'"))),
    };
    let target = match field("target")?.as_str() {
        "time" => PredictionTarget::TransmissionTime,
        "throughput" => PredictionTarget::Throughput,
        other => return Err(LoadError::Format(format!("bad target '{other}'"))),
    };
    let config = TtpConfig { horizon, history_len, hidden, use_tcp_info, target };

    // The remainder is `horizon` concatenated nn checkpoints.
    let ckpts = nn_ser::load_concatenated(lines)?;
    if ckpts.len() != horizon {
        return Err(LoadError::Format(format!(
            "expected {horizon} networks, found {}",
            ckpts.len()
        )));
    }
    let Some(scaler) = ckpts.last().map(|c| c.scaler.clone()) else {
        return Err(LoadError::Format("a TTP needs at least one step-net".into()));
    };
    // `n_features` doubles `history_len`: bound it by the width the
    // networks take before asking.
    if history_len == 0 || history_len > scaler.dim() / 2 {
        return Err(LoadError::Format(format!("bad history_len {history_len}")));
    }
    let dims = config.net_dims();
    for (i, ckpt) in ckpts.iter().enumerate() {
        ckpt.check_architecture(&format!("network {i}"), &dims, Activation::Relu)?;
    }
    Ok(Ttp::from_parts(config, ckpts.into_iter().map(|c| c.net).collect(), scaler))
}

/// Write a TTP checkpoint to disk, crash-safely.
///
/// The checkpoint is first written to a sibling temp file (same directory,
/// so the rename cannot cross filesystems), then renamed over `path`.  A
/// crash mid-write leaves either the previous valid checkpoint untouched or
/// a stray `.tmp` file — never a truncated file shadowing a good one.
pub fn save_to_file(ttp: &Ttp, path: &Path) -> Result<(), LoadError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, save_to_string(ttp))?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    Ok(())
}

/// Read a TTP checkpoint from disk.
pub fn load_from_file(path: &Path) -> Result<Ttp, LoadError> {
    load_from_str(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_abr::ChunkRecord;
    use puffer_net::TcpInfo;

    fn tcp() -> TcpInfo {
        TcpInfo { cwnd: 12.0, in_flight: 3.0, min_rtt: 0.03, rtt: 0.04, delivery_rate: 8e5 }
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let ttp = Ttp::new(TtpConfig::default(), 77);
        let s = save_to_string(&ttp);
        let loaded = load_from_str(&s).unwrap();
        let hist = vec![ChunkRecord { size: 4e5, transmission_time: 0.7 }; 8];
        for step in 0..5 {
            let a = ttp.predict_time_distribution(step, &hist, &tcp(), 9e5);
            let b = loaded.predict_time_distribution(step, &hist, &tcp(), 9e5);
            assert_eq!(a, b, "step {step}");
        }
    }

    #[test]
    fn roundtrip_preserves_variant_configs() {
        for variant in crate::ablation::TtpVariant::ALL {
            let ttp = variant.build_ttp(5);
            let loaded = load_from_str(&save_to_string(&ttp)).unwrap();
            assert_eq!(loaded.config(), ttp.config(), "{variant:?}");
        }
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        assert!(load_from_str("nonsense").is_err());
        let ttp = Ttp::new(TtpConfig::default(), 1);
        let s = save_to_string(&ttp);
        let half = &s[..s.len() / 2];
        assert!(load_from_str(half).is_err());
    }

    #[test]
    fn rejects_network_count_mismatch() {
        let ttp = Ttp::new(TtpConfig::default(), 2);
        let s = save_to_string(&ttp);
        // Claim horizon 4 but provide 5 networks.
        let hacked = s.replacen("horizon 5", "horizon 4", 1);
        assert!(load_from_str(&hacked).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fugu_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ttp.txt");
        let ttp = Ttp::new(TtpConfig::default(), 3);
        save_to_file(&ttp, &path).unwrap();
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded.config(), ttp.config());
        std::fs::remove_file(&path).ok();
    }
}
