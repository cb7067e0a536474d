//! Plain-text model checkpoints.
//!
//! The paper trains in PyTorch and loads weights into a C++ server (§4.5); the
//! interchange artifact is a model checkpoint.  We use a line-oriented text
//! format rather than a serialization framework so that checkpoints are
//! diffable, deterministic, and dependency-free:
//!
//! ```text
//! puffer-nn-mlp v1
//! activation relu
//! scaler 22
//! mean <22 floats>
//! std <22 floats>
//! layers 3
//! layer 22 64
//! w <22*64 floats, row-major>
//! b <64 floats>
//! ...
//! end
//! ```
//!
//! Floats are written with `{:e}` (scientific, full precision round-trip for
//! f32) separated by single spaces.
//!
//! A model file is its own header followed by one or more of these sections
//! back to back (a TTP's step-nets, Pensieve's actor and critic);
//! [`load_concatenated`] reads them all, and each model's loader checks
//! every network against the architecture its header or type fixes
//! ([`Checkpoint::check_architecture`]).

use crate::matrix::Matrix;
use crate::mlp::{Activation, Linear, Mlp};
use crate::scaler::Scaler;
use std::fmt::Write as _;

/// A checkpoint couples a network with the input scaler it was trained with.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub net: Mlp,
    pub scaler: Scaler,
}

/// Errors from parsing a checkpoint.
#[derive(Debug)]
pub enum LoadError {
    /// Magic line or section header missing/unrecognized.
    Format(String),
    /// A float failed to parse.
    Number(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Format(s) => write!(f, "bad checkpoint format: {s}"),
            LoadError::Number(s) => write!(f, "bad number in checkpoint: {s}"),
            LoadError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn write_floats(out: &mut String, label: &str, vals: &[f32]) {
    out.push_str(label);
    for v in vals {
        let _ = write!(out, " {v:e}");
    }
    out.push('\n');
}

fn parse_floats(line: &str, label: &str, expect: usize) -> Result<Vec<f32>, LoadError> {
    let mut it = line.split_whitespace();
    let got = it.next().unwrap_or("");
    if got != label {
        return Err(LoadError::Format(format!("expected '{label}', got '{got}'")));
    }
    let vals: Result<Vec<f32>, _> = it.map(str::parse::<f32>).collect();
    let vals = vals.map_err(|e| LoadError::Number(e.to_string()))?;
    if vals.len() != expect {
        return Err(LoadError::Format(format!(
            "'{label}' expected {expect} values, got {}",
            vals.len()
        )));
    }
    Ok(vals)
}

/// Serialize a checkpoint to a string.
pub fn save_to_string(ckpt: &Checkpoint) -> String {
    let mut out = String::new();
    out.push_str("puffer-nn-mlp v1\n");
    let _ = writeln!(out, "activation {}", ckpt.net.activation().name());
    let _ = writeln!(out, "scaler {}", ckpt.scaler.dim());
    write_floats(&mut out, "mean", ckpt.scaler.mean());
    write_floats(&mut out, "std", ckpt.scaler.std());
    let _ = writeln!(out, "layers {}", ckpt.net.layers().len());
    for l in ckpt.net.layers() {
        let _ = writeln!(out, "layer {} {}", l.in_dim(), l.out_dim());
        write_floats(&mut out, "w", l.w.data());
        write_floats(&mut out, "b", &l.b);
    }
    out.push_str("end\n");
    out
}

/// Parse every checkpoint in `lines`, back to back, up to the end of input:
/// the body of a model file after its own header.  A line after the last
/// `end` that does not open another checkpoint is an error.
pub fn load_concatenated<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<Checkpoint>, LoadError> {
    let mut lines = lines.peekable();
    let mut ckpts = Vec::new();
    while lines.peek().is_some() {
        ckpts.push(parse_one(&mut lines)?);
    }
    Ok(ckpts)
}

/// Parse one checkpoint section, through its `end` line.
fn parse_one<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<Checkpoint, LoadError> {
    let mut next = |what: &str| {
        lines.next().ok_or_else(|| LoadError::Format(format!("unexpected EOF, wanted {what}")))
    };

    if next("magic")? != "puffer-nn-mlp v1" {
        return Err(LoadError::Format("missing magic line".into()));
    }
    let act_line = next("activation")?;
    let act_name = act_line
        .strip_prefix("activation ")
        .ok_or_else(|| LoadError::Format("missing activation".into()))?;
    let activation = Activation::from_name(act_name)
        .ok_or_else(|| LoadError::Format(format!("unknown activation '{act_name}'")))?;

    let scaler_line = next("scaler")?;
    let dim: usize = scaler_line
        .strip_prefix("scaler ")
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| LoadError::Format("bad scaler header".into()))?;
    let mean = parse_floats(next("mean")?, "mean", dim)?;
    let std = parse_floats(next("std")?, "std", dim)?;
    if std.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
        return Err(LoadError::Format("scaler std must be positive and finite".into()));
    }
    let scaler = Scaler::from_parts(mean, std);

    let layers_line = next("layers")?;
    let n_layers: usize = layers_line
        .strip_prefix("layers ")
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| LoadError::Format("bad layers header".into()))?;
    if n_layers == 0 {
        return Err(LoadError::Format("network must have at least one layer".into()));
    }

    // No capacity from the untrusted count: a huge one must fail on the
    // missing lines, not in the allocator.
    let mut layers = Vec::new();
    let mut width = dim;
    for i in 0..n_layers {
        let hdr = next("layer")?;
        let mut it = hdr.split_whitespace();
        if it.next() != Some("layer") {
            return Err(LoadError::Format("missing layer header".into()));
        }
        let in_dim: usize = it
            .next()
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| LoadError::Format("bad layer in_dim".into()))?;
        let out_dim: usize = it
            .next()
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| LoadError::Format("bad layer out_dim".into()))?;
        if in_dim != width {
            return Err(LoadError::Format(format!(
                "layer {i} takes {in_dim} inputs, but {width} reach it"
            )));
        }
        let n_weights = in_dim
            .checked_mul(out_dim)
            .ok_or_else(|| LoadError::Format("layer size overflows".into()))?;
        let w = parse_floats(next("w")?, "w", n_weights)?;
        let b = parse_floats(next("b")?, "b", out_dim)?;
        layers.push(Linear {
            w: Matrix::from_vec(in_dim, out_dim, w),
            b,
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
        });
        width = out_dim;
    }
    if next("end")? != "end" {
        return Err(LoadError::Format("missing end marker".into()));
    }
    Ok(Checkpoint { net: Mlp::from_layers(layers, activation), scaler })
}

impl Checkpoint {
    /// `Ok` when the network's widths, input first, are `dims` and its
    /// hidden activation is `activation`: the check a model loader makes
    /// against the architecture its header or its type fixes.  `what` names
    /// the network in the error.
    pub fn check_architecture(
        &self,
        what: &str,
        dims: &[usize],
        activation: Activation,
    ) -> Result<(), LoadError> {
        let got: Vec<usize> = std::iter::once(self.net.input_dim())
            .chain(self.net.layers().iter().map(Linear::out_dim))
            .collect();
        if got != dims || self.net.activation() != activation {
            return Err(LoadError::Format(format!(
                "{what} is {got:?} {}, expected {dims:?} {}",
                self.net.activation().name(),
                activation.name()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpScratch;
    use rand::SeedableRng;

    fn sample_checkpoint() -> Checkpoint {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let net = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let scaler = Scaler::fit_from([
            &[0.0, 10.0, 100.0, -5.0][..],
            &[1.0, 20.0, 50.0, 5.0],
            &[2.0, 30.0, 75.0, 0.0],
        ]);
        Checkpoint { net, scaler }
    }

    fn load(s: &str) -> Result<Vec<Checkpoint>, LoadError> {
        load_concatenated(s.lines())
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let ckpt = sample_checkpoint();
        let s = save_to_string(&ckpt);
        let [loaded] = <[Checkpoint; 1]>::try_from(load(&s).unwrap()).unwrap();
        let mut x = Matrix::zeros(1, 4);
        ckpt.scaler.transform_into(&[1.5, 22.0, 60.0, 1.0], x.row_mut(0));
        let want = ckpt.net.forward_into(&x, &mut MlpScratch::new()).clone();
        assert_eq!(want.data(), loaded.net.forward_into(&x, &mut MlpScratch::new()).data());
        assert_eq!(ckpt.scaler, loaded.scaler);
    }

    #[test]
    fn double_roundtrip_is_fixed_point() {
        let ckpt = sample_checkpoint();
        let s1 = save_to_string(&ckpt);
        let s2 = save_to_string(&load(&s1).unwrap()[0]);
        assert_eq!(s1, s2, "text format must be a serialization fixed point");
    }

    #[test]
    fn rejects_garbage() {
        assert!(load("not a checkpoint").is_err());
        assert!(load("\n").is_err());
    }

    #[test]
    fn rejects_truncated() {
        let ckpt = sample_checkpoint();
        let s = save_to_string(&ckpt);
        let truncated: String = s.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(load(&truncated).is_err());
    }

    #[test]
    fn rejects_wrong_float_count() {
        let ckpt = sample_checkpoint();
        let s = save_to_string(&ckpt);
        // Drop one float from the mean line.
        let hacked: String = s
            .lines()
            .map(|l| {
                if l.starts_with("mean ") {
                    let parts: Vec<&str> = l.split(' ').collect();
                    parts[..parts.len() - 1].join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(load(&hacked).is_err());
    }

    #[test]
    fn rejects_layers_that_do_not_chain() {
        // The 4 → 8 → 3 sample with its second layer swapped for the only
        // layer of a 7 → 3 network.
        let a = save_to_string(&sample_checkpoint());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = Mlp::new(&[7, 3], Activation::Relu, &mut rng);
        let b = save_to_string(&Checkpoint { net, scaler: Scaler::identity(7) });
        let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
        let spliced = [&a[..9], &b[6..9], &a[12..]].concat().join("\n");
        assert!(spliced.contains("layer 4 8\n") && spliced.contains("layer 7 3\n"));
        let err = load(&spliced).unwrap_err();
        assert!(err.to_string().contains("layer 1 takes 7 inputs, but 8 reach it"), "{err}");
    }

    #[test]
    fn rejects_scaler_narrower_than_the_input() {
        let mut ckpt = sample_checkpoint();
        ckpt.scaler = Scaler::identity(3);
        let err = load(&save_to_string(&ckpt)).unwrap_err();
        assert!(err.to_string().contains("layer 0 takes 4 inputs, but 3 reach it"), "{err}");
    }

    #[test]
    fn concatenated_sections_load_in_order_and_reject_trailing_bytes() {
        let a = sample_checkpoint();
        let b = Checkpoint {
            net: Mlp::new(&[4, 2], Activation::Identity, &mut rand::rngs::StdRng::seed_from_u64(3)),
            scaler: Scaler::identity(4),
        };
        let text = save_to_string(&a) + &save_to_string(&b);
        let loaded = load_concatenated(text.lines()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(save_to_string(&loaded[0]), save_to_string(&a));
        assert_eq!(save_to_string(&loaded[1]), save_to_string(&b));
        for tail in ["x\n", "\n", "end\n"] {
            assert!(load_concatenated((text.clone() + tail).lines()).is_err(), "{tail:?}");
        }
    }

    #[test]
    fn architecture_check_names_the_network() {
        let ckpt = sample_checkpoint();
        assert!(ckpt.check_architecture("net", &[4, 8, 3], Activation::Relu).is_ok());
        let err = ckpt.check_architecture("actor", &[4, 9, 3], Activation::Relu).unwrap_err();
        assert!(err.to_string().contains("actor is [4, 8, 3] relu"), "{err}");
        assert!(ckpt.check_architecture("net", &[4, 8, 3], Activation::Tanh).is_err());
        assert!(ckpt.check_architecture("net", &[4, 8], Activation::Relu).is_err());
    }
}
