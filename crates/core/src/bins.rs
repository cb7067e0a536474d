//! Transmission-time discretization.
//!
//! §4.5: the TTP "outputs a probability distribution over 21 bins of
//! transmission time: [0, 0.25), [0.25, 0.75), [0.75, 1.25), …, [9.75, ∞),
//! with 0.5 seconds as the bin size except for the first and the last bins."

/// Number of output bins.
pub const N_BINS: usize = 21;

/// Width of the interior bins in seconds.
pub const BIN_WIDTH: f64 = 0.5;

/// Map a transmission time (seconds) to its bin index.
pub fn bin_index(t: f64) -> usize {
    assert!(t >= 0.0 && t.is_finite(), "transmission time must be finite and >= 0, got {t}");
    if t < 0.25 {
        0
    } else {
        // Bin k (k >= 1) covers [k·0.5 − 0.25, k·0.5 + 0.25).
        (((t + 0.25) / BIN_WIDTH).floor() as usize).min(N_BINS - 1)
    }
}

/// Total version of [`bin_index`]: clamps degenerate times instead of
/// panicking, with the same discipline as
/// [`crate::ttp::throughput_bin_index`] — NaN and negative inputs land in
/// the first bin, `+inf` in the last.  Bit-identical to [`bin_index`] on
/// finite non-negative input, so swapping it in changes no well-formed
/// result.  The throughput ablation's re-binning needs this: `size /
/// throughput_bin_center(b)` turns a NaN, infinite, or negative proposed
/// size into a non-finite time, and a panic there would take down a whole
/// planning call over one degenerate menu entry.
pub fn bin_index_total(t: f64) -> usize {
    if t.is_nan() || t < 0.25 {
        return 0; // covers all of [-inf, 0.25) and NaN
    }
    if t == f64::INFINITY {
        return N_BINS - 1;
    }
    (((t + 0.25) / BIN_WIDTH).floor() as usize).min(N_BINS - 1)
}

/// Representative time (seconds) for a bin — its midpoint, with the open
/// last bin represented by a pessimistic 12 s (anything ≥ 9.75 s stalls a
/// 15-second buffer pipeline badly; the exact value only shifts how much the
/// controller fears the tail).
// lint: panic-free — the entry assert is the bin-index contract; callers iterate 0..N_BINS
pub fn bin_midpoint(bin: usize) -> f64 {
    assert!(bin < N_BINS, "bin {bin} out of range");
    match bin {
        0 => 0.125,
        b if b == N_BINS - 1 => 12.0,
        b => b as f64 * BIN_WIDTH,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bin_edges() {
        // [0, 0.25) → 0
        assert_eq!(bin_index(0.0), 0);
        assert_eq!(bin_index(0.249), 0);
        // [0.25, 0.75) → 1
        assert_eq!(bin_index(0.25), 1);
        assert_eq!(bin_index(0.749), 1);
        // [0.75, 1.25) → 2
        assert_eq!(bin_index(0.75), 2);
        assert_eq!(bin_index(1.249), 2);
        // Last closed-ish boundary: [9.25, 9.75) → 19, [9.75, ∞) → 20.
        assert_eq!(bin_index(9.74), 19);
        assert_eq!(bin_index(9.75), 20);
        assert_eq!(bin_index(1000.0), 20);
    }

    #[test]
    fn total_bin_index_matches_partial_on_valid_input_and_clamps_the_rest() {
        let mut t = 0.0;
        while t < 15.0 {
            assert_eq!(bin_index_total(t), bin_index(t), "t={t}");
            t += 0.01;
        }
        assert_eq!(bin_index_total(f64::NAN), 0);
        assert_eq!(bin_index_total(-1.0), 0);
        assert_eq!(bin_index_total(f64::NEG_INFINITY), 0);
        assert_eq!(bin_index_total(f64::INFINITY), N_BINS - 1);
        assert_eq!(bin_index_total(f64::MAX), N_BINS - 1);
        assert_eq!(bin_index_total(-0.0), 0);
    }

    #[test]
    fn all_bins_reachable_and_contiguous() {
        let mut last = 0;
        let mut t = 0.0;
        while t < 11.0 {
            let b = bin_index(t);
            assert!(b == last || b == last + 1, "bins must be contiguous at t={t}");
            last = last.max(b);
            t += 0.01;
        }
        assert_eq!(last, N_BINS - 1);
    }

    #[test]
    fn midpoints_lie_in_their_bins() {
        for b in 0..N_BINS {
            assert_eq!(bin_index(bin_midpoint(b)), b, "midpoint of bin {b} maps back");
        }
    }

    #[test]
    fn midpoints_are_increasing() {
        for b in 1..N_BINS {
            assert!(bin_midpoint(b) > bin_midpoint(b - 1));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bin_panics() {
        bin_midpoint(N_BINS);
    }
}
