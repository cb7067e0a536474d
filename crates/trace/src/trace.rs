//! Piecewise-constant rate traces with fast integral queries.
//!
//! A [`RateTrace`] is the concrete object the network simulator consumes: a
//! function from time to available bottleneck rate (bytes/second), stored as
//! epochs.  The two operations that dominate the simulation are
//!
//! * "how many bytes can the link carry between t₀ and t₁?"
//!   ([`RateTrace::bytes_between`]) and
//! * "starting at t₀, when have `n` bytes been carried?"
//!   ([`RateTrace::advance`]),
//!
//! both answered from prefix sums once the epoch holding t₀ is found.  The
//! trace remembers the epoch its last lookup found and tries it, then the
//! next few, before binary-searching, so a walk forward in time — the TCP
//! model's rounds — costs O(1) amortized per query, and a jump back or
//! across many epochs O(log n).  The remembered epoch only decides where the
//! search starts: every answer is the same whatever the trace was asked
//! before.  Like mahimahi, traces loop: queries past the end wrap around to
//! the beginning, so a 15-minute trace can carry an hours-long session
//! (§5.2 runs a 10-minute clip repeatedly over looping FCC traces).

use std::cell::Cell;

/// One constant-rate segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epoch {
    /// Segment length in seconds (> 0).
    pub duration: f64,
    /// Deliverable rate in bytes per second (>= 0).
    pub rate: f64,
}

/// A looping piecewise-constant rate function.
#[derive(Debug, Clone)]
pub struct RateTrace {
    /// Epoch start times, `starts[0] == 0`.
    starts: Vec<f64>,
    /// Rate (bytes/s) of each epoch.
    rates: Vec<f64>,
    /// Cumulative bytes delivered by the start of each epoch.
    cum_bytes: Vec<f64>,
    /// Total duration of one loop iteration.
    total_duration: f64,
    /// Total bytes carried in one loop iteration.
    total_bytes: f64,
    /// Index the last epoch lookup returned, where the next one starts.
    cursor: Cell<usize>,
}

/// Epochs past the remembered one a lookup steps through before it falls
/// back to the binary search.
const CURSOR_STEPS: usize = 4;

impl RateTrace {
    /// Build from epochs.
    ///
    /// # Panics
    /// Panics on an empty epoch list, non-positive durations, negative rates,
    /// or a trace that carries zero bytes per loop (it could never complete a
    /// download, so `advance` would not terminate).
    pub fn new(epochs: &[Epoch]) -> Self {
        assert!(!epochs.is_empty(), "trace needs at least one epoch");
        let mut starts = Vec::with_capacity(epochs.len());
        let mut rates = Vec::with_capacity(epochs.len());
        let mut cum_bytes = Vec::with_capacity(epochs.len());
        let mut t = 0.0;
        let mut b = 0.0;
        for e in epochs {
            assert!(e.duration > 0.0, "epoch duration must be positive");
            assert!(e.rate >= 0.0 && e.rate.is_finite(), "epoch rate must be finite and >= 0");
            starts.push(t);
            rates.push(e.rate);
            cum_bytes.push(b);
            t += e.duration;
            b += e.rate * e.duration;
        }
        assert!(b > 0.0, "trace must carry at least some bytes per loop");
        RateTrace {
            starts,
            rates,
            cum_bytes,
            total_duration: t,
            total_bytes: b,
            cursor: Cell::new(0),
        }
    }

    /// A trivial constant-rate trace.
    pub fn constant(rate_bytes_per_sec: f64, duration: f64) -> Self {
        RateTrace::new(&[Epoch { duration, rate: rate_bytes_per_sec }])
    }

    /// Duration of one loop iteration in seconds.
    pub fn loop_duration(&self) -> f64 {
        self.total_duration
    }

    /// Mean rate over one loop, bytes/second.
    pub fn mean_rate(&self) -> f64 {
        self.total_bytes / self.total_duration
    }

    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True if the trace has exactly zero epochs — impossible by
    /// construction, kept for clippy's `len_without_is_empty`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate `(start_time, rate)` pairs of one loop.
    pub fn epochs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.starts.iter().copied().zip(self.rates.iter().copied())
    }

    /// Index of the epoch containing wrapped time `t` (`0 <= t < total`;
    /// −0.0 lies in epoch 0): the one `i` with `starts[i] <= t <
    /// starts[i + 1]`.  Tries the epoch the previous lookup returned and the
    /// `CURSOR_STEPS` after it, then binary-searches.
    fn epoch_index(&self, t: f64) -> usize {
        debug_assert!((0.0..self.total_duration).contains(&t) || t == 0.0);
        let last = self.starts.len() - 1;
        let mut i = self.cursor.get();
        if self.starts[i] <= t {
            for _ in 0..=CURSOR_STEPS {
                if i == last || t < self.starts[i + 1] {
                    self.cursor.set(i);
                    return i;
                }
                i += 1;
            }
        }
        let i = self.starts.partition_point(|&s| s <= t) - 1;
        self.cursor.set(i);
        i
    }

    /// Instantaneous rate at absolute time `t` (bytes/s); `t` may exceed the
    /// loop duration and wraps around.
    pub fn rate_at(&self, t: f64) -> f64 {
        assert!(t >= 0.0 && t.is_finite());
        // `t % d == t` for `0 <= t < d`; on the baseline target `%` is a
        // software routine, so it runs only past the first loop.
        let t = if t < self.total_duration { t } else { t % self.total_duration };
        self.rates[self.epoch_index(t)]
    }

    /// `t`'s position within its loop, `t − loops · d` for `loops = ⌊t /
    /// d⌋`, clamped to `[0, d]`.  A `t` a few ulps from a multiple of `d`
    /// can round the quotient across the loop boundary and the difference a
    /// few ulps outside the loop.  Within `[0, d]` the clamp changes nothing,
    /// and past `d` every query answers as at `d` already.
    fn wrap(&self, t: f64, loops: f64) -> f64 {
        (t - loops * self.total_duration).clamp(0.0, self.total_duration)
    }

    /// Bytes carried within one loop between wrapped times `a <= b`.
    fn bytes_within_loop(&self, a: f64, b: f64) -> f64 {
        debug_assert!(a <= b && b <= self.total_duration + 1e-9);
        // cumulative bytes at absolute in-loop time t
        let cum_at = |t: f64| -> f64 {
            if t >= self.total_duration {
                return self.total_bytes;
            }
            let i = self.epoch_index(t);
            self.cum_bytes[i] + self.rates[i] * (t - self.starts[i])
        };
        cum_at(b) - cum_at(a)
    }

    /// Total bytes the link can carry on `[t0, t1]` (absolute times, may span
    /// multiple loop iterations).
    pub fn bytes_between(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0 && t0 >= 0.0, "invalid interval [{t0}, {t1}]");
        let loops0 = (t0 / self.total_duration).floor();
        let loops1 = (t1 / self.total_duration).floor();
        let a = self.wrap(t0, loops0);
        let b = self.wrap(t1, loops1);
        let full_loops = loops1 - loops0;
        if full_loops == 0.0 {
            self.bytes_within_loop(a, b)
        } else {
            self.bytes_within_loop(a, self.total_duration)
                + (full_loops - 1.0) * self.total_bytes
                + self.bytes_within_loop(0.0, b)
        }
    }

    /// Starting at absolute time `t0`, return the earliest time by which the
    /// link has carried `bytes` additional bytes.
    pub fn advance(&self, t0: f64, bytes: f64) -> f64 {
        assert!(t0 >= 0.0 && bytes >= 0.0 && bytes.is_finite());
        if bytes == 0.0 {
            return t0;
        }
        let mut remaining = bytes;
        // Skip whole loops first.
        let loops0 = (t0 / self.total_duration).floor();
        let mut t = self.wrap(t0, loops0); // wrapped position
        let mut base = loops0 * self.total_duration; // absolute time of loop start

        // Bytes remaining in the current partial loop.
        let rest_of_loop = self.bytes_within_loop(t, self.total_duration);
        if remaining > rest_of_loop {
            remaining -= rest_of_loop;
            base += self.total_duration;
            t = 0.0;
            let full = (remaining / self.total_bytes).floor();
            if full > 0.0 {
                base += full * self.total_duration;
                remaining -= full * self.total_bytes;
            }
        }
        // Walk epochs within a single loop (at most once around).
        let mut i = self.epoch_index(t.min(self.total_duration - f64::EPSILON));
        loop {
            let epoch_end =
                if i + 1 < self.starts.len() { self.starts[i + 1] } else { self.total_duration };
            let capacity = self.rates[i] * (epoch_end - t);
            if capacity >= remaining {
                let dt = if self.rates[i] > 0.0 { remaining / self.rates[i] } else { 0.0 };
                return base + t + dt;
            }
            remaining -= capacity;
            t = epoch_end;
            i += 1;
            if i == self.starts.len() {
                // Wrapped: guaranteed to terminate since total_bytes > 0.
                base += self.total_duration;
                t = 0.0;
                i = 0;
                let full = (remaining / self.total_bytes).floor();
                if full > 0.0 {
                    base += full * self.total_duration;
                    remaining -= full * self.total_bytes;
                }
            }
        }
    }

    /// Average rate over `[t0, t1]` in bytes/s.
    pub fn mean_rate_between(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 > t0);
        self.bytes_between(t0, t1) / (t1 - t0)
    }

    /// Resample the trace into fixed-width epochs (e.g. the 6-second epochs
    /// of Fig. 2), averaging the rate within each bucket.
    pub fn resample(&self, epoch_len: f64, n_epochs: usize) -> Vec<f64> {
        assert!(epoch_len > 0.0);
        (0..n_epochs)
            .map(|i| self.mean_rate_between(i as f64 * epoch_len, (i + 1) as f64 * epoch_len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_epoch() -> RateTrace {
        // 2 s at 100 B/s, then 3 s at 1000 B/s; loop = 5 s, 3200 B per loop.
        RateTrace::new(&[
            Epoch { duration: 2.0, rate: 100.0 },
            Epoch { duration: 3.0, rate: 1000.0 },
        ])
    }

    #[test]
    fn rate_at_and_wrapping() {
        let t = two_epoch();
        assert_eq!(t.rate_at(0.0), 100.0);
        assert_eq!(t.rate_at(1.99), 100.0);
        assert_eq!(t.rate_at(2.0), 1000.0);
        assert_eq!(t.rate_at(4.999), 1000.0);
        assert_eq!(t.rate_at(5.0), 100.0); // wrapped
        assert_eq!(t.rate_at(12.5), 1000.0); // 12.5 % 5 = 2.5
        assert_eq!(t.rate_at(-0.0), 100.0); // −0.0 lies in epoch 0
    }

    #[test]
    fn bytes_between_within_epoch() {
        let t = two_epoch();
        assert!((t.bytes_between(0.0, 1.0) - 100.0).abs() < 1e-9);
        assert!((t.bytes_between(2.0, 3.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_between_across_epochs_and_loops() {
        let t = two_epoch();
        assert!((t.bytes_between(1.0, 3.0) - 1100.0).abs() < 1e-9);
        // One full loop carries 3200 B.
        assert!((t.bytes_between(0.0, 5.0) - 3200.0).abs() < 1e-9);
        // 2.5 loops starting mid-trace.
        let b = t.bytes_between(1.0, 13.5);
        // [1,5): 100 + 3000 = 3100; [5,10): 3200; [10,13.5): 200 + 1500 = 1700.
        assert!((b - 8000.0).abs() < 1e-6, "got {b}");
    }

    #[test]
    fn advance_inverts_bytes_between() {
        let t = two_epoch();
        for &(t0, bytes) in
            &[(0.0, 50.0), (0.0, 200.0), (1.5, 3000.0), (4.9, 10_000.0), (7.3, 123.4)]
        {
            let t1 = t.advance(t0, bytes);
            let back = t.bytes_between(t0, t1);
            assert!((back - bytes).abs() < 1e-6, "t0={t0} bytes={bytes}: got {back}");
        }
    }

    #[test]
    fn advance_zero_bytes_is_identity() {
        let t = two_epoch();
        assert_eq!(t.advance(3.7, 0.0), 3.7);
    }

    #[test]
    fn advance_spans_many_loops() {
        let t = two_epoch();
        // 10 loops' worth of bytes starting at 0 → exactly 50 s.
        let t1 = t.advance(0.0, 32_000.0);
        assert!((t1 - 50.0).abs() < 1e-6, "got {t1}");
    }

    #[test]
    fn zero_rate_epochs_are_skipped() {
        let t = RateTrace::new(&[
            Epoch { duration: 1.0, rate: 0.0 },
            Epoch { duration: 1.0, rate: 500.0 },
        ]);
        // Starting inside the dead epoch, 250 B needs until t = 1.5.
        let t1 = t.advance(0.5, 250.0);
        assert!((t1 - 1.5).abs() < 1e-9, "got {t1}");
    }

    #[test]
    fn mean_rate() {
        let t = two_epoch();
        assert!((t.mean_rate() - 640.0).abs() < 1e-9);
        assert!((t.mean_rate_between(0.0, 2.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn resample_averages() {
        let t = two_epoch();
        let r = t.resample(2.5, 2);
        // [0,2.5): 200+500=700 over 2.5s = 280; [2.5,5): 2500/2.5 = 1000.
        assert!((r[0] - 280.0).abs() < 1e-9);
        assert!((r[1] - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn empty_trace_panics() {
        let _ = RateTrace::new(&[]);
    }

    #[test]
    #[should_panic(expected = "some bytes")]
    fn all_zero_trace_panics() {
        let _ = RateTrace::new(&[Epoch { duration: 1.0, rate: 0.0 }]);
    }

    /// Epochs from a nanosecond to 0.4 s: a lookup a millisecond after the
    /// last one may land past several epochs.  The loop lasts under 2 s, so
    /// `loop_duration() - f64::EPSILON` is still inside it.
    fn uneven() -> RateTrace {
        let durations = [0.4, 1e-6, 0.2, 1e-9, 1e-3, 0.3, 0.05, 1e-6, 0.01, 0.2, 2e-3, 0.25];
        let epochs: Vec<Epoch> = durations
            .iter()
            .enumerate()
            .map(|(i, &duration)| Epoch { duration, rate: 100.0 * (i + 1) as f64 })
            .collect();
        RateTrace::new(&epochs)
    }

    #[test]
    fn cursor_never_changes_the_epoch_found() {
        let trace = uneven();
        let n = trace.len();
        let end = trace.loop_duration() - f64::EPSILON;
        assert!(end < trace.loop_duration());
        let mut queries = vec![-0.0, end];
        for i in 0..n {
            let start = trace.starts[i];
            let next = trace.starts.get(i + 1).copied().unwrap_or(trace.loop_duration());
            queries.extend([start, 0.5 * (start + next)]);
            if i > 0 {
                queries.push(start.next_down());
            }
        }
        for cursor in 0..n {
            for &t in &queries {
                let want = trace.starts.partition_point(|&s| s <= t) - 1;
                trace.cursor.set(cursor);
                assert_eq!(trace.epoch_index(t), want, "t = {t:e}, cursor at epoch {cursor}");
                trace.cursor.set(cursor);
                assert_eq!(trace.rate_at(t), trace.rates[want], "t = {t:e}, cursor {cursor}");
            }
        }
    }

    #[test]
    fn queries_next_to_a_loop_boundary_answer() {
        // `t0 / d` rounds up to 8645 here and the wrapped time comes out
        // 1.86e-9 s below the loop's start; the epoch search used to find no
        // epoch, index out of bounds, and leave the cursor out of range.
        let trace = RateTrace::constant(1000.0, 1479.119942748379);
        let t0 = 12786991.905059734;
        assert!(t0 - (t0 / trace.loop_duration()).floor() * trace.loop_duration() < 0.0);
        assert!((trace.advance(t0, 1.0) - t0 - 1e-3).abs() < 1e-8);
        assert!((trace.bytes_between(t0, t0 + 1.0) - 1000.0).abs() < 1e-5);
        assert_eq!(trace.rate_at(t0), 1000.0);
        // Here `t0 / d` rounds down to 27097 and the wrapped time lands
        // 4.8e-10 s past the loop's end.
        let trace = two_epoch_scaled(1467.8007271061533);
        let d = trace.loop_duration();
        let t0 = 39774464.10312254;
        assert!(t0 - (t0 / d).floor() * d > d);
        assert_eq!(trace.advance(t0, 50.0), trace.advance(27098.0 * d, 50.0));
        assert!((trace.bytes_between(t0, t0 + 1.0) - 100.0).abs() < 1e-5);
        assert_eq!(trace.rate_at(t0 + 1.0), 100.0);
    }

    /// One `d`-second loop: `0.4 d` at 100 B/s, then `0.6 d` at 1000 B/s.
    fn two_epoch_scaled(d: f64) -> RateTrace {
        RateTrace::new(&[
            Epoch { duration: 0.4 * d, rate: 100.0 },
            Epoch { duration: d - 0.4 * d, rate: 1000.0 },
        ])
    }

    #[test]
    fn constant_trace() {
        let t = RateTrace::constant(1000.0, 10.0);
        assert_eq!(t.rate_at(3.0), 1000.0);
        assert!((t.advance(0.0, 5000.0) - 5.0).abs() < 1e-9);
    }
}
