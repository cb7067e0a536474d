//! Layers, spans and their per-layer summaries.
//!
//! Spans are recorded by the benchmark around calls into each layer's public
//! functions (there are no spans inside the program), kept in memory, and
//! written out when the run ends.

use std::time::Instant;

/// A layer boundary the traced pass times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `SessionRun::begin`: trace sampling and `Connection::new`.
    SessionBegin,
    /// `SessionRun::poll_decision` + `advance` minus the ABR callbacks:
    /// network, media, user model and telemetry.
    StreamStep,
    BbaChoose,
    MpcHmChoose,
    RobustMpcChoose,
    /// `StochasticMpc::fill_dists`: TTP inference on the nn kernel tier.
    TtpInfer,
    /// `StochasticMpc::plan_from_dists`: Fugu's value iteration.
    ControllerPlan,
    /// `fugu::train`.
    Train,
    /// `fugu::validate_retrained`.
    Validate,
    /// `TelemetrySpool::add_session`.
    ArchiveSpill,
    /// `merge_spools`.
    ArchiveMerge,
    /// `ArchiveReader::next_block`.
    ArchiveRead,
    /// `bootstrap_ratio_ci` / `weighted_mean_ci`.
    StatsCi,
    /// `Abr::reset_stream` / `on_chunk_delivered` inside a stream step; not
    /// reported on its own, but counted in coverage.
    AbrCallback,
}

impl Layer {
    /// Every layer reported as `<name>.calls|busy_s|p50_us|p99_us`.
    pub const REPORTED: [Layer; 13] = [
        Layer::SessionBegin,
        Layer::StreamStep,
        Layer::BbaChoose,
        Layer::MpcHmChoose,
        Layer::RobustMpcChoose,
        Layer::TtpInfer,
        Layer::ControllerPlan,
        Layer::Train,
        Layer::Validate,
        Layer::ArchiveSpill,
        Layer::ArchiveMerge,
        Layer::ArchiveRead,
        Layer::StatsCi,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::SessionBegin => "platform.session.begin",
            Layer::StreamStep => "platform.stream.step",
            Layer::BbaChoose => "abr.bba.choose",
            Layer::MpcHmChoose => "abr.mpc_hm.choose",
            Layer::RobustMpcChoose => "abr.robust_mpc.choose",
            Layer::TtpInfer => "core.ttp.infer",
            Layer::ControllerPlan => "core.controller.plan",
            Layer::Train => "core.training.train",
            Layer::Validate => "core.training.validate",
            Layer::ArchiveSpill => "platform.archive.spill",
            Layer::ArchiveMerge => "platform.archive.merge",
            Layer::ArchiveRead => "platform.archive.read",
            Layer::StatsCi => "stats.ci",
            Layer::AbrCallback => "abr.callback",
        }
    }

    /// Layers timed on the session worker threads (the rest run on the
    /// main thread between days or after the run).
    pub fn on_workers(self) -> bool {
        matches!(
            self,
            Layer::SessionBegin
                | Layer::StreamStep
                | Layer::BbaChoose
                | Layer::MpcHmChoose
                | Layer::RobustMpcChoose
                | Layer::TtpInfer
                | Layer::ControllerPlan
                | Layer::ArchiveSpill
                | Layer::AbrCallback
        )
    }
}

/// Something that can run a closure as a call into a layer.
pub trait Clock {
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T;
}

/// The untraced clock: runs the closure, records nothing.
#[derive(Debug, Default)]
pub struct NoClock;

impl Clock for NoClock {
    fn span<T>(&mut self, _layer: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// The enclosing layer, if this call happened inside another span.
    pub parent: Option<Layer>,
    /// Session index within its day (`u32::MAX` outside sessions); spans of
    /// one session share it.
    pub session: u32,
    pub day: u32,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Duration minus the time of child spans.
    pub self_ns: u64,
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    pub session: u32,
    pub day: u32,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder { origin, spans: Vec::new(), session: u32::MAX, day: 0 }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        layer: Layer,
        parent: Option<Layer>,
        start: Instant,
        dur_ns: u64,
        self_ns: u64,
    ) {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            layer,
            parent,
            session: self.session,
            day: self.day,
            start_ns,
            dur_ns,
            self_ns,
        });
    }
}

impl Clock for Recorder {
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = crate::sys::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        self.push(layer, None, t0, dur, dur);
        out
    }
}

/// Calls, busy time (self time) and self-time percentiles of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    pub calls: u64,
    pub busy_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Summarise the spans of one layer.
pub fn layer_stats(spans: &[Span], layer: Layer) -> LayerStats {
    let mut selfs: Vec<u64> =
        spans.iter().filter(|s| s.layer == layer).map(|s| s.self_ns).collect();
    if selfs.is_empty() {
        return LayerStats::default();
    }
    selfs.sort_unstable();
    let pct = |q: f64| selfs[((selfs.len() - 1) as f64 * q).round() as usize] as f64 / 1e3;
    LayerStats {
        calls: selfs.len() as u64,
        busy_s: selfs.iter().sum::<u64>() as f64 / 1e9,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

/// Write spans as CSV (`layer,parent,day,session,start_ns,dur_ns,self_ns`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer,parent,day,session,start_ns,dur_ns,self_ns")?;
    for s in spans {
        let session = if s.session == u32::MAX { String::new() } else { s.session.to_string() };
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.layer.name(),
            s.parent.map_or("", Layer::name),
            s.day,
            session,
            s.start_ns,
            s.dur_ns,
            s.self_ns
        )?;
    }
    out.flush()
}
