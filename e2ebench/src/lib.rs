//! End-to-end and per-layer benchmark of the TCgen reproduction.
//!
//! Three workloads drive the system through its public functions only —
//! `tcgen_engine::{compress_stream, decompress_stream, Engine,
//! extract_range}` and `tcgen_server::{Daemon, serve_listener, Client}`
//! — on inputs `tcgen_tracegen` makes from the workload seed. A run
//! prints every end-to-end metric with its unit and sample count, after
//! verifying every operation's output; a traced run instead times each
//! layer's public functions on the same inputs. See `README.md` in this
//! directory for why each workload exists.

pub mod check;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workloads;

use tcgen_engine::Backend;
use tcgen_spec::presets::TCGEN_A;

use crate::check::Tally;
use crate::inputs::{archive_traces, request_pool, seek_trace, Scale, TraceInput};
use crate::layers::Layers;
use crate::spans::{Span, Spans};
use crate::stats::Metric;
use crate::workloads::Run;

/// Every end-to-end metric with its unit, in the order runs print them
/// and `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("compress_mb_s", "MB/s"),
    ("decompress_mb_s", "MB/s"),
    ("compression_rate", "x"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
];

/// How many serve-small request inputs the traced run probes: enough for
/// the size mix, few enough to keep the traced run short.
pub const PROBED_REQUESTS: usize = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streaming compress and decompress of three archival-size traces.
    ArchiveLarge,
    /// Small requests to an in-process daemon over a unix socket.
    ServeSmall,
    /// Checkpointed compress, full decompress and range extraction.
    SeekRange,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::ArchiveLarge, Workload::ServeSmall, Workload::SeekRange];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveLarge => "archive-large",
            Workload::ServeSmall => "serve-small",
            Workload::SeekRange => "seek-range",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One timed run.
    ///
    /// # Errors
    ///
    /// When the workload cannot run at all (a failed set-up, too few
    /// rounds); failed operations are counted, not errors.
    pub fn run(
        self,
        seed: u64,
        seconds: f64,
        scale: &Scale,
        spans: Option<&Spans>,
    ) -> Result<Run, String> {
        match self {
            Workload::ArchiveLarge => workloads::archive_large(seed, seconds, scale, spans),
            Workload::ServeSmall => workloads::serve_small(seed, seconds, scale, spans),
            Workload::SeekRange => workloads::seek_range(seed, seconds, scale, spans),
        }
    }

    /// The inputs the traced run's layer probes use: the workload's own,
    /// each with its spec and profile (for serve-small,
    /// [`PROBED_REQUESTS`] evenly spaced over the size-ordered request
    /// pool).
    pub fn probe_inputs(self, seed: u64, scale: &Scale) -> Vec<TraceInput> {
        let archival = |trace| TraceInput { trace, spec: TCGEN_A, backend: Backend::Max };
        match self {
            Workload::ArchiveLarge => {
                archive_traces(seed, scale).into_iter().map(archival).collect()
            }
            Workload::ServeSmall => {
                let pool = request_pool(seed, scale);
                let step = (pool.len() / PROBED_REQUESTS).max(1);
                pool.into_iter().step_by(step).collect()
            }
            Workload::SeekRange => vec![archival(seek_trace(seed, scale))],
        }
    }
}

/// What one benchmark invocation prints.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted and failed, verification included.
    pub tally: Tally,
    /// The metrics of the result line: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Further lines printed above the result line: latency
    /// percentiles, or the traced run's untraced and traced end-to-end
    /// figures.
    pub lines: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

/// Runs `workload` for `seconds`: timed (end-to-end metrics) or traced
/// (per-layer metrics).
///
/// # Errors
///
/// When the workload cannot run, or a percentile has too few samples
/// beyond it.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
) -> Result<Report, String> {
    if !traced {
        let run = workload.run(seed, seconds, scale, None)?;
        let lines =
            run.percentiles?.iter().map(|m| format!("percentile {}", describe(m))).collect();
        return Ok(Report { tally: run.tally, metrics: run.metrics, lines, spans: Vec::new() });
    }
    // Tracing overhead: the same loop untraced, traced, traced and
    // untraced again (so warm-up favours neither), each for an eighth of
    // the run, with the minimum sample counts relaxed (no percentile is
    // reported from them).
    let quick =
        Scale { setup_reps: 1, min_rounds: 1, min_requests: 1, min_extracts: 1, ..*scale };
    let spans = Spans::default();
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    let mut rps = [0.0; 2];
    for traced in [false, true, true, false] {
        let run = workload.run(seed, seconds / 8.0, &quick, traced.then_some(&spans))?;
        let label = if traced { "traced" } else { "untraced" };
        lines.extend(run.metrics.iter().map(|m| format!("{label} {}", describe(m))));
        let requests = run.metrics.iter().find(|m| m.name == "requests_per_s");
        rps[usize::from(traced)] += requests.expect("requests_per_s is end-to-end").value;
        tally.merge(run.tally);
    }
    let mut layers = Layers::default();
    layers.set("tracing.overhead_pct", (rps[0] / rps[1] - 1.0) * 100.0, 4);
    let inputs = workload.probe_inputs(seed, scale);
    layers::measure(&inputs, scale, seed, &spans, &mut tally, &mut layers)?;
    Ok(Report { tally, metrics: layers.into_metrics()?, lines, spans: spans.take() })
}

/// `name value unit (n samples)`, the way every metric prints.
pub fn describe(m: &Metric) -> String {
    format!("{:<34} {:>14.4} {:<6} ({} samples)", m.name, m.value, m.unit, m.samples)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Errors
///
/// When a metric is not a finite number.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}
