//! # tcgen-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures — the seven competing compressors behind one
//! interface, the three performance metrics of §6.5, harmonic-mean
//! aggregation, and the trace corpus of Table 1.

use std::time::Instant;

use tcgen_baselines::{BzipOnly, CodecError, Mache, Pdats2, Sbc, Sequitur, TraceCompressor};
use tcgen_engine::{Backend, Engine, EngineOptions, Recorder};
use tcgen_spec::presets;
use tcgen_tracegen::{generate_trace, suite, ProgramSpec, TraceKind, VpcTrace};

/// An engine configuration adapted to the common codec interface.
pub struct EngineCodec {
    name: &'static str,
    engine: Engine,
}

impl EngineCodec {
    /// Wraps an engine under a display name.
    pub fn new(name: &'static str, spec_source: &str, options: EngineOptions) -> Self {
        let spec = tcgen_spec::parse(spec_source).expect("preset specs are valid");
        Self { name, engine: Engine::new(spec, options) }
    }

    /// Attaches a telemetry recorder to the wrapped engine; measurements
    /// then feed its spans and counters without changing their bytes.
    #[must_use]
    pub fn with_telemetry(mut self, recorder: Recorder) -> Self {
        self.engine = self.engine.with_telemetry(recorder);
        self
    }
}

impl TraceCompressor for EngineCodec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn compress(&self, raw: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.engine.compress(raw).map_err(|e| CodecError::BadTrace(e.to_string()))
    }

    fn decompress(&self, packed: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.engine.decompress(packed).map_err(|e| CodecError::Corrupt(e.to_string()))
    }
}

/// The seven §7 algorithms plus the two non-default TCgen post-
/// compression profiles, in a fixed display order. `TCgen` itself is
/// `--profile max`; the `TCgen-balanced` and `TCgen-fast` rows measure
/// the ratio/speed trade the other backends buy.
pub fn algorithms() -> Vec<Box<dyn TraceCompressor>> {
    vec![
        Box::new(EngineCodec::new("TCgen", presets::TCGEN_A, EngineOptions::tcgen())),
        Box::new(EngineCodec::new(
            "TCgen-balanced",
            presets::TCGEN_A,
            EngineOptions { backend: Backend::Balanced, ..EngineOptions::tcgen() },
        )),
        Box::new(EngineCodec::new(
            "TCgen-fast",
            presets::TCGEN_A,
            EngineOptions { backend: Backend::Fast, ..EngineOptions::tcgen() },
        )),
        Box::new(EngineCodec::new("VPC3", presets::TCGEN_A, EngineOptions::vpc3())),
        Box::new(Sbc),
        Box::new(Sequitur::default()),
        Box::new(Mache),
        Box::new(Pdats2),
        Box::new(BzipOnly),
    ]
}

/// The TCgen(B) configuration (paper §7.5).
pub fn tcgen_b() -> EngineCodec {
    EngineCodec::new("TCgen(B)", presets::TCGEN_B, EngineOptions::tcgen())
}

/// The six Table 2 engine configurations, labelled as in the paper.
pub fn ablation_rows() -> Vec<(&'static str, EngineOptions)> {
    vec![
        ("no smart update", EngineOptions::no_smart_update()),
        ("no type minimization", EngineOptions::no_type_minimization()),
        ("no shared tables", EngineOptions::no_shared_tables()),
        ("no fast hash function", EngineOptions::no_fast_hash()),
        ("all of the above", EngineOptions::all_deoptimized()),
        ("full optimizations", EngineOptions::tcgen()),
    ]
}

/// One compression + decompression measurement (§6.5 inputs).
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Uncompressed size in bytes.
    pub original: usize,
    /// Compressed size in bytes.
    pub compressed: usize,
    /// Compression wall time in seconds.
    pub compress_seconds: f64,
    /// Decompression wall time in seconds.
    pub decompress_seconds: f64,
}

impl Measurement {
    /// Compression rate: `uncompressed / compressed` (unitless).
    pub fn rate(&self) -> f64 {
        self.original as f64 / self.compressed as f64
    }

    /// Compression speed in bytes per second.
    pub fn compress_speed(&self) -> f64 {
        self.original as f64 / self.compress_seconds
    }

    /// Decompression speed in bytes per second.
    pub fn decompress_speed(&self) -> f64 {
        self.original as f64 / self.decompress_seconds
    }
}

/// Runs one codec over one raw trace, verifying losslessness (the paper
/// "diffs" every decompressed trace against the original).
///
/// # Panics
///
/// Panics if the codec fails or the decompressed trace differs.
pub fn measure(codec: &dyn TraceCompressor, raw: &[u8]) -> Measurement {
    let t0 = Instant::now();
    let packed = codec.compress(raw).expect("compression failed");
    let compress_seconds = t0.elapsed().as_secs_f64().max(1e-9);
    let t1 = Instant::now();
    let restored = codec.decompress(&packed).expect("decompression failed");
    let decompress_seconds = t1.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(restored, raw, "{} is not lossless", codec.name());
    Measurement {
        original: raw.len(),
        compressed: packed.len(),
        compress_seconds,
        decompress_seconds,
    }
}

/// The harmonic mean, the paper's aggregation for inversely normalized
/// metrics (§6.5).
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of nothing");
    let sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "harmonic mean needs positive values, got {v}");
            1.0 / v
        })
        .sum();
    values.len() as f64 / sum
}

/// The evaluation corpus: every (program, kind) pair of Table 1 that the
/// paper includes, with traces generated at `base_records` scale.
pub fn corpus(kind: TraceKind, base_records: usize) -> Vec<(ProgramSpec, VpcTrace)> {
    suite()
        .into_iter()
        .filter(|p| p.includes(kind))
        .map(|p| {
            let trace = generate_trace(&p, kind, base_records);
            (p, trace)
        })
        .collect()
}

/// Converts a byte count to megabytes (10^6 bytes), the MB of the
/// telemetry report, `tcgen top` and the end-to-end benchmark. Callers
/// choose the printed precision.
pub fn mb(bytes: f64) -> f64 {
    bytes / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_known_values() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        // HM(1, 2) = 2 / (1 + 0.5) = 4/3.
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        // The harmonic mean is dominated by small values.
        assert!(harmonic_mean(&[100.0, 1.0]) < 2.0);
    }

    #[test]
    fn all_algorithms_measure_losslessly() {
        let trace = generate_trace(&suite()[6], TraceKind::StoreAddress, 2_000).to_bytes();
        for codec in algorithms() {
            let m = measure(codec.as_ref(), &trace);
            assert!(m.rate() > 0.0);
            assert!(m.compress_speed() > 0.0);
        }
    }

    #[test]
    fn corpus_sizes_match_table1_structure() {
        assert_eq!(corpus(TraceKind::StoreAddress, 100).len(), 19);
        assert_eq!(corpus(TraceKind::CacheMissAddress, 100).len(), 22);
        assert_eq!(corpus(TraceKind::LoadValue, 100).len(), 14);
    }

    #[test]
    fn mb_is_decimal() {
        assert_eq!(mb(1e6), 1.0);
        assert_eq!(mb(2.5e6), 2.5);
    }

    #[test]
    fn ablation_has_six_rows_ending_with_full() {
        let rows = ablation_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[5].0, "full optimizations");
    }
}
