//! The traced run's per-layer metrics. Each one times public functions
//! of one layer, called from here, on the workload's own inputs, inside
//! a span, so a regression in an end-to-end metric can be traced to the
//! module that caused it.

use std::io::Cursor;

use blockzip::{bwt, mtf, rle};
use tcgen_engine::codec::{raw_streams, replay_streams};
use tcgen_engine::streams::{field_offsets, read_value};
use tcgen_engine::{
    compress_stream, decompress_stream, extract_range, Backend, Engine, EngineOptions,
    Recorder, SEEK_BYTES_READ,
};
use tcgen_predictors::SpecBanks;
use tcgen_server::proto::{frame_type, read_frame, write_frame, CHUNK};
use tcgen_server::{JobKind, JobRequest};
use tcgen_spec::TraceSpec;

use crate::check::{same, Tally};
use crate::inputs::{extract_offsets, Rng, Scale, TraceInput, HEADER_BYTES, RECORD_BYTES};
use crate::spans::Spans;
use crate::stats::{intercept, median, Metric};
use crate::workloads::{parse, seek_options, socket_path, Served};

/// Every per-layer metric with its unit, in the order the traced run
/// prints them and `BENCHMARK.json` lists them.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("spec.parse_us", "us"),
    ("engine.new_us", "us"),
    ("predictors.model_ns_per_record", "ns"),
    ("predictors.replay_ns_per_record", "ns"),
    ("predictors.fixed_ms", "ms"),
    ("predictors.table_mb", "MB"),
    ("predictors.hit_rate", "share"),
    ("predictors.snapshot_ms", "ms"),
    ("predictors.restore_ms", "ms"),
    ("predictors.snapshot_kb", "KB"),
    ("blockzip.max.pack_ns_per_byte", "ns"),
    ("blockzip.max.unpack_ns_per_byte", "ns"),
    ("blockzip.fast.pack_ns_per_byte", "ns"),
    ("blockzip.fast.unpack_ns_per_byte", "ns"),
    ("blockzip.bwt_ns_per_byte", "ns"),
    ("blockzip.unbwt_ns_per_byte", "ns"),
    ("blockzip.mtf_rle_ns_per_byte", "ns"),
    ("blockzip.stream_bytes_per_record", "count"),
    ("engine.compress_ms", "ms"),
    ("engine.decompress_ms", "ms"),
    ("engine.compress_unaccounted_ms", "ms"),
    ("engine.decompress_unaccounted_ms", "ms"),
    ("stream_io.compress_ms", "ms"),
    ("stream_io.decompress_ms", "ms"),
    ("pool.compress_speedup", "x"),
    ("pool.decompress_speedup", "x"),
    ("pool.small_overhead_ms", "ms"),
    ("seek.checkpoint_unpack_ms", "ms"),
    ("seek.checkpoint_kb", "KB"),
    ("seek.bytes_read_per_extract", "count"),
    ("server.frame_mb_s", "MB/s"),
    ("server.overhead_ms", "ms"),
    ("server.cache_hit_rate", "share"),
    ("server.backpressure_waits", "count"),
    ("tracing.overhead_pct", "%"),
];

/// Records per input in the `pool.small_overhead_ms` probe: a typical
/// serve-small request.
const SMALL_RECORDS: usize = 8_000;

/// Repetitions of the microsecond-scale spec and engine probes.
const MICRO_REPS: usize = 25;

/// Most inputs any one probe sends through the daemon.
const MAX_SERVED: usize = 16;

/// Collects metrics by name; the traced run prints them in
/// [`LAYER_METRICS`] order.
#[derive(Debug, Default)]
pub struct Layers {
    metrics: Vec<(&'static str, f64, usize)>,
}

impl Layers {
    /// Sets `name` to `value` from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    /// Every metric of [`LAYER_METRICS`], in order.
    ///
    /// # Errors
    ///
    /// When one was not measured, or is not a finite number.
    pub fn into_metrics(self) -> Result<Vec<Metric>, String> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let &(_, value, samples) = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
                if !value.is_finite() {
                    return Err(format!("per-layer metric {name} is {value}"));
                }
                Ok(Metric::new(name, unit, value, samples))
            })
            .collect()
    }
}

fn serial(backend: Backend) -> EngineOptions {
    EngineOptions { backend, threads: 1, model_threads: 1, ..EngineOptions::tcgen() }
}

fn default_threads(backend: Backend) -> EngineOptions {
    EngineOptions { backend, ..EngineOptions::tcgen() }
}

/// One probe input with its spec, parsed once.
struct Input<'a> {
    request: &'a TraceInput,
    spec: TraceSpec,
}

/// Per-input times the engine remainders subtract.
#[derive(Default, Clone, Copy)]
struct Accounted {
    model_s: f64,
    replay_s: f64,
    pack_s: f64,
    unpack_s: f64,
}

/// Measures every layer metric except the tracing ones on `inputs`.
///
/// # Errors
///
/// When a call fails outright; output mismatches are counted in `tally`.
pub fn measure(
    inputs: &[TraceInput],
    scale: &Scale,
    seed: u64,
    spans: &Spans,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    let inputs: Vec<Input> = inputs
        .iter()
        .map(|request| Ok(Input { request, spec: parse(request.spec)? }))
        .collect::<Result<_, String>>()?;
    let largest = inputs.iter().max_by_key(|i| i.request.trace.raw.len()).expect("inputs");
    let mut accounted = vec![Accounted::default(); inputs.len()];

    spans.time("layer.spec", 0, 0, |root| spec_layer(&inputs, spans, root, out)).0?;
    let streams = spans
        .time("layer.predictors", 0, 0, |root| {
            predictors_layer(&inputs, largest, spans, root, tally, &mut accounted, out)
        })
        .0?;
    spans
        .time("layer.blockzip", 0, 0, |root| {
            blockzip_layer(&inputs, &streams, spans, root, tally, &mut accounted, out)
        })
        .0?;
    drop(streams);
    spans
        .time("layer.engine", 0, 0, |root| {
            engine_layer(&inputs, &accounted, spans, root, tally, out)
        })
        .0?;
    spans
        .time("layer.seek", 0, 0, |root| {
            seek_layer(largest, scale, seed, spans, root, tally, out)
        })
        .0?;
    spans.time("layer.server", 0, 0, |root| server_layer(&inputs, spans, root, tally, out)).0?;
    Ok(())
}

fn spec_layer(
    inputs: &[Input],
    spans: &Spans,
    root: u64,
    out: &mut Layers,
) -> Result<(), String> {
    let mut parse_us = Vec::new();
    let mut new_us = Vec::new();
    for (op, input) in inputs.iter().enumerate() {
        let op = op as u64 + 1;
        let text = input.request.spec;
        for _ in 0..MICRO_REPS {
            let (spec, dt) = spans.time("spec.parse", root, op, |_| tcgen_spec::parse(text));
            std::hint::black_box(spec.map_err(|e| e.to_string())?);
            parse_us.push(dt * 1e6);
            let (spec, options) = (input.spec.clone(), default_threads(input.request.backend));
            let (engine, dt) =
                spans.time("engine.new", root, op, |_| Engine::new(spec, options));
            std::hint::black_box(engine);
            new_us.push(dt * 1e6);
        }
    }
    out.set("spec.parse_us", median(&parse_us).expect("inputs"), parse_us.len());
    out.set("engine.new_us", median(&new_us).expect("inputs"), new_us.len());
    Ok(())
}

fn records(input: &Input) -> usize {
    input.request.trace.records()
}

/// `raw_streams` at one thread over every input, `replay_streams` back,
/// predictor tables, hit rates, the fixed-cost fit and the snapshot of
/// the largest input. Returns each input's raw streams.
fn predictors_layer(
    inputs: &[Input],
    largest: &Input,
    spans: &Spans,
    root: u64,
    tally: &mut Tally,
    accounted: &mut [Accounted],
    out: &mut Layers,
) -> Result<Vec<Vec<Vec<u8>>>, String> {
    let mut all = Vec::with_capacity(inputs.len());
    let (mut model_s, mut replay_s, mut n, mut stream_bytes) = (0.0, 0.0, 0usize, 0usize);
    let (mut hits, mut total, mut table_bytes) = (0u64, 0u64, 0usize);
    for (i, input) in inputs.iter().enumerate() {
        let op = i as u64 + 1;
        let (raw, options) = (&input.request.trace.raw, serial(input.request.backend));
        let (streams, dt) = spans.time("predictors.raw_streams", root, op, |_| {
            raw_streams(&input.spec, &options, raw)
        });
        let streams = streams.map_err(|e| format!("raw_streams: {e}"))?;
        model_s += dt;
        accounted[i].model_s = dt;
        let copy = streams.clone();
        let (body, dt) = spans.time("predictors.replay_streams", root, op, |_| {
            replay_streams(&input.spec, &options, copy)
        });
        replay_s += dt;
        accounted[i].replay_s = dt;
        tally.record(
            body.map_err(|e| format!("replay_streams: {e}"))
                .and_then(|body| same("replay_streams", &body, &raw[HEADER_BYTES..])),
        );
        n += records(input);
        stream_bytes += streams.iter().map(Vec::len).sum::<usize>();
        all.push(streams);

        let engine = Engine::new(input.spec.clone(), default_threads(input.request.backend));
        let (usage, _) = spans
            .time("engine.compress_with_usage", root, op, |_| engine.compress_with_usage(raw));
        let (_, usage) = usage.map_err(|e| format!("compress_with_usage: {e}"))?;
        for field in &usage.fields {
            hits += field.total() - field.misses;
            total += field.total();
        }
        table_bytes =
            table_bytes.max(SpecBanks::new(&input.spec, options.predictor).memory_bytes());
    }
    out.set("predictors.model_ns_per_record", model_s * 1e9 / n as f64, inputs.len());
    out.set("predictors.replay_ns_per_record", replay_s * 1e9 / n as f64, inputs.len());
    out.set("blockzip.stream_bytes_per_record", stream_bytes as f64 / n as f64, inputs.len());
    out.set("predictors.table_mb", table_bytes as f64 / 1e6, inputs.len());
    out.set("predictors.hit_rate", hits as f64 / total.max(1) as f64, inputs.len());

    // Fixed cost: the intercept of modeling time against records, over
    // prefixes from 1,000 records up by ×4, and the whole input.
    let options = serial(largest.request.backend);
    let mut sizes = vec![records(largest)];
    let mut size = 1_000.min(records(largest) / 4).max(1);
    while size < records(largest) {
        sizes.push(size);
        size *= 4;
    }
    let mut points = Vec::new();
    for size in sizes {
        let prefix = largest.request.trace.prefix(size);
        let mut times = Vec::new();
        for _ in 0..3 {
            let (s, dt) = spans.time("predictors.raw_streams", root, 0, |_| {
                raw_streams(&largest.spec, &options, &prefix.raw)
            });
            std::hint::black_box(s.map_err(|e| format!("raw_streams: {e}"))?);
            times.push(dt * 1e3);
        }
        points.push((size as f64, median(&times).expect("three times")));
    }
    let fixed = intercept(&points).ok_or("too few prefix sizes for the fixed-cost fit")?;
    out.set("predictors.fixed_ms", fixed, points.len());

    snapshot_probe(largest, spans, root, tally, out)?;
    Ok(all)
}

/// Models the largest input through the predictor banks, then times
/// `FieldBank::snapshot` and `restore` and unpacking the snapshot frame.
fn snapshot_probe(
    input: &Input,
    spans: &Spans,
    root: u64,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    let spec = &input.spec;
    let options = serial(input.request.backend);
    let offsets = field_offsets(spec);
    let record_len = spec.record_bytes() as usize;
    let body = &input.request.trace.raw[spec.header_bytes() as usize..];
    let columns: Vec<Vec<u64>> = spec
        .fields
        .iter()
        .zip(&offsets)
        .map(|(f, &off)| {
            body.chunks_exact(record_len)
                .map(|r| read_value(&r[off..], f.bytes() as usize))
                .collect()
        })
        .collect();
    let mut banks = SpecBanks::new(spec, options.predictor);
    let pcs = columns[banks.pc_index()].clone();
    spans.time("predictors.model_column", root, 0, |_| {
        let (mut codes, mut misses) = (Vec::new(), Vec::new());
        for &f in &banks.processing_order().to_vec() {
            codes.clear();
            misses.clear();
            banks.bank_mut(f).model_column(&pcs, &columns[f], &mut codes, &mut misses);
        }
    });
    drop(columns);
    let (mut snapshot_s, mut restore_s) = (0.0, 0.0);
    let mut frame_body = Vec::new();
    let mut fresh = SpecBanks::new(spec, options.predictor);
    for f in 0..banks.len() {
        let (snap, dt) =
            spans.time("predictors.snapshot", root, 0, |_| banks.bank(f).snapshot());
        snapshot_s += dt;
        let (restored, dt) =
            spans.time("predictors.restore", root, 0, |_| fresh.bank_mut(f).restore(&snap));
        restore_s += dt;
        tally.record(
            restored
                .map_err(|e| format!("restore: {e:?}"))
                .and_then(|()| same("restored snapshot", &fresh.bank(f).snapshot(), &snap)),
        );
        frame_body.extend_from_slice(&snap);
    }
    out.set("predictors.snapshot_ms", snapshot_s * 1e3, banks.len());
    out.set("predictors.restore_ms", restore_s * 1e3, banks.len());
    out.set("predictors.snapshot_kb", frame_body.len() as f64 / 1e3, banks.len());

    // Checkpoint frames are packed with the fast codec whatever the
    // container's profile.
    let mut codec = Backend::Fast.codec(options.level);
    let frame = codec.compress(&frame_body).map_err(|e| format!("checkpoint pack: {e}"))?;
    let (unpacked, dt) = spans.time("seek.checkpoint_unpack", root, 0, |_| {
        codec.decompress(&frame, frame_body.len())
    });
    tally.record(
        unpacked
            .map_err(|e| format!("checkpoint unpack: {e}"))
            .and_then(|u| same("checkpoint frame", &u, &frame_body)),
    );
    out.set("seek.checkpoint_unpack_ms", dt * 1e3, 1);
    out.set("seek.checkpoint_kb", frame.len() as f64 / 1e3, 1);
    Ok(())
}

/// Both post-compression codecs and the BWT chain's stages over every
/// raw stream.
fn blockzip_layer(
    inputs: &[Input],
    streams: &[Vec<Vec<u8>>],
    spans: &Spans,
    root: u64,
    tally: &mut Tally,
    accounted: &mut [Accounted],
    out: &mut Layers,
) -> Result<(), String> {
    let level = EngineOptions::tcgen().level;
    let bytes: usize = streams.iter().flatten().map(Vec::len).sum();
    let per_byte = |s: f64| s * 1e9 / bytes as f64;
    for (backend, pack_name, unpack_name) in [
        (Backend::Max, "blockzip.max.pack_ns_per_byte", "blockzip.max.unpack_ns_per_byte"),
        (Backend::Fast, "blockzip.fast.pack_ns_per_byte", "blockzip.fast.unpack_ns_per_byte"),
    ] {
        let mut codec = backend.codec(level);
        let (mut pack_s, mut unpack_s) = (0.0, 0.0);
        for (i, input_streams) in streams.iter().enumerate() {
            let op = i as u64 + 1;
            for s in input_streams {
                let (packed, dt) = spans.time("blockzip.pack", root, op, |_| codec.compress(s));
                let packed = packed.map_err(|e| format!("{} pack: {e}", backend.profile()))?;
                pack_s += dt;
                let (unpacked, udt) = spans
                    .time("blockzip.unpack", root, op, |_| codec.decompress(&packed, s.len()));
                unpack_s += udt;
                tally.record(
                    unpacked
                        .map_err(|e| format!("{} unpack: {e}", backend.profile()))
                        .and_then(|u| same("unpacked stream", &u, s)),
                );
                if inputs[i].request.backend == backend {
                    accounted[i].pack_s += dt;
                    accounted[i].unpack_s += udt;
                }
            }
        }
        out.set(pack_name, per_byte(pack_s), streams.len());
        out.set(unpack_name, per_byte(unpack_s), streams.len());
    }

    // The max chain's stages, on the block size the max codec uses.
    let mut scratch = bwt::Scratch::default();
    let (mut lf, mut text, mut ranks, mut symbols) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bwt_s, mut unbwt_s, mut mtf_rle_s, mut blocks) = (0.0, 0.0, 0.0, 0usize);
    for (i, s) in streams.iter().enumerate() {
        let op = i as u64 + 1;
        for block in s.iter().flat_map(|s| s.chunks(level.block_size())) {
            let (t, dt) = spans
                .time("blockzip.bwt", root, op, |_| bwt::forward_with(block, &mut scratch));
            bwt_s += dt;
            text.clear();
            let (inverted, dt) = spans.time("blockzip.unbwt", root, op, |_| {
                bwt::inverse_into(&t, &mut lf, &mut text)
            });
            unbwt_s += dt;
            tally.record(inverted.and_then(|()| same("inverse BWT", &text, block)));
            let ((), dt) = spans.time("blockzip.mtf_rle", root, op, |_| {
                mtf::encode_into(&t.data, &mut ranks);
                rle::encode_into(&ranks, &mut symbols);
            });
            std::hint::black_box(&symbols);
            mtf_rle_s += dt;
            blocks += 1;
        }
    }
    out.set("blockzip.bwt_ns_per_byte", per_byte(bwt_s), blocks);
    out.set("blockzip.unbwt_ns_per_byte", per_byte(unbwt_s), blocks);
    out.set("blockzip.mtf_rle_ns_per_byte", per_byte(mtf_rle_s), blocks);
    Ok(())
}

/// `Engine` at one thread and at the default thread count, and the
/// streaming driver at one thread, over every input.
fn engine_layer(
    inputs: &[Input],
    accounted: &[Accounted],
    spans: &Spans,
    root: u64,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    let (mut c1, mut d1, mut sc, mut sd, mut cd, mut dd) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut small_overhead = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let op = i as u64 + 1;
        let raw = &input.request.trace.raw;
        let serial_options = serial(input.request.backend);
        let one = Engine::new(input.spec.clone(), serial_options);
        let many = Engine::new(input.spec.clone(), default_threads(input.request.backend));

        let (packed, dt) = spans.time("engine.compress", root, op, |_| one.compress(raw));
        let packed = packed.map_err(|e| format!("Engine::compress: {e}"))?;
        c1 += dt;
        let (got, dt) = spans.time("engine.decompress", root, op, |_| one.decompress(&packed));
        d1 += dt;
        tally.record(
            got.map_err(|e| e.to_string()).and_then(|g| same("Engine::decompress", &g, raw)),
        );

        let (got, dt) = spans.time("stream_io.compress_stream", root, op, |_| {
            let mut out = Vec::new();
            compress_stream(&input.spec, &serial_options, &mut raw.as_slice(), &mut out)
                .map(|()| out)
        });
        sc += dt;
        tally.record(
            got.map_err(|e| e.to_string()).and_then(|g| same("compress_stream", &g, &packed)),
        );
        let (got, dt) = spans.time("stream_io.decompress_stream", root, op, |_| {
            let mut out = Vec::new();
            decompress_stream(&input.spec, &serial_options, &mut packed.as_slice(), &mut out)
                .map(|()| out)
        });
        sd += dt;
        tally.record(
            got.map_err(|e| e.to_string()).and_then(|g| same("decompress_stream", &g, raw)),
        );

        let (got, dt) = spans.time("pool.compress", root, op, |_| many.compress(raw));
        cd += dt;
        tally.record(
            got.map_err(|e| e.to_string()).and_then(|g| same("threaded compress", &g, &packed)),
        );
        let (got, dt) = spans.time("pool.decompress", root, op, |_| many.decompress(&packed));
        dd += dt;
        tally.record(
            got.map_err(|e| e.to_string()).and_then(|g| same("threaded decompress", &g, raw)),
        );

        let small = input.request.trace.prefix(SMALL_RECORDS);
        for _ in 0..3 {
            let (a, t1) =
                spans.time("pool.small.serial", root, op, |_| one.compress(&small.raw));
            let (b, tn) =
                spans.time("pool.small.default", root, op, |_| many.compress(&small.raw));
            tally.record(match (a, b) {
                (Ok(a), Ok(b)) => same("small threaded compress", &b, &a),
                (Err(e), _) | (_, Err(e)) => Err(format!("small compress: {e}")),
            });
            small_overhead.push((tn - t1) * 1e3);
        }
    }
    let sum = |f: fn(&Accounted) -> f64| accounted.iter().map(f).sum::<f64>();
    out.set("engine.compress_ms", c1 * 1e3, inputs.len());
    out.set("engine.decompress_ms", d1 * 1e3, inputs.len());
    out.set(
        "engine.compress_unaccounted_ms",
        (c1 - sum(|a| a.model_s) - sum(|a| a.pack_s)) * 1e3,
        inputs.len(),
    );
    out.set(
        "engine.decompress_unaccounted_ms",
        (d1 - sum(|a| a.replay_s) - sum(|a| a.unpack_s)) * 1e3,
        inputs.len(),
    );
    out.set("stream_io.compress_ms", sc * 1e3, inputs.len());
    out.set("stream_io.decompress_ms", sd * 1e3, inputs.len());
    out.set("pool.compress_speedup", c1 / cd, inputs.len());
    out.set("pool.decompress_speedup", d1 / dd, inputs.len());
    out.set(
        "pool.small_overhead_ms",
        median(&small_overhead).expect("inputs"),
        small_overhead.len(),
    );
    Ok(())
}

/// Bytes `extract_range` reads per extraction from a checkpointed
/// container of the largest input, in the seek-range geometry.
fn seek_layer(
    input: &Input,
    scale: &Scale,
    seed: u64,
    spans: &Spans,
    root: u64,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    let options = EngineOptions { backend: input.request.backend, ..seek_options(scale) };
    let trace = &input.request.trace;
    let (packed, _) = spans.time("engine.compress", root, 0, |_| {
        Engine::new(input.spec.clone(), options).compress(&trace.raw)
    });
    let packed = packed.map_err(|e| format!("checkpointed compress: {e}"))?;
    let recorder = Recorder::new();
    let (len, count) = scale.extract;
    let len = len.min(trace.records() as u64 / 2).max(1);
    let mut rng = Rng::new(seed ^ 0x5EE4_0FF5);
    for (op, offset) in
        extract_offsets(&mut rng, trace.records(), len, count).into_iter().enumerate()
    {
        let range = offset..offset + len;
        let (got, _) = spans.time("seek.extract_range", root, op as u64 + 1, |_| {
            extract_range(
                &input.spec,
                &options,
                &mut Cursor::new(&packed),
                range.clone(),
                Some(&recorder),
            )
        });
        let lo = HEADER_BYTES + range.start as usize * RECORD_BYTES;
        let hi = HEADER_BYTES + range.end as usize * RECORD_BYTES;
        tally.record(
            got.map_err(|e| format!("extract {range:?}: {e}"))
                .and_then(|g| same("extract", &g, &trace.raw[lo..hi])),
        );
    }
    let read = recorder.counter(SEEK_BYTES_READ).get();
    out.set("seek.bytes_read_per_extract", read as f64 / count as f64, count);
    Ok(())
}

/// Framing in memory, and served compresses against the same compress
/// in process.
fn server_layer(
    inputs: &[Input],
    spans: &Spans,
    root: u64,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    const FRAMES: usize = 32;
    let chunk = vec![0xA5u8; CHUNK];
    let mut wire = Vec::with_capacity(FRAMES * (CHUNK + 16));
    let (read, dt) = spans.time("server.frames", root, 0, |_| {
        for id in 0..FRAMES as u32 {
            write_frame(&mut wire, frame_type::RSP_DATA, id, &chunk)
                .map_err(|e| e.to_string())?;
        }
        let mut reader = wire.as_slice();
        let mut read = 0usize;
        while let Some(frame) = read_frame(&mut reader).map_err(|e| e.to_string())? {
            read += frame.payload.len();
        }
        Ok::<_, String>(read)
    });
    tally.record(read.and_then(|n| {
        if n == FRAMES * CHUNK {
            Ok(())
        } else {
            Err(format!("framing: read {n} of {} bytes", FRAMES * CHUNK))
        }
    }));
    out.set("server.frame_mb_s", (FRAMES * CHUNK) as f64 / 1e6 / dt, FRAMES);

    // Each input is served twice and the second, warm-cache request is
    // compared with the same compress in process.
    let mut served = Served::start(&socket_path(), 1)?;
    let mut overhead = Vec::new();
    for (i, input) in inputs.iter().take(MAX_SERVED).enumerate() {
        let op = i as u64 + 1;
        let raw = &input.request.trace.raw;
        let mut req = JobRequest::new(JobKind::Compress, input.request.spec);
        req.profile = input.request.backend.id();
        let client = &mut served.clients[0];
        let (cold, _) = spans.time("server.request", root, op, |_| client.run(&req, raw));
        let (warm, dt_served) =
            spans.time("server.request", root, op, |_| client.run(&req, raw));
        let engine = Engine::new(input.spec.clone(), default_threads(input.request.backend));
        let (local, dt_local) =
            spans.time("engine.compress", root, op, |_| engine.compress(raw));
        let local = local.map_err(|e| format!("compress: {e}"))?;
        for remote in [cold, warm] {
            tally.record(
                remote
                    .map_err(|e| format!("served compress: {e}"))
                    .and_then(|r| same("served compress", &r, &local)),
            );
        }
        overhead.push((dt_served - dt_local) * 1e3);
    }
    let recorder = served.daemon.recorder().clone();
    served.stop()?;
    let hits = recorder.counter("serve.cache_hit").get();
    let misses = recorder.counter("serve.cache_miss").get();
    out.set("server.overhead_ms", median(&overhead).expect("inputs"), overhead.len());
    out.set(
        "server.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        overhead.len(),
    );
    out.set(
        "server.backpressure_waits",
        recorder.counter("serve.backpressure_waits").get() as f64,
        overhead.len(),
    );
    Ok(())
}
