//! The three timed workloads. Each generates its inputs, sets up
//! [`Scale::setup_reps`] times (the last set-up is the one the timed loop
//! uses), runs a closed loop until `seconds` have passed and its minimum
//! sample counts are met, and verifies every operation's output.

use std::io::Cursor;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tcgen_engine::{
    compress_stream, decompress_stream, extract_range, Backend, Engine, EngineOptions,
};
use tcgen_server::client::Client;
use tcgen_server::daemon::{serve_listener, Daemon};
use tcgen_server::{JobKind, JobRequest, ServeOptions};
use tcgen_spec::presets::{TCGEN_A, TCGEN_B};
use tcgen_spec::TraceSpec;

use crate::check::{same, Tally};
use crate::inputs::{
    archive_traces, extract_offsets, request_at, request_pool, seek_trace, Rng, Scale,
    TraceInput, HEADER_BYTES, RECORD_BYTES,
};
use crate::spans::{timed, Spans};
use crate::stats::{median, percentile, Metric};

/// A loop stops here even when its minimum sample counts are not met, so
/// every run ends in bounded time (a run must finish within 180 s).
const HARD_CAP_S: f64 = 120.0;

/// What one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// Operations attempted and failed, verification included.
    pub tally: Tally,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Latency percentiles of the workload's own operation type, or why
    /// there were too few samples for them. They are not end-to-end
    /// metrics because not every workload has them.
    pub percentiles: Result<Vec<Metric>, String>,
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Bytes and seconds of one operation type within one round or window.
#[derive(Debug, Default, Clone, Copy)]
struct Flow {
    bytes: usize,
    seconds: f64,
}

impl Flow {
    fn add(&mut self, bytes: usize, seconds: f64) {
        self.bytes += bytes;
        self.seconds += seconds;
    }

    /// MB/s, `None` when nothing was timed.
    fn mb_s(self) -> Option<f64> {
        (self.seconds > 0.0).then(|| mb(self.bytes) / self.seconds)
    }
}

/// One round (or time window) of a loop.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    compress: Flow,
    decompress: Flow,
    ops: usize,
    wall_s: f64,
}

/// The end-to-end metrics from per-round figures: every rate is the
/// median over rounds of Σ uncompressed bytes ÷ Σ operation time.
fn end_to_end(
    rounds: &[Round],
    compression_rate: f64,
    setups: &[f64],
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    let med = |name: &str, values: Vec<f64>| {
        median(&values).ok_or_else(|| format!("{name}: no successful operation was timed"))
    };
    let compress: Vec<f64> = rounds.iter().filter_map(|r| r.compress.mb_s()).collect();
    let decompress: Vec<f64> = rounds.iter().filter_map(|r| r.decompress.mb_s()).collect();
    let rps: Vec<f64> = rounds.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    let ok = tally.attempted - tally.failed;
    Ok(vec![
        Metric::new(
            "compress_mb_s",
            "MB/s",
            med("compress_mb_s", compress.clone())?,
            compress.len(),
        ),
        Metric::new(
            "decompress_mb_s",
            "MB/s",
            med("decompress_mb_s", decompress.clone())?,
            decompress.len(),
        ),
        Metric::new("compression_rate", "x", compression_rate, 1),
        Metric::new("requests_per_s", "1/s", med("requests_per_s", rps.clone())?, rps.len()),
        Metric::new("setup_s", "s", med("setup_s", setups.to_vec())?, setups.len()),
        Metric::new("peak_rss_mb", "MB", crate::host::peak_rss_mb()?, 1),
        Metric::new(
            "success_rate",
            "share",
            ok as f64 / tally.attempted.max(1) as f64,
            tally.attempted as usize,
        ),
    ])
}

/// Guarded latency percentiles, in ms, of `latencies_ms`.
fn percentiles(
    which: &[(&'static str, f64)],
    latencies_ms: &[f64],
) -> Result<Vec<Metric>, String> {
    which
        .iter()
        .map(|&(name, q)| {
            Ok(Metric::new(name, "ms", percentile(name, latencies_ms, q)?, latencies_ms.len()))
        })
        .collect()
}

pub(crate) fn parse(spec: &str) -> Result<TraceSpec, String> {
    tcgen_spec::parse(spec).map_err(|e| format!("spec: {e}"))
}

/// Times `reps` set-ups and keeps the last one's state; each earlier
/// state is torn down before the next set-up is timed.
fn set_up<S>(
    reps: usize,
    mut once: impl FnMut() -> Result<S, String>,
    mut tear_down: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        if let Some(s) = state.take() {
            tear_down(s)?;
        }
        let start = Instant::now();
        let s = once()?;
        times.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok((state.expect("at least one set-up ran"), times))
}

/// Whether a loop that started at `start` may stop.
fn done(start: Instant, seconds: f64, enough: bool) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed >= seconds && enough) || elapsed >= HARD_CAP_S
}

/// archive-large: `compress_stream` and `decompress_stream` of the three
/// archival traces, memory to memory, one operation at a time, at the
/// engine's default thread counts with TCgen(A) and the `max` profile.
pub fn archive_large(
    seed: u64,
    seconds: f64,
    scale: &Scale,
    spans: Option<&Spans>,
) -> Result<Run, String> {
    let traces = archive_traces(seed, scale);
    let smallest = traces.iter().min_by_key(|t| t.raw.len()).expect("three traces");

    let keep = |_| Ok(());
    let ((spec, options, engine), setups) = set_up(
        scale.setup_reps,
        || {
            let spec = parse(TCGEN_A)?;
            let options = EngineOptions::tcgen();
            let engine = Engine::new(spec.clone(), options);
            let mut warm = Vec::new();
            compress_stream(&spec, &options, &mut smallest.raw.as_slice(), &mut warm)
                .map_err(|e| format!("warm-up compress_stream: {e}"))?;
            std::hint::black_box(warm);
            Ok((spec, options, engine))
        },
        keep,
    )?;

    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; traces.len()];
    let start = Instant::now();
    while !done(start, seconds, rounds.len() >= scale.min_rounds) {
        let round_start = Instant::now();
        let mut round = Round::default();
        let op = rounds.len() as u64 + 1;
        timed(spans, "workload.round", 0, op, |parent| {
            for (i, t) in traces.iter().enumerate() {
                let (packed, dt) =
                    timed(spans, "stream_io.compress_stream", parent, op, |_| {
                        let mut out = Vec::new();
                        compress_stream(&spec, &options, &mut t.raw.as_slice(), &mut out)
                            .map(|()| out)
                    });
                round.ops += 1;
                let packed = match packed {
                    Ok(p) => p,
                    Err(e) => {
                        tally.record(Err(format!("{}: compress_stream: {e}", t.label)));
                        continue;
                    }
                };
                let check = match &first[i] {
                    Some(f) => same(&format!("{}: container vs round 1", t.label), &packed, f),
                    None => Ok(()),
                };
                if tally.record(check) {
                    round.compress.add(t.raw.len(), dt);
                }
                let (raw, dt) = timed(spans, "stream_io.decompress_stream", parent, op, |_| {
                    let mut out = Vec::new();
                    decompress_stream(&spec, &options, &mut packed.as_slice(), &mut out)
                        .map(|()| out)
                });
                round.ops += 1;
                let check = raw
                    .map_err(|e| format!("{}: decompress_stream: {e}", t.label))
                    .and_then(|raw| same(&format!("{}: decompressed", t.label), &raw, &t.raw));
                if tally.record(check) {
                    round.decompress.add(t.raw.len(), dt);
                }
                first[i].get_or_insert(packed);
            }
        });
        round.wall_s = round_start.elapsed().as_secs_f64();
        rounds.push(round);
    }

    // The streamed container must equal the in-memory one.
    let (mut raw_total, mut packed_total) = (0usize, 0usize);
    for (t, packed) in traces.iter().zip(&first) {
        let Some(packed) = packed else { continue };
        raw_total += t.raw.len();
        packed_total += packed.len();
        match engine.compress(&t.raw) {
            Ok(reference) => {
                if let Err(e) = same(
                    &format!("{}: compress_stream vs Engine::compress", t.label),
                    packed,
                    &reference,
                ) {
                    tally.fail(e);
                }
            }
            Err(e) => tally.fail(format!("{}: Engine::compress: {e}", t.label)),
        }
    }
    if rounds.len() < scale.min_rounds {
        return Err(format!(
            "archive-large: {} rounds, {} needed",
            rounds.len(),
            scale.min_rounds
        ));
    }
    let metrics =
        end_to_end(&rounds, raw_total as f64 / packed_total.max(1) as f64, &setups, &tally)?;
    Ok(Run { tally, metrics, percentiles: Ok(Vec::new()) })
}

/// One daemon on a unix socket with its client connections.
pub(crate) struct Served {
    /// The daemon, for its recorder.
    pub daemon: Arc<Daemon>,
    /// One client per connection.
    pub clients: Vec<Client>,
    path: PathBuf,
    accept: JoinHandle<std::io::Result<()>>,
}

impl Served {
    /// Starts a daemon with default options on `path` and opens
    /// `connections` clients.
    ///
    /// # Errors
    ///
    /// When the socket cannot be bound or connected.
    pub fn start(path: &Path, connections: usize) -> Result<Served, String> {
        let _ = std::fs::remove_file(path);
        let listener =
            UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
        let daemon = Daemon::new(&ServeOptions::default());
        let accept = {
            let daemon = Arc::clone(&daemon);
            let path = path.to_path_buf();
            std::thread::spawn(move || serve_listener(&daemon, &listener, &path))
        };
        let clients = (0..connections)
            .map(|_| Client::connect(path).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Served { daemon, clients, path: path.to_path_buf(), accept })
    }

    /// Drains and stops the daemon and waits for its accept loop.
    ///
    /// # Errors
    ///
    /// When the shutdown request or the accept loop fails.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.clients[0].shutdown().map_err(|e| format!("shutdown: {e}"));
        self.clients.clear();
        let accepted = self.accept.join().map_err(|_| "accept loop panicked".to_string())?;
        let _ = std::fs::remove_file(&self.path);
        result?;
        accepted.map_err(|e| format!("accept loop: {e}"))
    }
}

/// A served request for `entry`.
fn job(kind: JobKind, entry: &TraceInput) -> JobRequest {
    let mut req = JobRequest::new(kind, entry.spec);
    req.profile = entry.backend.id();
    req
}

/// The in-process container for each request input. Made at one thread,
/// without the shared pool, before set-up: containers are byte-identical
/// for every thread count, and set-up must be the first to start the
/// pool's workers.
fn reference_containers(pool: &[TraceInput]) -> Result<Vec<Vec<u8>>, String> {
    pool.iter()
        .map(|entry| {
            let options = EngineOptions {
                backend: entry.backend,
                threads: 1,
                model_threads: 1,
                ..EngineOptions::tcgen()
            };
            Engine::new(parse(entry.spec)?, options)
                .compress(&entry.trace.raw)
                .map_err(|e| format!("{}: Engine::compress: {e}", entry.trace.label))
        })
        .collect()
}

/// One served request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    done_s: f64,
    latency_s: f64,
    compress: bool,
    raw_bytes: usize,
    ok: bool,
}

/// Socket paths are relative to the working directory (the benchmark's
/// `out` directory): a unix socket path is limited to ~100 bytes.
pub(crate) fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("e2ebench-{}-{n}.sock", std::process::id()))
}

/// serve-small: an in-process daemon on a unix socket and two client
/// connections in a closed loop, sending a seeded mix of small compress
/// and decompress requests.
pub fn serve_small(
    seed: u64,
    seconds: f64,
    scale: &Scale,
    spans: Option<&Spans>,
) -> Result<Run, String> {
    let pool = request_pool(seed, scale);
    let containers = reference_containers(&pool)?;
    let smallest = pool.iter().min_by_key(|r| r.trace.raw.len()).expect("non-empty pool");
    let configs: Vec<TraceInput> = [TCGEN_A, TCGEN_B]
        .into_iter()
        .flat_map(|spec| {
            [Backend::Fast, Backend::Max].map(|backend| TraceInput {
                trace: smallest.trace.clone(),
                spec,
                backend,
            })
        })
        .collect();

    let (mut served, setups) = set_up(
        scale.setup_reps,
        || {
            let mut served = Served::start(&socket_path(), 2)?;
            for entry in &configs {
                served.clients[0]
                    .run(&job(JobKind::Compress, entry), &entry.trace.raw)
                    .map_err(|e| format!("warm-up request: {e}"))?;
            }
            Ok(served)
        },
        Served::stop,
    )?;

    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    let mut clients = std::mem::take(&mut served.clients);
    let per_client: Vec<(Tally, Vec<Sample>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (pool, containers, next, completed) =
                    (&pool, &containers, &next, &completed);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut samples = Vec::new();
                    while !done(
                        start,
                        seconds,
                        completed.load(Ordering::Relaxed) >= scale.min_requests as u64,
                    ) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (index, compress) = request_at(seed, i, pool.len());
                        let (entry, container) = (&pool[index], &containers[index]);
                        let (kind, input, want) = if compress {
                            (JobKind::Compress, &entry.trace.raw, container)
                        } else {
                            (JobKind::Decompress, container, &entry.trace.raw)
                        };
                        let req = job(kind, entry);
                        let (got, latency_s) = timed(spans, "server.request", 0, i + 1, |_| {
                            client.run(&req, input)
                        });
                        let check = got
                            .map_err(|e| format!("{}: {}: {e}", entry.trace.label, kind.name()))
                            .and_then(|got| {
                                same(
                                    &format!("{}: served {}", entry.trace.label, kind.name()),
                                    &got,
                                    want,
                                )
                            });
                        let ok = tally.record(check);
                        completed.fetch_add(1, Ordering::Relaxed);
                        samples.push(Sample {
                            done_s: start.elapsed().as_secs_f64(),
                            latency_s,
                            compress,
                            raw_bytes: entry.trace.raw.len(),
                            ok,
                        });
                    }
                    (tally, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    served.clients = clients;
    served.stop()?;

    let mut tally = Tally::default();
    let mut samples = Vec::new();
    for (t, s) in per_client {
        tally.merge(t);
        samples.extend(s);
    }
    // One-second windows partition the loop; each is one "round".
    let n = (wall_s.floor() as usize).max(1);
    let width = wall_s / n as f64;
    let mut windows = vec![Round { wall_s: width, ..Round::default() }; n];
    for s in &samples {
        let w = &mut windows[((s.done_s / width) as usize).min(n - 1)];
        w.ops += 1;
        if s.ok {
            let flow = if s.compress { &mut w.compress } else { &mut w.decompress };
            flow.add(s.raw_bytes, s.latency_s);
        }
    }
    let raw_total: usize = pool.iter().map(|r| r.trace.raw.len()).sum();
    let packed_total: usize = containers.iter().map(Vec::len).sum();
    let metrics =
        end_to_end(&windows, raw_total as f64 / packed_total as f64, &setups, &tally)?;
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    let percentiles =
        percentiles(&[("request_p50_ms", 0.50), ("request_p99_ms", 0.99)], &latencies);
    Ok(Run { tally, metrics, percentiles })
}

/// The seek-range engine options: serial, 65,536-record blocks, a
/// checkpoint every 8 blocks (at [`Scale::FULL`]).
pub(crate) fn seek_options(scale: &Scale) -> EngineOptions {
    EngineOptions {
        threads: 1,
        model_threads: 1,
        block_records: scale.seek_block.0,
        checkpoint_blocks: scale.seek_block.1,
        ..EngineOptions::tcgen()
    }
}

/// seek-range: per round, one checkpointed compress of the gzip store
/// trace, one full decompress, and a batch of fixed-size `extract_range`
/// calls at seeded offsets, all on the serial in-memory path.
pub fn seek_range(
    seed: u64,
    seconds: f64,
    scale: &Scale,
    spans: Option<&Spans>,
) -> Result<Run, String> {
    let trace = seek_trace(seed, scale);
    let records = trace.records();
    let (extract_len, batch) = scale.extract;
    let warm = trace.prefix(scale.seek_block.0 * (scale.seek_block.1 + 1));

    let keep = |_| Ok(());
    let ((spec, options, engine), setups) = set_up(
        scale.setup_reps,
        || {
            let spec = parse(TCGEN_A)?;
            let options = seek_options(scale);
            let engine = Engine::new(spec.clone(), options);
            let packed =
                engine.compress(&warm.raw).map_err(|e| format!("warm-up compress: {e}"))?;
            std::hint::black_box(packed);
            Ok((spec, options, engine))
        },
        keep,
    )?;

    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let mut extracts = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    let mut rng = Rng::new(seed ^ 0x5EE4_0FF5);
    let start = Instant::now();
    while !done(
        start,
        seconds,
        rounds.len() >= scale.min_rounds && extracts.len() >= scale.min_extracts,
    ) {
        let round_start = Instant::now();
        let mut round = Round::default();
        let op = rounds.len() as u64 + 1;
        timed(spans, "workload.round", 0, op, |parent| {
            let (packed, dt) =
                timed(spans, "engine.compress", parent, op, |_| engine.compress(&trace.raw));
            round.ops += 1;
            match packed {
                Ok(packed) => {
                    let check = first
                        .as_ref()
                        .map_or(Ok(()), |f| same("container vs round 1", &packed, f));
                    if tally.record(check) {
                        round.compress.add(trace.raw.len(), dt);
                    }
                    first.get_or_insert(packed);
                }
                Err(e) => {
                    tally.record(Err(format!("compress: {e}")));
                }
            }
            let Some(packed) = first.as_ref() else { return };
            let (raw, dt) =
                timed(spans, "engine.decompress", parent, op, |_| engine.decompress(packed));
            round.ops += 1;
            let check = raw
                .map_err(|e| format!("decompress: {e}"))
                .and_then(|raw| same("decompressed", &raw, &trace.raw));
            if tally.record(check) {
                round.decompress.add(trace.raw.len(), dt);
            }
            for offset in extract_offsets(&mut rng, records, extract_len, batch) {
                let range = offset..offset + extract_len;
                let (got, dt) = timed(spans, "seek.extract_range", parent, op, |_| {
                    extract_range(
                        &spec,
                        &options,
                        &mut Cursor::new(packed),
                        range.clone(),
                        None,
                    )
                });
                round.ops += 1;
                let lo = HEADER_BYTES + range.start as usize * RECORD_BYTES;
                let hi = HEADER_BYTES + range.end as usize * RECORD_BYTES;
                let check =
                    got.map_err(|e| format!("extract {range:?}: {e}")).and_then(|got| {
                        same(&format!("extract {range:?}"), &got, &trace.raw[lo..hi])
                    });
                if tally.record(check) {
                    extracts.push(dt * 1e3);
                }
            }
        });
        round.wall_s = round_start.elapsed().as_secs_f64();
        rounds.push(round);
    }
    if rounds.len() < scale.min_rounds {
        return Err(format!(
            "seek-range: {} rounds, {} needed",
            rounds.len(),
            scale.min_rounds
        ));
    }
    let rate = first.as_ref().map_or(0.0, |p| trace.raw.len() as f64 / p.len() as f64);
    let metrics = end_to_end(&rounds, rate, &setups, &tally)?;
    let percentiles =
        percentiles(&[("extract_p50_ms", 0.50), ("extract_p90_ms", 0.90)], &extracts);
    Ok(Run { tally, metrics, percentiles })
}
