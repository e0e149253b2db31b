//! The compress and decompress drivers plus the container format.
//!
//! Container layout (all integers little-endian):
//!
//! ```text
//! "TCGZ"  u8 version  u8 flags  u32 spec_hash  u16 header_len  header bytes
//! blocks: 0x01  u32 n_records  per field { codes segment, values segment }
//! ckpt:   0x02  u32 compressed_len  post-codec container   (flag bit 5 only)
//! end:    0x00  then, when flag bit 5 is set, the block-index footer
//! segment: u32 compressed_len  blockzip container
//! ```
//!
//! The flag byte records the semantics-affecting options so that any
//! engine configuration can decompress any container (speed-only options
//! do not change the streams).
//!
//! ## One driver per direction
//!
//! Every compress path runs [`compress`], generic over where records
//! come from ([`RecordSource`]: a borrowed slice for
//! [`crate::Engine::compress`], a reader for [`crate::compress_stream`])
//! and where container bytes go (any [`Write`]). Every decompress path
//! runs [`decompress`], generic over a [`ByteSource`] and a [`Sink`];
//! [`crate::extract_range`] reuses its per-block step, [`BlockDecoder`].
//!
//! ## Threading model
//!
//! Predictor modeling is serial *per field* — every record's prediction
//! depends on the table state left by all earlier records of the same
//! field — but the fields themselves are independent once each block is
//! transposed into columns, and the post-compression of finished blocks
//! is embarrassingly parallel. Two knobs exploit this:
//!
//! * [`EngineOptions::model_threads`] fans the per-field column jobs of
//!   the columnar modeling/replay stage ([`crate::columnar`]) out to a
//!   worker pool.
//! * [`EngineOptions::threads`] fans the `2 * n_fields` segments of each
//!   finished block out to a second pool, assembling results strictly in
//!   submission order. Decompression inflates segments a bounded number
//!   of blocks ahead of replay on the same kind of pool.
//!
//! Both pools hand results back deterministically, so the container is
//! byte-identical for every setting of either knob. A knob of `1` is a
//! pool of one, which runs its jobs inline on the driver thread — not a
//! separate code path.
//!
//! Decoding is sequential: replay carries predictor state from block to
//! block, so the decoder skips checkpoint frames
//! ([`EngineOptions::checkpoint_blocks`]) and only checks their placement
//! against the footer. Checkpoints are a seek index: [`crate::extract_range`]
//! restores the one covering a record range and replays from there.

use std::collections::VecDeque;
use std::io::Write;

use tcgen_spec::TraceSpec;
use tcgen_telemetry::{driver_span, OpCounters, Recorder};

use crate::columnar::{Modeler, ReplayPipe, Replayer};
use crate::container::{self, BLOCK_MARKER, CHECKPOINT_MARKER, END_MARKER, PRELUDE_LEN};
use crate::options::EngineOptions;
use crate::pool::{Pipeline, PoolTelemetry};
use crate::postcodec::{Backend, Codec};
use crate::stream_io::StreamError;
use crate::streams::BlockStreams;
use crate::usage::UsageReport;
use crate::Error;

/// Upper bound on records per block, so a whole-trace setting (`0`)
/// still streams in bounded memory.
pub(crate) const MAX_BLOCK_RECORDS: usize = 1 << 24;

/// How many blocks a driver keeps in flight between its serial stage
/// (modeling or replay) and the segment pool: enough to keep `threads`
/// workers busy, and exactly one for an inline pool, so each block's
/// segments are consumed while they are still in cache.
fn blocks_in_flight(threads: usize) -> usize {
    2 * threads - 1
}

/// FNV-1a hash of the canonical specification text; stored in the
/// container so mismatched decompressors fail fast. [`crate::Engine`]
/// computes this once at construction and reuses it across calls.
pub fn spec_hash(spec: &TraceSpec) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in tcgen_spec::canonical(spec).bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// A post-codec for `backend` with `tel`'s stage probes attached.
fn probed(backend: Backend, level: blockzip::Level, tel: Option<&Recorder>) -> Codec {
    let mut codec = backend.codec(level);
    if let Some(rec) = tel {
        codec.attach_probes(rec);
    }
    codec
}

/// The codec for checkpoint snapshot frames — always the fast
/// range-coder backend, regardless of the backend packing the block
/// segments. Snapshots are sparse since format version 2: occupancy
/// bitmaps skip every never-touched table line, so a frame scales with
/// the touched working set (kilobytes early in a trace) instead of the
/// tens of megabytes the paper's TCGEN_A tables span. Routing them
/// through the `max` BWT chain would spend more time packing state than
/// seeking saves. The choice is part of the checkpointed container
/// format: every writer and every reader opens snapshot frames with this
/// codec.
pub(crate) fn checkpoint_codec(level: blockzip::Level, tel: Option<&Recorder>) -> Codec {
    probed(Backend::Fast, level, tel)
}

/// Where the compress driver reads a trace from.
pub(crate) trait RecordSource {
    /// The passthrough header, read first.
    fn header(&mut self) -> Result<&[u8], StreamError>;
    /// The next run of at most `max` whole records; empty at the end.
    fn records(&mut self, max: usize) -> Result<&[u8], StreamError>;
}

/// A trace held in memory: records are borrowed, never copied.
pub(crate) struct SliceRecords<'a> {
    raw: &'a [u8],
    pos: usize,
    header_len: usize,
    record_len: usize,
}

impl<'a> SliceRecords<'a> {
    pub(crate) fn new(raw: &'a [u8], spec: &TraceSpec) -> Self {
        let header_len = spec.header_bytes() as usize;
        Self { raw, pos: 0, header_len, record_len: spec.record_bytes() as usize }
    }
}

impl RecordSource for SliceRecords<'_> {
    fn header(&mut self) -> Result<&[u8], StreamError> {
        let (len, header_len, record_len) = (self.raw.len(), self.header_len, self.record_len);
        if len < header_len || !(len - header_len).is_multiple_of(record_len) {
            return Err(Error::PartialRecord { len, header_len, record_len }.into());
        }
        self.pos = header_len;
        Ok(&self.raw[..header_len])
    }

    fn records(&mut self, max: usize) -> Result<&[u8], StreamError> {
        let take = ((self.raw.len() - self.pos) / self.record_len).min(max) * self.record_len;
        self.pos += take;
        Ok(&self.raw[self.pos - take..self.pos])
    }
}

/// Tallies bytes flowing to the inner writer: footer offsets and the
/// `compress.bytes_out` counter come from here.
struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The pack pool: each worker consumes a segment payload and hands it
/// back (cleared, capacity intact) alongside the packed bytes, so block
/// stream buffers are recycled instead of reallocated every block.
type PackPipe = Pipeline<'static, Vec<u8>, (Vec<u8>, Result<Vec<u8>, blockzip::Error>)>;

/// A block whose segments are on the pack pool: its record count and the
/// packed checkpoint frame that precedes it, if it opens an interval.
type PendingBlock = (u32, Option<Vec<u8>>);

/// Checkpoint state of a compress run: the interval, the block index
/// accumulated as frames are written, and the snapshot codec.
struct Checkpoints {
    interval: usize,
    footer: container::Footer,
    codec: Codec,
}

/// The compress driver: reads records from `source`, models them a block
/// at a time, post-compresses each block's segments on the pack pool,
/// and writes the container — checkpoint frames and footer included — to
/// `sink`. When `usage` is given, predictor-usage counters are
/// accumulated. Telemetry is purely observational: the container bytes
/// are identical with and without a recorder.
pub(crate) fn compress(
    spec: &TraceSpec,
    options: &EngineOptions,
    hash: u32,
    source: &mut impl RecordSource,
    sink: &mut impl Write,
    mut usage: Option<&mut UsageReport>,
    tel: Option<&Recorder>,
) -> Result<(), StreamError> {
    let _op_span = driver_span(tel, "compress");
    let mut out = CountingWriter { inner: sink, written: 0 };
    let header = source.header()?;
    let header_len = header.len();
    out.write_all(&container::prelude(options.flags(), hash, header_len as u16))?;
    out.write_all(header)?;

    let record_len = spec.record_bytes() as usize;
    let block_records = options.effective_block_records().min(MAX_BLOCK_RECORDS);
    let threads = options.effective_threads();
    let mut modeler = Modeler::new(spec, options);
    let model_pipe = Modeler::pipe(options.effective_model_threads(), tel);
    let pack: PackPipe = Pipeline::start(
        threads,
        PoolTelemetry::from(tel, "pack", options.backend.pack_span()),
        || {
            let mut codec = probed(options.backend, options.level, tel);
            move |mut payload: Vec<u8>| {
                let packed = codec.compress(&payload);
                payload.clear();
                (payload, packed)
            }
        },
    );
    let mut checkpoints = (options.checkpoint_blocks > 0).then(|| Checkpoints {
        interval: options.checkpoint_blocks,
        footer: container::Footer::default(),
        codec: checkpoint_codec(options.level, tel),
    });
    let mut streams = BlockStreams::new(spec.fields.len());
    let mut pending: VecDeque<PendingBlock> = VecDeque::new();
    // Payload buffers back from the pool, oldest first: refilling in the
    // same order hands each stream the buffer it last grew.
    let mut free: VecDeque<Vec<u8>> = VecDeque::new();
    let mut next_checkpoint = None;
    let (mut blocks, mut records) = (0usize, 0usize);
    let segs = 2 * spec.fields.len();
    loop {
        let chunk = {
            let _s = driver_span(tel, "io.read");
            source.records(block_records - streams.records)?
        };
        if chunk.is_empty() {
            break;
        }
        if let Some(c) = checkpoints
            .as_mut()
            .filter(|c| streams.is_empty() && blocks > 0 && blocks.is_multiple_of(c.interval))
        {
            // Snapshot before the block's first record is modeled: a
            // replayer that restores it stands exactly where sequential
            // replay would on entering the block.
            let _s = driver_span(tel, "checkpoint.pack");
            next_checkpoint =
                Some(c.codec.compress(&modeler.snapshot_payload()).map_err(Error::Post)?);
        }
        {
            let _s = driver_span(tel, "model.chunk");
            modeler.model_chunk(chunk, &mut streams, &mut usage, &model_pipe)?;
        }
        records += chunk.len() / record_len;
        if streams.records == block_records {
            submit_block(&pack, &mut streams, &mut pending, next_checkpoint.take());
            blocks += 1;
            while pending.len() >= blocks_in_flight(threads) {
                let footer = checkpoints.as_mut().map(|c| &mut c.footer);
                write_block(&mut out, &pack, &mut pending, segs, &mut free, footer, tel)?;
            }
            for buf in streams.fields.iter_mut().flat_map(|f| [&mut f.codes, &mut f.values]) {
                *buf = free.pop_front().unwrap_or_default();
            }
        }
    }
    if !streams.is_empty() {
        submit_block(&pack, &mut streams, &mut pending, next_checkpoint.take());
        blocks += 1;
    }
    while !pending.is_empty() {
        let footer = checkpoints.as_mut().map(|c| &mut c.footer);
        write_block(&mut out, &pack, &mut pending, segs, &mut free, footer, tel)?;
    }
    out.write_all(&[END_MARKER])?;
    if let Some(c) = &checkpoints {
        out.write_all(&c.footer.encode())?;
    }
    out.flush()?;
    // Table stats are taken after the run so the occupancy counters
    // reflect every record modeled.
    if let Some(u) = usage {
        modeler.record_table_stats(u);
    }
    if let Some(c) = tel.map(OpCounters::compress) {
        c.bytes_in.add((header_len + records * record_len) as u64);
        c.records.add(records as u64);
        c.blocks.add(blocks as u64);
        c.bytes_out.add(out.written);
    }
    Ok(())
}

/// Hands one finished block's segments to the pack pool in container
/// order, leaving `streams` empty.
fn submit_block(
    pack: &PackPipe,
    streams: &mut BlockStreams,
    pending: &mut VecDeque<PendingBlock>,
    checkpoint: Option<Vec<u8>>,
) {
    pending.push_back((streams.records as u32, checkpoint));
    for fs in &mut streams.fields {
        pack.submit(std::mem::take(&mut fs.codes));
        pack.submit(std::mem::take(&mut fs.values));
    }
    streams.records = 0;
}

/// Writes the oldest pending block — its checkpoint frame, if any, then
/// the block frame — consuming `segs` results from the pack pool in
/// submission order. Footer entries are recorded here, where the byte
/// offsets are known; the payload buffers return to `free`.
fn write_block<W: Write>(
    out: &mut CountingWriter<'_, W>,
    pack: &PackPipe,
    pending: &mut VecDeque<PendingBlock>,
    segs: usize,
    free: &mut VecDeque<Vec<u8>>,
    mut footer: Option<&mut container::Footer>,
    tel: Option<&Recorder>,
) -> Result<(), StreamError> {
    let _s = driver_span(tel, "block.flush");
    let (n_records, checkpoint) = pending.pop_front().expect("a block is pending");
    if let Some(packed) = checkpoint {
        let f = footer.as_deref_mut().expect("checkpoint frames imply a footer");
        f.push_checkpoint(f.blocks.len() as u32, out.written);
        out.write_all(&[CHECKPOINT_MARKER])?;
        out.write_all(&(packed.len() as u32).to_le_bytes())?;
        out.write_all(&packed)?;
    }
    if let Some(f) = footer {
        f.push_block(out.written, n_records);
    }
    out.write_all(&[BLOCK_MARKER])?;
    out.write_all(&n_records.to_le_bytes())?;
    for _ in 0..segs {
        let (payload, packed) =
            pack.next().map_err(|_| Error::Internal("compression worker panicked".into()))?;
        free.push_back(payload);
        let packed = packed.map_err(Error::Post)?;
        out.write_all(&(packed.len() as u32).to_le_bytes())?;
        out.write_all(&packed)?;
    }
    Ok(())
}

/// Runs the modeling stage over the whole trace as a single block and
/// returns the raw, un-post-compressed streams, flattened as
/// `[field0.codes, field0.values, field1.codes, …]` in declaration order.
///
/// This is the reference against which TCgen-generated C and Rust
/// programs are validated: their stream files must match byte-for-byte.
pub fn raw_streams(
    spec: &TraceSpec,
    options: &EngineOptions,
    raw: &[u8],
) -> Result<Vec<Vec<u8>>, Error> {
    let mut source = SliceRecords::new(raw, spec);
    source.header().map_err(StreamError::into_codec)?;
    let mut modeler = Modeler::new(spec, options);
    let mut streams = BlockStreams::new(spec.fields.len());
    let pipe = Modeler::pipe(options.effective_model_threads(), None);
    let body = source.records(usize::MAX).map_err(StreamError::into_codec)?;
    modeler.model_chunk(body, &mut streams, &mut None, &pipe)?;
    Ok(streams.fields.into_iter().flat_map(|fs| [fs.codes, fs.values]).collect())
}

/// The inverse of [`raw_streams`]: reconstructs the record bytes (the
/// trace body, without its passthrough header) from flattened
/// `[field0.codes, field0.values, field1.codes, …]` streams. The record
/// count is taken from the code streams, which must all agree.
///
/// Used by the modeling benchmark to measure replay in isolation and by
/// tests as the stream-level roundtrip check.
pub fn replay_streams(
    spec: &TraceSpec,
    options: &EngineOptions,
    streams: Vec<Vec<u8>>,
) -> Result<Vec<u8>, Error> {
    let n_fields = spec.fields.len();
    if streams.len() != 2 * n_fields {
        return Err(Error::Corrupt(format!("{} streams for {n_fields} fields", streams.len())));
    }
    let (mut codes, mut values): (Vec<Vec<u8>>, Vec<Vec<u8>>) = (Vec::new(), Vec::new());
    for (i, s) in streams.into_iter().enumerate() {
        if i % 2 == 0 {
            codes.push(s);
        } else {
            values.push(s);
        }
    }
    let n_records = codes[0].len();
    let mut out = Vec::new();
    let pipe = Replayer::pipe(options.effective_model_threads(), None);
    Replayer::new(spec, options).replay_block(
        n_records,
        &mut codes,
        &mut values,
        &mut out,
        &pipe,
    )?;
    Ok(out)
}

/// Where the decoder reads container bytes from.
pub(crate) trait ByteSource {
    /// A compressed segment: borrowed from an in-memory container, owned
    /// when read from a stream.
    type Segment: AsRef<[u8]> + Send;
    /// Fills `buf`, or fails with [`Error::Truncated`].
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StreamError>;
    /// Takes the next `len` bytes. Never allocates for more bytes than
    /// the input can still hold: the length is checked against the
    /// remaining input when that is known, and the buffer grows only as
    /// bytes actually arrive when it is not.
    fn take(&mut self, len: usize) -> Result<Self::Segment, StreamError>;
    /// Container offset of the next byte.
    fn pos(&self) -> u64;
    /// Whether the input is exhausted.
    fn at_end(&mut self) -> Result<bool, StreamError>;
}

/// An in-memory container: segments are borrowed, never copied.
pub(crate) struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
}

impl<'a> ByteSource for SliceSource<'a> {
    type Segment = &'a [u8];

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StreamError> {
        buf.copy_from_slice(self.take(buf.len())?);
        Ok(())
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], StreamError> {
        if len > self.data.len() - self.pos {
            return Err(Error::Truncated.into());
        }
        self.pos += len;
        Ok(&self.data[self.pos - len..self.pos])
    }

    fn pos(&self) -> u64 {
        self.pos as u64
    }

    fn at_end(&mut self) -> Result<bool, StreamError> {
        Ok(self.pos == self.data.len())
    }
}

/// One frame header of the block sequence.
pub(crate) enum Frame {
    /// The end marker.
    End,
    /// A block frame holding this many records.
    Block(u32),
    /// A checkpoint frame whose packed snapshot is this long.
    Checkpoint(usize),
}

fn read_u32(src: &mut impl ByteSource) -> Result<u32, StreamError> {
    let mut b = [0u8; 4];
    src.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads the next frame header: the marker byte and, for block and
/// checkpoint frames, their `u32`. Checkpoint markers are legal only in
/// `checkpointed` containers.
pub(crate) fn read_frame(
    src: &mut impl ByteSource,
    checkpointed: bool,
) -> Result<Frame, StreamError> {
    let mut marker = [0u8; 1];
    src.read_exact(&mut marker)?;
    match marker[0] {
        END_MARKER => Ok(Frame::End),
        BLOCK_MARKER => Ok(Frame::Block(read_u32(src)?)),
        CHECKPOINT_MARKER if checkpointed => Ok(Frame::Checkpoint(read_u32(src)? as usize)),
        other => Err(Error::Corrupt(format!("unexpected frame marker {other:#x}")).into()),
    }
}

/// Reads one length-prefixed segment without decoding it.
fn read_segment<S: ByteSource>(src: &mut S) -> Result<S::Segment, StreamError> {
    let len = read_u32(src)? as usize;
    src.take(len)
}

/// Reads and checks the prelude, leaving `src` at the passthrough header.
/// Returns the container's effective options: semantic flags — including
/// the post-compression backend every segment decode dispatches on —
/// from the container, speed-only settings from `options`.
pub(crate) fn read_prelude(
    src: &mut impl ByteSource,
    spec: &TraceSpec,
    options: &EngineOptions,
    hash: u32,
) -> Result<EngineOptions, StreamError> {
    let mut bytes = [0u8; PRELUDE_LEN];
    // A wrong magic beats a truncation report even for tiny inputs:
    // "not our container" is the more useful diagnosis.
    src.read_exact(&mut bytes[..4])?;
    if &bytes[..4] != container::MAGIC {
        return Err(Error::BadMagic.into());
    }
    src.read_exact(&mut bytes[4..])?;
    let prelude = container::parse_prelude(&bytes)?;
    if prelude.spec_hash != hash {
        return Err(Error::SpecMismatch { expected: hash, found: prelude.spec_hash }.into());
    }
    if prelude.header_len != spec.header_bytes() as usize {
        return Err(Error::Corrupt(format!(
            "header length {} does not match the specification",
            prelude.header_len
        ))
        .into());
    }
    Ok(options.with_flags(prelude.flags)?)
}

type UnpackPipe<'env, T> = Pipeline<'env, (T, usize), Result<Vec<u8>, blockzip::Error>>;

/// The decoder's per-block step, shared by [`decompress`] and
/// [`crate::extract_range`]: read a block frame's segments, inflate them
/// on the unpack pool, and replay the block.
pub(crate) struct BlockDecoder<'env, S: ByteSource> {
    pub(crate) src: S,
    pub(crate) replayer: Replayer,
    unpack: UnpackPipe<'env, S::Segment>,
    replay: ReplayPipe,
    codes: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
    tel: Option<&'env Recorder>,
}

impl<'env, S: ByteSource> BlockDecoder<'env, S>
where
    S::Segment: 'env,
{
    /// `effective` must carry the container's flags
    /// ([`EngineOptions::with_flags`]).
    pub(crate) fn new(
        spec: &TraceSpec,
        effective: &EngineOptions,
        src: S,
        tel: Option<&'env Recorder>,
    ) -> Self {
        let backend = effective.backend;
        let unpack = Pipeline::start(
            effective.effective_threads(),
            PoolTelemetry::from(tel, "unpack", backend.unpack_span()),
            || {
                let mut codec = probed(backend, effective.level, tel);
                move |(seg, limit): (S::Segment, usize)| codec.decompress(seg.as_ref(), limit)
            },
        );
        Self {
            src,
            replayer: Replayer::new(spec, effective),
            unpack,
            replay: Replayer::pipe(effective.effective_model_threads(), tel),
            codes: Vec::new(),
            values: Vec::new(),
            tel,
        }
    }

    /// Reads one block's segments and hands them to the unpack pool, each
    /// decode capped at the size `n_records` admits: codes are one byte
    /// per record, values at most the field's width per record.
    pub(crate) fn submit(&mut self, n_records: usize) -> Result<(), StreamError> {
        let _s = driver_span(self.tel, "io.read");
        for &width in self.replayer.widths() {
            self.unpack.submit((read_segment(&mut self.src)?, n_records));
            self.unpack.submit((read_segment(&mut self.src)?, n_records.saturating_mul(width)));
        }
        Ok(())
    }

    /// Collects the oldest submitted block's segments and replays the
    /// block onto `out`.
    pub(crate) fn replay(
        &mut self,
        n_records: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StreamError> {
        let next = || -> Result<Vec<u8>, Error> {
            let seg = self.unpack.next();
            seg.map_err(|_| Error::Internal("decompression worker panicked".into()))?
                .map_err(Error::Post)
        };
        self.codes.clear();
        self.values.clear();
        for _ in 0..self.replayer.widths().len() {
            self.codes.push(next()?);
            self.values.push(next()?);
        }
        let _s = driver_span(self.tel, "replay.block");
        let replay = &self.replay;
        self.replayer.replay_block(
            n_records,
            &mut self.codes,
            &mut self.values,
            out,
            replay,
        )?;
        Ok(())
    }
}

/// Where the decoder writes records.
pub(crate) trait Sink {
    /// The buffer the next block's records are appended to.
    fn buf(&mut self) -> &mut Vec<u8>;
    /// Passes on what was appended since the last call.
    fn flush_block(&mut self) -> Result<(), StreamError>;
}

/// An in-memory trace: blocks are replayed straight into it.
impl Sink for Vec<u8> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self
    }

    fn flush_block(&mut self) -> Result<(), StreamError> {
        Ok(())
    }
}

/// The decompress driver: checks the prelude, then reads block frames a
/// bounded number of blocks ahead of replay — their segments inflating on
/// the unpack pool — and replays each block in order into `sink`.
/// Checkpoint frames are skipped with their placement recorded: the
/// footer must match the structure actually walked, byte for byte
/// (offsets, record counts, checkpoint placement and CRC included), and
/// nothing may follow the container.
pub(crate) fn decompress<S: ByteSource>(
    spec: &TraceSpec,
    options: &EngineOptions,
    hash: u32,
    mut src: S,
    sink: &mut impl Sink,
    tel: Option<&Recorder>,
) -> Result<(), StreamError> {
    let _op_span = driver_span(tel, "decompress");
    let effective = read_prelude(&mut src, spec, options, hash)?;
    let header_len = spec.header_bytes() as usize;
    sink.buf().extend_from_slice(src.take(header_len)?.as_ref());
    sink.flush_block()?;
    let checkpointed = effective.checkpoint_blocks > 0;
    let in_flight = blocks_in_flight(effective.effective_threads());
    let mut dec = BlockDecoder::new(spec, &effective, src, tel);
    let mut walked = container::Footer::default();
    let mut queued: VecDeque<usize> = VecDeque::new();
    let (mut end, mut records) = (false, 0usize);
    loop {
        while !end && queued.len() < in_flight {
            let at = dec.src.pos();
            match read_frame(&mut dec.src, checkpointed)? {
                Frame::Block(n) => {
                    walked.push_block(at, n);
                    dec.submit(n as usize)?;
                    queued.push_back(n as usize);
                }
                Frame::Checkpoint(len) => {
                    walked.push_checkpoint(walked.blocks.len() as u32, at);
                    dec.src.take(len)?;
                }
                Frame::End => {
                    if checkpointed {
                        let expected = walked.encode();
                        if dec.src.take(expected.len())?.as_ref() != expected.as_slice() {
                            return Err(Error::Corrupt(
                                "checkpoint footer: index does not match the container \
                                 structure"
                                    .into(),
                            )
                            .into());
                        }
                    }
                    if !dec.src.at_end()? {
                        return Err(Error::Corrupt(
                            "trailing bytes after the end marker".into(),
                        )
                        .into());
                    }
                    end = true;
                }
            }
        }
        let Some(n_records) = queued.pop_front() else { break };
        dec.replay(n_records, sink.buf())?;
        let _s = driver_span(tel, "io.write");
        sink.flush_block()?;
        records += n_records;
    }
    if let Some(c) = tel.map(OpCounters::decompress) {
        c.bytes_in.add(dec.src.pos());
        c.bytes_out.add((header_len + records * spec.record_bytes() as usize) as u64);
        c.records.add(records as u64);
        c.blocks.add(walked.blocks.len() as u64);
    }
    Ok(())
}

/// Decompresses an in-memory container into an output reserved once at
/// its exact decoded size. The record counts are summed by the decoder's
/// own frame reader, which checks every segment length against the
/// remaining input before anything is inflated.
pub(crate) fn decompress_slice(
    spec: &TraceSpec,
    options: &EngineOptions,
    hash: u32,
    packed: &[u8],
    tel: Option<&Recorder>,
) -> Result<Vec<u8>, StreamError> {
    let mut src = SliceSource::new(packed);
    let checkpointed = read_prelude(&mut src, spec, options, hash)?.checkpoint_blocks > 0;
    let header_len = src.take(spec.header_bytes() as usize)?.len();
    let mut records = 0usize;
    loop {
        match read_frame(&mut src, checkpointed)? {
            Frame::End => break,
            Frame::Checkpoint(len) => {
                src.take(len)?;
            }
            Frame::Block(n) => {
                records = records
                    .checked_add(n as usize)
                    .ok_or_else(|| Error::Corrupt("total record count overflows".into()))?;
                for _ in 0..2 * spec.fields.len() {
                    read_segment(&mut src)?;
                }
            }
        }
    }
    let out_len = records
        .checked_mul(spec.record_bytes() as usize)
        .and_then(|body| body.checked_add(header_len))
        .ok_or_else(|| Error::Corrupt("decoded trace size overflows".into()))?;
    // Fallible reservation: a forged record count must produce an error,
    // not an allocation abort.
    let mut out = Vec::new();
    out.try_reserve_exact(out_len).map_err(|_| {
        Error::Corrupt(format!("cannot allocate {out_len} bytes for the decoded trace"))
    })?;
    decompress(spec, options, hash, SliceSource::new(packed), &mut out, tel)?;
    Ok(out)
}
