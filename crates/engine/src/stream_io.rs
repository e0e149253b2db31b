//! Streaming compression and decompression over `std::io` readers and
//! writers: trace data is processed one block at a time, so multi-
//! gigabyte traces never need to fit in memory — the way the paper's
//! generated tools stream from standard input to standard output.
//!
//! Streaming runs the same drivers as the in-memory [`crate::Engine`]
//! ([`crate::codec`]), with a reader as the record or byte source and a
//! writer as the sink, so streamed output is byte-identical to
//! [`crate::Engine::compress`] for the same options at any thread or
//! model-thread count.

use std::io::{Read, Seek, SeekFrom, Write};

use tcgen_spec::TraceSpec;
use tcgen_telemetry::Counter;

use crate::codec::{self, spec_hash, ByteSource, RecordSource, Sink, MAX_BLOCK_RECORDS};
use crate::columnar::COLUMN_CHUNK_RECORDS;
use crate::options::EngineOptions;
use crate::Error;

/// An I/O failure or a codec failure during streaming.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The trace or container was malformed.
    Codec(Error),
}

impl StreamError {
    /// The codec error inside: in-memory sources and sinks cannot fail
    /// at I/O, so anything else is an engine bug.
    pub(crate) fn into_codec(self) -> Error {
        match self {
            StreamError::Codec(e) => e,
            StreamError::Io(e) => Error::Internal(format!("in-memory i/o: {e}")),
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o: {e}"),
            StreamError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<Error> for StreamError {
    fn from(e: Error) -> Self {
        StreamError::Codec(e)
    }
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// Maps an unexpected-EOF from `read_exact` to the container-truncation
/// error, leaving genuine I/O failures as such.
fn short_read(e: std::io::Error) -> StreamError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        Error::Truncated.into()
    } else {
        StreamError::Io(e)
    }
}

/// Compresses a trace from `input` to `output`, holding at most a
/// bounded number of blocks in memory. Blocks hold at most 2^24 records,
/// so a whole-trace setting still streams.
///
/// # Errors
///
/// Returns [`StreamError::Codec`] with [`Error::PartialRecord`] when the
/// input ends mid-record, and propagates I/O errors.
pub fn compress_stream(
    spec: &TraceSpec,
    options: &EngineOptions,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), StreamError> {
    let record_len = spec.record_bytes() as usize;
    let chunk_records = options.effective_block_records().min(MAX_BLOCK_RECORDS);
    let mut source = ReaderRecords {
        input,
        header: vec![0u8; spec.header_bytes() as usize],
        chunk: vec![0u8; record_len * chunk_records.min(COLUMN_CHUNK_RECORDS)],
        record_len,
    };
    codec::compress(spec, options, spec_hash(spec), &mut source, output, None, None)
}

/// A trace read from a stream, one modeling chunk at a time.
struct ReaderRecords<'r, R> {
    input: &'r mut R,
    header: Vec<u8>,
    chunk: Vec<u8>,
    record_len: usize,
}

impl<R> ReaderRecords<'_, R> {
    fn partial(&self, len: usize) -> StreamError {
        Error::PartialRecord { len, header_len: self.header.len(), record_len: self.record_len }
            .into()
    }
}

impl<R: Read> RecordSource for ReaderRecords<'_, R> {
    fn header(&mut self) -> Result<&[u8], StreamError> {
        let got = read_exact_or_eof(self.input, &mut self.header)?;
        if got != self.header.len() {
            return Err(self.partial(got));
        }
        Ok(&self.header)
    }

    fn records(&mut self, max: usize) -> Result<&[u8], StreamError> {
        let want = max.min(self.chunk.len() / self.record_len) * self.record_len;
        let got = read_exact_or_eof(self.input, &mut self.chunk[..want])?;
        if got % self.record_len != 0 {
            return Err(self.partial(got));
        }
        Ok(&self.chunk[..got])
    }
}

/// Decompresses a container from `input` to `output`, holding at most a
/// bounded number of blocks in memory.
///
/// Applies the same hardening as the in-memory decompressor: segment
/// decodes are capped by the block's record count, value streams must be
/// consumed exactly, and data after the end marker is rejected.
///
/// # Errors
///
/// As for [`crate::Engine::decompress`], plus I/O errors.
pub fn decompress_stream(
    spec: &TraceSpec,
    options: &EngineOptions,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), StreamError> {
    let mut sink = WriteSink { output, buf: Vec::new() };
    let src = ReaderSource::new(input, None, None);
    codec::decompress(spec, options, spec_hash(spec), src, &mut sink, None)?;
    sink.output.flush()?;
    Ok(())
}

/// Writes each replayed block on to a writer.
struct WriteSink<'w, W> {
    output: &'w mut W,
    buf: Vec<u8>,
}

impl<W: Write> Sink for WriteSink<'_, W> {
    fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    fn flush_block(&mut self) -> Result<(), StreamError> {
        self.output.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// A segment buffer's initial capacity when the container length is
/// unknown; the rest grows only as segment bytes actually arrive.
const SEGMENT_PREALLOC: usize = 1 << 16;

/// A container read from a stream. With `end` known (a seekable file),
/// every read is checked against it before anything is allocated; every
/// byte read is counted into `counter` when one is given.
pub(crate) struct ReaderSource<'r, R> {
    inner: &'r mut R,
    pos: u64,
    end: Option<u64>,
    counter: Option<Counter>,
}

impl<'r, R: Read> ReaderSource<'r, R> {
    pub(crate) fn new(inner: &'r mut R, end: Option<u64>, counter: Option<Counter>) -> Self {
        Self { inner, pos: 0, end, counter }
    }

    fn check(&self, len: usize) -> Result<(), StreamError> {
        match self.end {
            Some(end) if len as u64 > end.saturating_sub(self.pos) => {
                Err(Error::Truncated.into())
            }
            _ => Ok(()),
        }
    }

    fn advance(&mut self, len: usize) {
        self.pos += len as u64;
        if let Some(c) = &self.counter {
            c.add(len as u64);
        }
    }
}

impl<'r, R: Read + Seek> ReaderSource<'r, R> {
    /// A seekable container, whose length bounds every read.
    pub(crate) fn open(
        inner: &'r mut R,
        counter: Option<Counter>,
    ) -> Result<Self, StreamError> {
        let end = inner.seek(SeekFrom::End(0))?;
        inner.seek(SeekFrom::Start(0))?;
        Ok(Self::new(inner, Some(end), counter))
    }

    /// The container length.
    pub(crate) fn end(&self) -> u64 {
        self.end.expect("seekable sources know their length")
    }

    /// Moves to container offset `offset`, which must lie inside the
    /// container.
    pub(crate) fn seek(&mut self, offset: u64) -> Result<(), StreamError> {
        if offset >= self.end() {
            return Err(Error::Truncated.into());
        }
        self.inner.seek(SeekFrom::Start(offset))?;
        self.pos = offset;
        Ok(())
    }
}

impl<R: Read> ByteSource for ReaderSource<'_, R> {
    type Segment = Vec<u8>;

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StreamError> {
        self.check(buf.len())?;
        self.inner.read_exact(buf).map_err(short_read)?;
        self.advance(buf.len());
        Ok(())
    }

    fn take(&mut self, len: usize) -> Result<Vec<u8>, StreamError> {
        self.check(len)?;
        let reserve = if self.end.is_some() { len } else { len.min(SEGMENT_PREALLOC) };
        let mut seg = Vec::with_capacity(reserve);
        (&mut *self.inner).take(len as u64).read_to_end(&mut seg)?;
        if seg.len() != len {
            return Err(Error::Truncated.into());
        }
        self.advance(len);
        Ok(seg)
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn at_end(&mut self) -> Result<bool, StreamError> {
        if let Some(end) = self.end {
            return Ok(self.pos >= end);
        }
        Ok(read_exact_or_eof(self.inner, &mut [0u8; 1])? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use tcgen_spec::{parse, presets};

    fn demo_trace(records: usize) -> Vec<u8> {
        let mut raw = vec![9, 8, 7, 6];
        for i in 0..records as u64 {
            raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 11) * 4).to_le_bytes());
            raw.extend_from_slice(&(0x2000 + i * 8).to_le_bytes());
        }
        raw
    }

    #[test]
    fn streaming_matches_in_memory_byte_for_byte() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let raw = demo_trace(3_333);
        for threads in [1usize, 4] {
            let options =
                EngineOptions { block_records: 500, threads, ..EngineOptions::tcgen() };
            let in_memory = Engine::new(spec.clone(), options).compress(&raw).unwrap();
            let mut streamed = Vec::new();
            compress_stream(&spec, &options, &mut raw.as_slice(), &mut streamed).unwrap();
            assert_eq!(streamed, in_memory, "threads {threads}");
        }
    }

    #[test]
    fn streaming_roundtrip() {
        let spec = parse(presets::TCGEN_A).unwrap();
        for threads in [1usize, 3] {
            let options =
                EngineOptions { block_records: 100, threads, ..EngineOptions::tcgen() };
            let raw = demo_trace(1_501);
            let mut packed = Vec::new();
            compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
            let mut restored = Vec::new();
            decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored).unwrap();
            assert_eq!(restored, raw, "threads {threads}");
        }
    }

    #[test]
    fn streaming_cross_compatibility_with_in_memory() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions::tcgen();
        let raw = demo_trace(700);
        // Stream-compressed, memory-decompressed.
        let mut packed = Vec::new();
        compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
        let engine = Engine::new(spec.clone(), options);
        assert_eq!(engine.decompress(&packed).unwrap(), raw);
        // Memory-compressed, stream-decompressed.
        let packed = engine.compress(&raw).unwrap();
        let mut restored = Vec::new();
        decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored).unwrap();
        assert_eq!(restored, raw);
    }

    #[test]
    fn partial_record_detected_mid_stream() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let mut raw = demo_trace(10);
        raw.pop();
        let mut sink = Vec::new();
        let err =
            compress_stream(&spec, &EngineOptions::tcgen(), &mut raw.as_slice(), &mut sink)
                .unwrap_err();
        assert!(matches!(err, StreamError::Codec(Error::PartialRecord { .. })));
    }

    #[test]
    fn truncated_container_detected() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions::tcgen();
        let raw = demo_trace(200);
        let mut packed = Vec::new();
        compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
        let cut = &packed[..packed.len() - 2];
        let mut restored = Vec::new();
        assert!(decompress_stream(&spec, &options, &mut &cut[..], &mut restored).is_err());
    }

    #[test]
    fn trailing_bytes_after_end_marker_rejected() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let raw = demo_trace(50);
        for threads in [1usize, 2] {
            let options = EngineOptions { threads, ..EngineOptions::tcgen() };
            let mut packed = Vec::new();
            compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
            packed.push(0xEE);
            let mut restored = Vec::new();
            let err = decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored)
                .unwrap_err();
            assert!(
                matches!(err, StreamError::Codec(Error::Corrupt(_))),
                "threads {threads}: {err}"
            );
        }
    }

    #[test]
    fn empty_trace_streams() {
        let spec = parse(presets::TCGEN_A).unwrap();
        let options = EngineOptions::tcgen();
        let raw = vec![1, 2, 3, 4];
        let mut packed = Vec::new();
        compress_stream(&spec, &options, &mut raw.as_slice(), &mut packed).unwrap();
        let mut restored = Vec::new();
        decompress_stream(&spec, &options, &mut packed.as_slice(), &mut restored).unwrap();
        assert_eq!(restored, raw);
    }
}
