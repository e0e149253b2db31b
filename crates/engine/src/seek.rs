//! Seekable access to checkpointed containers: inspect a container's
//! prelude and footer without a specification, and extract an arbitrary
//! record range by reading only the footer plus the spans that cover it.
//!
//! Both entry points work over `Read + Seek`, so a multi-gigabyte
//! container on disk costs three reads for [`inspect`] (prelude, footer
//! tail, footer body) and, for [`extract_range`], additionally the
//! covering checkpoint segment and block frames — never the whole file.

use std::io::{Read, Seek};

use tcgen_spec::TraceSpec;
use tcgen_telemetry::Recorder;

use crate::codec::{
    checkpoint_codec, read_frame, read_prelude, spec_hash, BlockDecoder, ByteSource, Frame,
};
use crate::container::{self, FOOTER_TAIL_LEN, PRELUDE_LEN};
use crate::options::EngineOptions;
use crate::postcodec::Backend;
use crate::stream_io::{ReaderSource, StreamError};
use crate::Error;

/// Telemetry counter fed with every byte [`extract_range`] reads from
/// the container, so tests (and curious users) can verify that a range
/// extraction touches only the footer and the covering spans.
pub const SEEK_BYTES_READ: &str = "seek.bytes_read";

/// One independently replayable span of a checkpointed container, as
/// reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// Index of the first block in the span.
    pub first_block: u32,
    /// One past the last block in the span.
    pub end_block: u32,
    /// Absolute index of the first record in the span.
    pub start_record: u64,
    /// One past the last record in the span.
    pub end_record: u64,
    /// Container offset of the checkpoint segment opening the span;
    /// `None` for span 0, which replays from fresh predictor state.
    pub checkpoint_offset: Option<u64>,
}

/// A container's prelude and (when present) footer index, decoded
/// without a trace specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Container format version.
    pub version: u8,
    /// Raw flags byte.
    pub flags: u8,
    /// FNV-1a hash of the canonical specification text.
    pub spec_hash: u32,
    /// Passthrough header length in bytes.
    pub header_len: usize,
    /// The post-compression backend recorded in the flags, when the id
    /// is valid.
    pub backend: Option<Backend>,
    /// Whether the checkpoint flag bit is set.
    pub checkpointed: bool,
    /// Total container size in bytes.
    pub file_len: u64,
    /// Block count from the footer (checkpointed containers only).
    pub n_blocks: Option<usize>,
    /// Total records from the footer (checkpointed containers only).
    pub total_records: Option<u64>,
    /// The replayable spans, in container order (checkpointed only).
    pub spans: Vec<SpanInfo>,
}

/// Reads a container's prelude — and, for checkpointed containers, its
/// footer — from a seekable reader. No specification is needed: nothing
/// inside the block frames is touched.
///
/// # Errors
///
/// [`StreamError::Codec`] on a malformed prelude or footer, and I/O
/// errors from the reader.
pub fn inspect(reader: &mut (impl Read + Seek)) -> Result<ContainerInfo, StreamError> {
    let mut src = ReaderSource::open(reader, None)?;
    let mut prelude_bytes = [0u8; PRELUDE_LEN];
    src.read_exact(&mut prelude_bytes)?;
    let prelude = container::parse_prelude(&prelude_bytes)?;
    let checkpointed = prelude.flags & EngineOptions::FLAG_CHECKPOINTS != 0;
    let mut info = ContainerInfo {
        version: prelude_bytes[4],
        flags: prelude.flags,
        spec_hash: prelude.spec_hash,
        header_len: prelude.header_len,
        backend: Backend::from_id((prelude.flags >> 3) & 0b11),
        checkpointed,
        file_len: src.end(),
        n_blocks: None,
        total_records: None,
        spans: Vec::new(),
    };
    if !checkpointed {
        return Ok(info);
    }
    let footer = read_footer(&mut src)?;
    info.n_blocks = Some(footer.blocks.len());
    info.total_records = Some(footer.total_records());
    info.spans = spans_of(&footer);
    Ok(info)
}

/// Extracts records `range.start..range.end` (absolute indices, header
/// excluded) from a checkpointed container, reading only the prelude,
/// the footer, and the frames of the covering span: the latest
/// checkpoint at or before the range start is restored and replay runs
/// from there, never from record zero. Each block goes through the
/// sequential decoder's own per-block step, so the same length checks
/// and decode caps apply.
///
/// Returns the raw record bytes, without the passthrough header. Every
/// byte read from `reader` is counted into the [`SEEK_BYTES_READ`]
/// telemetry counter when a recorder is given.
///
/// # Errors
///
/// Fails with [`StreamError::Codec`] when the container has no
/// checkpoint footer (callers wanting a fallback should [`inspect`]
/// first and run a full sequential decompress themselves), when the
/// range exceeds the container's record count, or on corruption; I/O
/// errors are propagated.
pub fn extract_range(
    spec: &TraceSpec,
    options: &EngineOptions,
    reader: &mut (impl Read + Seek),
    range: std::ops::Range<u64>,
    tel: Option<&Recorder>,
) -> Result<Vec<u8>, StreamError> {
    let mut src = ReaderSource::open(reader, tel.map(|rec| rec.counter(SEEK_BYTES_READ)))?;
    let effective = read_prelude(&mut src, spec, options, spec_hash(spec))?;
    if effective.checkpoint_blocks == 0 {
        return Err(Error::Corrupt(
            "container has no checkpoint footer; use a sequential decompress".into(),
        )
        .into());
    }

    let footer = read_footer(&mut src)?;
    let total = footer.total_records();
    if range.start > range.end || range.end > total {
        return Err(Error::Corrupt(format!(
            "record range {}..{} outside 0..{total}",
            range.start, range.end
        ))
        .into());
    }
    if range.start == range.end {
        return Ok(Vec::new());
    }

    // Per-block starting record indices, computed once.
    let mut starts = Vec::with_capacity(footer.blocks.len() + 1);
    let mut acc = 0u64;
    for b in &footer.blocks {
        starts.push(acc);
        acc += u64::from(b.n_records);
    }
    starts.push(acc);

    // The latest checkpoint whose opening block starts at or before the
    // range: restore it and skip everything earlier.
    let opening =
        footer.checkpoints.iter().rev().find(|c| starts[c.block_index as usize] <= range.start);
    let first_block = opening.map_or(0, |c| c.block_index as usize);

    let mut dec = BlockDecoder::new(spec, &effective, src, tel);
    if let Some(ckpt) = opening {
        dec.src.seek(ckpt.offset)?;
        let Frame::Checkpoint(len) = read_frame(&mut dec.src, true)? else {
            return Err(Error::Corrupt(format!(
                "expected a checkpoint frame at offset {}",
                ckpt.offset
            ))
            .into());
        };
        let packed = dec.src.take(len)?;
        let snapshot = checkpoint_codec(options.level, tel)
            .decompress(&packed, dec.replayer.snapshot_limit())
            .map_err(Error::Post)?;
        dec.replayer.restore_banks(&snapshot)?;
    }

    let mut out = Vec::new();
    for (bi, block) in footer.blocks.iter().enumerate().skip(first_block) {
        if starts[bi] >= range.end {
            break;
        }
        dec.src.seek(block.offset)?;
        match read_frame(&mut dec.src, true)? {
            Frame::Block(n) if n == block.n_records => {}
            _ => {
                return Err(Error::Corrupt(format!(
                    "expected a block frame of {} records at offset {}",
                    block.n_records, block.offset
                ))
                .into())
            }
        }
        dec.submit(block.n_records as usize)?;
        dec.replay(block.n_records as usize, &mut out)?;
    }

    // `out` holds records from starts[first_block]; slice the request.
    let record_len = spec.record_bytes() as usize;
    let skip = (range.start - starts[first_block]) as usize * record_len;
    let want = (range.end - range.start) as usize * record_len;
    if skip + want > out.len() {
        return Err(Error::Corrupt(
            "span replay yielded fewer records than the footer promised".into(),
        )
        .into());
    }
    out.drain(..skip);
    out.truncate(want);
    Ok(out)
}

/// Builds the span list a checkpointed container's footer describes.
fn spans_of(footer: &container::Footer) -> Vec<SpanInfo> {
    let mut spans = Vec::with_capacity(footer.checkpoints.len() + 1);
    let mut first = 0u32;
    let mut ckpt_offset = None;
    let bounds = |first: u32, end: u32| {
        (footer.start_record(first as usize), footer.start_record(end as usize))
    };
    for c in &footer.checkpoints {
        let (start_record, end_record) = bounds(first, c.block_index);
        spans.push(SpanInfo {
            first_block: first,
            end_block: c.block_index,
            start_record,
            end_record,
            checkpoint_offset: ckpt_offset,
        });
        first = c.block_index;
        ckpt_offset = Some(c.offset);
    }
    let end = footer.blocks.len() as u32;
    let (start_record, end_record) = bounds(first, end);
    spans.push(SpanInfo {
        first_block: first,
        end_block: end,
        start_record,
        end_record,
        checkpoint_offset: ckpt_offset,
    });
    spans
}

/// Locates and parses the footer from the fixed 12-byte file tail.
fn read_footer<R: Read + Seek>(
    src: &mut ReaderSource<'_, R>,
) -> Result<container::Footer, StreamError> {
    let (file_len, tail_len) = (src.end(), FOOTER_TAIL_LEN as u64);
    if file_len < PRELUDE_LEN as u64 + tail_len {
        return Err(Error::Truncated.into());
    }
    src.seek(file_len - tail_len)?;
    let mut tail = [0u8; FOOTER_TAIL_LEN];
    src.read_exact(&mut tail)?;
    let footer_len =
        u64::from(u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]])) + tail_len;
    if footer_len > file_len - PRELUDE_LEN as u64 {
        return Err(
            Error::Corrupt("checkpoint footer: length field exceeds the file".into()).into()
        );
    }
    src.seek(file_len - footer_len)?;
    Ok(container::parse_footer(&src.take(footer_len as usize)?)?)
}
