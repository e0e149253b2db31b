//! Container-supplied lengths are untrusted: a forged segment length must
//! be rejected before anything is allocated for it, on every decode path.
//! A counting global allocator measures the peak heap growth of each
//! call. Everything runs in one test so no other test's allocations
//! interleave with the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use tcgen_engine::{decompress_stream, extract_range, Backend, Engine, EngineOptions};
use tcgen_spec::{parse, TraceSpec};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            let live = LIVE.fetch_add(new_size, Ordering::SeqCst) + new_size;
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap growth over the live baseline while `f` runs.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

/// Small tables keep the decoder's own predictor state far below the
/// bound, so the measurement sees only what the forged length causes.
const SPEC: &str = "TCgen Trace Specification;\n\
    32-Bit Header;\n\
    32-Bit Field 1 = {L1 = 1, L2 = 64: LV[2], FCM1[2]};\n\
    64-Bit Field 2 = {L1 = 64, L2 = 256: LV[2], ST[2], DFCM2[2]};\n\
    PC = Field 1;\n";

const BOUND: usize = 1 << 20;

#[test]
fn forged_segment_length_is_rejected_before_allocating() {
    let spec: TraceSpec = parse(SPEC).expect("fixture spec parses");
    let options = EngineOptions {
        threads: 1,
        model_threads: 1,
        checkpoint_blocks: 1,
        backend: Backend::Fast,
        ..EngineOptions::tcgen()
    };
    let mut raw = vec![9, 8, 7, 6];
    for i in 0..4u64 {
        raw.extend_from_slice(&(0x40_0000u32 + i as u32 * 4).to_le_bytes());
        raw.extend_from_slice(&(0x2000 + i * 8).to_le_bytes());
    }
    let engine = Engine::new(spec.clone(), options);
    let mut packed = engine.compress(&raw).expect("compress");
    assert!(packed.len() < 200, "fixture container is {} bytes", packed.len());
    // Prelude (12) + header (4) + block marker and record count (5):
    // the first segment's length field.
    let len_at = 12 + 4 + 5;
    packed[len_at..len_at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());

    let (result, peak) = peak_growth(|| {
        let mut out = Vec::new();
        decompress_stream(&spec, &options, &mut packed.as_slice(), &mut out)
    });
    assert!(result.is_err(), "decompress_stream accepted a forged segment length");
    assert!(peak < BOUND, "decompress_stream peaked at {peak} bytes");

    let (result, peak) = peak_growth(|| engine.decompress(&packed));
    assert!(result.is_err(), "Engine::decompress accepted a forged segment length");
    assert!(peak < BOUND, "Engine::decompress peaked at {peak} bytes");

    let (result, peak) =
        peak_growth(|| extract_range(&spec, &options, &mut Cursor::new(&packed), 0..4, None));
    assert!(result.is_err(), "extract_range accepted a forged segment length");
    assert!(peak < BOUND, "extract_range peaked at {peak} bytes");
}
