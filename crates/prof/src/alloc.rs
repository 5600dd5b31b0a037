//! The counting allocator: a [`GlobalAlloc`] wrapper around [`System`]
//! that keeps process-wide atomic tallies of allocation traffic, plus the
//! scoped [`AllocScope`] API the bench binaries bracket their runs with.
//!
//! Install it per binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rb_prof::CountingAlloc = rb_prof::CountingAlloc;
//! ```
//!
//! Without the installation every reader below sees zeros — the library
//! never panics over a missing allocator, so instrumented code runs
//! unchanged in binaries that do not measure memory.
//!
//! Byte counts are deterministic for a fixed binary on a fixed input (the
//! workspace's runs are pure functions of `(design, seed, profile)`), but
//! they shift across compiler versions; the regression gate compares them
//! under tolerance, never byte-exactly.
// The one audited unsafe surface in the workspace: delegating the four
// GlobalAlloc entry points to `System`. The CI `verify` job greps the tree
// for `unsafe` and exempts exactly this file.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS_TOTAL: AtomicU64 = AtomicU64::new(0);
static BYTES_TOTAL: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);
/// Peak live bytes since the last [`AllocScope::start`] (scopes reset it;
/// the process-wide peak never resets).
static WINDOW_PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    ALLOCS_TOTAL.fetch_add(1, Ordering::Relaxed);
    BYTES_TOTAL.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    WINDOW_PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: u64) {
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

/// The counting [`System`] wrapper. A unit struct so binaries can install
/// it as a `static` with `#[global_allocator]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every entry point delegates verbatim to `System`, which upholds
// the GlobalAlloc contract; the added atomic bookkeeping neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds the layout contract; forwarded verbatim.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds the layout contract; forwarded verbatim.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller passes a pointer this allocator returned with the
        // same layout; forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller upholds the realloc contract; forwarded verbatim.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// A point-in-time (or scoped-delta) reading of the allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations performed.
    pub allocs_total: u64,
    /// Bytes requested across all allocations (cumulative, frees ignored).
    pub bytes_total: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// Highest live-byte watermark observed.
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// The counters right now (process-wide peak). All zeros when
    /// [`CountingAlloc`] is not installed as the global allocator.
    pub(crate) fn current() -> Self {
        AllocStats {
            allocs_total: ALLOCS_TOTAL.load(Ordering::Relaxed),
            bytes_total: BYTES_TOTAL.load(Ordering::Relaxed),
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
            peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed),
        }
    }
}

/// Brackets a region of interest: `start()` before the work, `finish()`
/// after, and the result is the region's allocation traffic with
/// `peak_live_bytes` measured *within* the region (the start resets the
/// window watermark to the bytes live at that instant).
///
/// The counters are process-wide, so scopes are meant to run one at a
/// time from a bench `main`; concurrent scopes see each other's traffic.
#[derive(Debug)]
pub struct AllocScope {
    start: AllocStats,
}

impl AllocScope {
    /// Starts a measurement window at the current counters.
    pub fn start() -> Self {
        let start = AllocStats::current();
        WINDOW_PEAK.store(start.live_bytes, Ordering::Relaxed);
        AllocScope { start }
    }

    /// Ends the window: allocation and byte counts are deltas since
    /// `start()`, `peak_live_bytes` is the highest live watermark seen
    /// during the window, `live_bytes` the bytes live right now.
    pub fn finish(&self) -> AllocStats {
        let now = AllocStats::current();
        AllocStats {
            allocs_total: now.allocs_total.saturating_sub(self.start.allocs_total),
            bytes_total: now.bytes_total.saturating_sub(self.start.bytes_total),
            live_bytes: now.live_bytes,
            peak_live_bytes: WINDOW_PEAK.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    // Installed for the whole test binary: every test in this crate runs
    // under the counting allocator.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn scope_measures_allocation_traffic() {
        let scope = AllocScope::start();
        let v: Vec<u64> = (0..10_000).collect();
        let stats = scope.finish();
        assert!(stats.allocs_total >= 1, "{stats:?}");
        assert!(stats.bytes_total >= 80_000, "{stats:?}");
        assert!(
            stats.peak_live_bytes >= stats.live_bytes.min(80_000),
            "{stats:?}"
        );
        drop(v);
        let after = AllocStats::current();
        assert!(after.live_bytes < stats.peak_live_bytes);
    }
}
