//! Opt-in instrumented global allocator: live/peak byte accounting.
//!
//! [`CountingAlloc`] wraps the system allocator and maintains process-wide
//! live/peak byte counters behind a runtime switch. It is *opt-in twice*:
//!
//! 1. A binary that wants accounting registers it explicitly:
//!    ```ignore
//!    #[global_allocator]
//!    static ALLOC: tsgemm_net::alloc::CountingAlloc = tsgemm_net::alloc::CountingAlloc;
//!    ```
//!    Library code never registers it, so ordinary builds keep the plain
//!    system allocator.
//! 2. Even when registered, counting is off until [`set_enabled`]`(true)`:
//!    the only overhead while disabled is one relaxed atomic load per
//!    allocator call.
//!
//! Byte accounting is process-global: under [`crate::World::run`] the
//! counters aggregate all ranks, which is exactly the "resident bytes of
//! the whole job on one node" quantity the paper's tiling claim (§III-B)
//! bounds. Allocation calls are counted twice: process-wide
//! ([`alloc_count`]) and per calling thread ([`thread_alloc_count`]), so a
//! check that one code path allocates nothing is not polluted by other
//! threads of the process (a test harness spawning or retiring threads).
//! `tests/memory_invariant.rs` drives it: peak bytes during the tile loop
//! must stay under the resident-slice formula `f(w, nnz)` for every tile
//! width, and the flight recorder's record path must allocate nothing at
//! all.
//!
//! `LIVE` is signed: frees of memory allocated *before* counting was
//! enabled would otherwise underflow the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Drop-in replacement for [`System`] that counts bytes when enabled.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread is being torn down.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Switches byte accounting on or off (affects a registered
/// [`CountingAlloc`] only; a no-op under the plain system allocator).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether accounting is currently switched on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Bytes currently live (allocated minus freed since counting started).
/// Can momentarily read low if frees of pre-counting allocations outweigh
/// fresh allocations; clamped at zero.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Number of allocation calls counted so far.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Number of allocation calls the calling thread has made while counting
/// was on. Never reset: measure a region by the difference of two reads.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Resets the peak to the current live level (so a subsequent
/// [`peak_bytes`] reports the high-water mark of the region of interest).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::SeqCst);
}

/// Zeroes all counters. Test setup only; meaningless while allocations made
/// under counting are still live.
pub fn reset() {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
}

/// True when a [`CountingAlloc`] is actually registered as the global
/// allocator *and* counting is enabled: probes with a throwaway allocation
/// and checks the counter moved. Instrumentation sites use this to skip
/// recording meaningless zeros under the plain system allocator.
pub fn counting_active() -> bool {
    if !enabled() {
        return false;
    }
    let before = alloc_count();
    let probe: Vec<u8> = Vec::with_capacity(32);
    std::hint::black_box(&probe);
    drop(probe);
    alloc_count() != before
}

/// Measures the peak over a region: construct before, [`MemScope::finish`]
/// after.
pub struct MemScope {
    live_at_start: u64,
    allocs_at_start: u64,
}

/// What a [`MemScope`] observed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemUse {
    /// Peak live bytes during the scope, measured above the live level at
    /// scope start (0 if nothing out-grew the starting level).
    pub peak_delta: u64,
    /// Allocation calls during the scope.
    pub allocs: u64,
}

impl MemScope {
    /// Starts a scope: resets the peak to the current live level.
    pub fn begin() -> Self {
        reset_peak();
        Self {
            live_at_start: live_bytes(),
            allocs_at_start: alloc_count(),
        }
    }

    /// Ends the scope and reports what it saw.
    pub fn finish(self) -> MemUse {
        MemUse {
            peak_delta: peak_bytes().saturating_sub(self.live_at_start),
            allocs: alloc_count() - self.allocs_at_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests run under whatever global allocator the test binary
    // has (the plain system one for this crate), so they only exercise the
    // bookkeeping helpers, not the GlobalAlloc hooks. The hook behaviour is
    // pinned end-to-end in `tests/memory_invariant.rs`, which registers
    // `CountingAlloc` for its own binary. The counters are process-global,
    // so tests touching them take one lock.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_track_manual_events() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        on_alloc(100);
        on_alloc(50);
        on_dealloc(100);
        assert_eq!(live_bytes(), 50);
        assert_eq!(peak_bytes(), 150);
        assert_eq!(alloc_count(), 2);
        reset_peak();
        assert_eq!(peak_bytes(), 50);
        on_alloc(10);
        assert_eq!(peak_bytes(), 60);
        reset();
    }

    #[test]
    fn thread_count_sees_only_the_calling_thread() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        let before = thread_alloc_count();
        on_alloc(8);
        std::thread::spawn(|| {
            on_alloc(8);
            on_alloc(8);
        })
        .join()
        .unwrap();
        assert_eq!(thread_alloc_count() - before, 1);
        assert_eq!(alloc_count(), 3);
        reset();
    }

    #[test]
    fn live_clamps_at_zero_on_foreign_frees() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        on_dealloc(1000); // free of a pre-counting allocation
        assert_eq!(live_bytes(), 0);
        assert_eq!(peak_bytes(), 0);
        on_alloc(10);
        // Net live is still negative; the clamp keeps the API sane.
        assert_eq!(live_bytes(), 0);
        reset();
    }

    #[test]
    fn counting_active_is_false_without_registration() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        // This test binary uses the system allocator, so the probe
        // allocation must not move the counter.
        assert!(!counting_active());
        set_enabled(false);
        assert!(!counting_active());
    }
}
