//! Process-level memory observability for benchmarks.
//!
//! Two independent signals, both zero-dependency:
//!
//! * [`peak_rss_bytes`] — the process's high-water resident set, read from
//!   `/proc/self/status` (`VmHWM`). Linux-only; other platforms report
//!   `None` rather than a guess.
//! * [`CountingAlloc`] — a [`GlobalAlloc`] wrapper over the system
//!   allocator that counts allocations and bytes requested. A *binary*
//!   opts in by installing it as its `#[global_allocator]`; the library
//!   only tallies. [`alloc_snapshot`] reads the counters and
//!   [`AllocDelta::since`] turns two snapshots into a per-phase figure.
//!
//! Everything here observes the host process, never the simulation: none of
//! it can perturb results, and none of it is part of the deterministic
//! output (the serialized fields live in optional
//! [`EngineProfile`](crate::metrics::EngineProfile) slots).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Total allocations made through [`CountingAlloc`] since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested through [`CountingAlloc`] since process start.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated minus freed). Signed: frees of memory
/// obtained before the allocator was installed can transiently outnumber
/// recorded allocations.
static IN_USE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`IN_USE_BYTES`] since process start.
static PEAK_IN_USE_BYTES: AtomicI64 = AtomicI64::new(0);

#[inline]
fn track_in_use(delta: i64) {
    let now = IN_USE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK_IN_USE_BYTES.fetch_max(now, Ordering::Relaxed);
    }
}

/// A counting global allocator: forwards to [`System`], tallying every
/// allocation. Install in a bench binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
///
/// Counters use relaxed atomics — nanoseconds per allocation, and the
/// counts are exact because every allocation goes through here once
/// installed.
pub struct CountingAlloc;

// The allocator contract itself is unsafe by nature; this impl adds no
// unsafety of its own beyond delegating to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        track_in_use(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_in_use(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // Count only growth, so a realloc'd buffer isn't double-counted.
        ALLOCATED_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        track_in_use(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// One reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (including growing reallocs) so far.
    pub allocations: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Read the global allocation counters. All-zero (and meaningless as a
/// delta) unless the binary installed [`CountingAlloc`].
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
    }
}

/// The allocation traffic between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations in the window.
    pub allocations: u64,
    /// Bytes requested in the window.
    pub bytes: u64,
}

impl AllocDelta {
    /// Traffic since `earlier`. Returns `None` when the counters never
    /// moved — i.e. [`CountingAlloc`] is not installed, so there is no
    /// signal (as opposed to a genuine zero-allocation window, which a
    /// Rust program of any size does not have).
    pub fn since(earlier: AllocSnapshot) -> Option<AllocDelta> {
        let now = alloc_snapshot();
        if now.allocations == 0 {
            return None;
        }
        Some(AllocDelta {
            allocations: now.allocations - earlier.allocations,
            bytes: now.bytes - earlier.bytes,
        })
    }
}

/// Bytes currently live through [`CountingAlloc`] (0 when not installed).
/// Exact across threads: every thread's allocations and frees go through
/// the same global counters, so worker-thread traffic is attributed to the
/// run without double-counting.
pub fn current_in_use_bytes() -> i64 {
    IN_USE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live bytes since process start.
pub fn peak_in_use_bytes() -> i64 {
    PEAK_IN_USE_BYTES.load(Ordering::Relaxed)
}

/// The process's peak resident set size in bytes (`VmHWM`), or `None` where
/// `/proc` is unavailable (non-Linux) or unparsable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotone() {
        let a = alloc_snapshot();
        let _v: Vec<u64> = (0..1000).collect();
        let b = alloc_snapshot();
        assert!(b.allocations >= a.allocations);
        assert!(b.bytes >= a.bytes);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_on_linux() {
        let rss = peak_rss_bytes().expect("/proc/self/status has VmHWM");
        // A running test binary occupies at least a megabyte.
        assert!(rss > 1 << 20, "implausible peak RSS {rss}");
    }

    #[test]
    fn in_use_tracking_is_thread_safe_and_balanced() {
        // Whether or not the allocator is installed in this test binary, the
        // accounting must be race-free and must net out to ~zero for a
        // balanced allocate/free storm across threads.
        let before = current_in_use_bytes();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let v: Vec<u8> = vec![0u8; 64 + (t * 131 + i) % 256];
                        std::hint::black_box(&v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let after = current_in_use_bytes();
        // All thread-local vectors were dropped; anything still live is
        // unrelated background traffic from the test harness.
        assert!(
            (after - before).abs() < 1 << 20,
            "in-use drifted by {} bytes across a balanced storm",
            after - before
        );
        assert!(peak_in_use_bytes() >= after.max(0));
    }

    #[test]
    fn delta_none_without_installed_allocator_or_some_with() {
        // This test binary may or may not have the allocator installed;
        // both outcomes must be coherent with the snapshot.
        let before = alloc_snapshot();
        let _v: Vec<u64> = (0..100).collect();
        match AllocDelta::since(before) {
            None => assert_eq!(alloc_snapshot().allocations, 0),
            Some(d) => assert!(d.bytes >= 800),
        }
    }
}
