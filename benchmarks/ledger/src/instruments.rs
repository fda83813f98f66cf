//! The ledger's own instruments: allocation counter, process-CPU clock,
//! percentile pick and `/proc/self/status` readers.
//!
//! They live here, and not in `crates/bench`, so that no change outside
//! `benchmarks/` can move a number the ledger reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc`, `alloc_zeroed` and `realloc` of the process
/// (client and servers share it) and forwards to the system allocator.
pub struct CountingAllocator;

// SAFETY: every operation is forwarded unchanged to `System`; the counter
// update does not touch the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: a statistic that publishes no other data.
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap `alloc` + `realloc` events since process start, all threads.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // From the libc `std` already links (the `reactor::sys` pattern).
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The value at quantile `q` of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it (nearest
/// rank). Panics on an empty slice — a window without a call is a bug.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn status_field(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line[field.len()..].split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Resident set size in MiB (0 where `/proc` is missing).
pub fn rss_mib() -> f64 {
    status_field("VmRSS:") as f64 / 1024.0
}

/// Live threads of the process right now.
pub fn threads_now() -> u64 {
    status_field("Threads:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.91), 10);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        let odd = [1u32, 2, 3];
        assert_eq!(percentile(&odd, 0.5), 2);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > t0, "cpu clock did not move ({x})");
    }
}
