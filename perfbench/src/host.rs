//! Host-side instruments: process and thread CPU clocks, context switches,
//! a counting allocator, and the `/proc/self/status` thread and peak-RSS
//! readings. All of them observe the benchmark process from outside the
//! simulator and never feed back into virtual time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux clocks and /proc with the LP64 C layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on LP64 Linux: two timevals, then fourteen longs from
/// `ru_maxrss` to `ru_nivcsw`.
#[repr(C)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
const RU_NVCSW: usize = 12;
const RU_NIVCSW: usize = 13;

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the LP64
    // layout (checked at compile time above), and the clock id is a
    // constant Linux defines for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process-wide CPU time and context switches. `getrusage(RUSAGE_SELF)`
/// sums every thread of the process, including threads that have exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Read the process's usage now.
    pub fn now() -> Usage {
        let mut ru = RUsage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            longs: [0; 14],
        };
        // SAFETY: `ru` is a live, writable `struct rusage` with the LP64
        // layout, and RUSAGE_SELF is valid for any process.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let tv = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
        Usage {
            cpu_ns: tv(&ru.ru_utime) + tv(&ru.ru_stime),
            ctx_switches: (ru.longs[RU_NVCSW] + ru.longs[RU_NIVCSW]) as u64,
        }
    }
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and reallocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The process's `/proc/self/status` readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Status {
    /// OS threads alive (`Threads:`).
    pub threads: u64,
    /// Peak resident set size in KiB (`VmHWM:`).
    pub vm_hwm_kib: u64,
}

impl Status {
    /// Read `/proc/self/status` now.
    pub fn now() -> Status {
        let text = std::fs::read_to_string("/proc/self/status")
            .expect("/proc/self/status is readable on Linux");
        let field = |key: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("/proc/self/status has no numeric {key}"))
        };
        Status {
            threads: field("Threads:"),
            vm_hwm_kib: field("VmHWM:"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_and_status_read_sane_values() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        let u = Usage::now();
        assert!(u.cpu_ns > 0);
        let s = Status::now();
        assert!(s.threads >= 1 && s.vm_hwm_kib > 0);
    }
}
