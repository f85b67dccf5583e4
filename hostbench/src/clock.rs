//! Host clocks from the C library, standard library only.
//!
//! Wall time comes from `std::time::Instant`. CPU time needs POSIX clocks:
//! with 64 rank threads on a 2-core host, a rank's wall time is mostly time
//! it spent descheduled, so every `*_cpu_s` figure reads the calling
//! thread's own CPU clock instead.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [c_long; 14],
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const RUSAGE_SELF: c_int = 0;

fn cpu_clock(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout,
    // and both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + sys) the whole process has used.
pub fn process_cpu() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// System (kernel) CPU seconds the whole process has used.
pub fn process_sys() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, and RUSAGE_SELF is a valid selector.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.ru_stime.tv_sec as f64 + ru.ru_stime.tv_usec as f64 * 1e-6
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Wall and thread-CPU time of one call, measured on the calling thread.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// `(wall seconds, thread-CPU seconds)` since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), thread_cpu() - self.cpu)
    }
}
