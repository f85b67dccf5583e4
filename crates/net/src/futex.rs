//! A wake word: sleep while a `u32` holds an expected value, and wake every
//! sleeper at once.
//!
//! On Linux (x86_64 and aarch64) this is `futex(2)` with the private-futex
//! operations, called through libc's `syscall` so no crate is needed. A
//! wake costs one syscall however many threads sleep on the word. Elsewhere
//! a waiter polls the word with `yield_now`, and a wake is just the store
//! the caller already made.
//!
//! Both calls may return early (a signal, a spurious wake-up, or a value
//! that already changed); callers re-check their own condition.

use std::sync::atomic::AtomicU32;
use std::time::Duration;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::os::raw::{c_int, c_long};

    #[cfg(target_arch = "x86_64")]
    pub const SYS_FUTEX: c_long = 202;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_FUTEX: c_long = 98;
    pub const FUTEX_WAIT_PRIVATE: c_int = 128;
    pub const FUTEX_WAKE_PRIVATE: c_int = 129;

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn syscall(num: c_long, ...) -> c_long;
    }
}

/// Sleeps while `word` holds `expected`, for at most `timeout` if given.
pub(crate) fn wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::os::raw::c_long;
        let ts = timeout.map(|d| sys::Timespec {
            tv_sec: d.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: d.subsec_nanos() as c_long,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const sys::Timespec);
        // SAFETY: `word` is a live, aligned 32-bit atomic for the whole
        // call, and `ts_ptr` is null or points at a timespec on this stack
        // frame. FUTEX_WAIT only reads both; the kernel compares the word
        // atomically and returns at once if it no longer equals `expected`.
        unsafe {
            sys::syscall(
                sys::SYS_FUTEX,
                word.as_ptr(),
                sys::FUTEX_WAIT_PRIVATE,
                expected,
                ts_ptr,
            );
        }
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        use std::sync::atomic::Ordering;
        let deadline = timeout.map(|d| std::time::Instant::now() + d);
        while word.load(Ordering::Acquire) == expected
            && deadline.is_none_or(|t| std::time::Instant::now() < t)
        {
            std::thread::yield_now();
        }
    }
}

/// Wakes every thread sleeping on `word`. Call it after changing the word.
pub(crate) fn wake_all(word: &AtomicU32) {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    // SAFETY: `word` is a live, aligned 32-bit atomic; FUTEX_WAKE only uses
    // its address to find the sleepers.
    unsafe {
        sys::syscall(
            sys::SYS_FUTEX,
            word.as_ptr(),
            sys::FUTEX_WAKE_PRIVATE,
            std::os::raw::c_int::MAX,
        );
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    let _ = word;
}
