//! Stackful coroutines on x86-64 Linux: one mmap'd stack per rank and a
//! System V context switch.
//!
//! A suspended context is a stack pointer. [`switch`] pushes the callee-saved
//! registers, MXCSR and the x87 control word onto the current stack, stores
//! the stack pointer, loads another one and pops the same frame off it. Every
//! other register is caller-saved under the System V ABI, so the compiler
//! has already spilled whatever it needs across the call.
//!
//! [`Stack::start`] lays such a frame out on a fresh stack so that the first
//! switch into it "returns" into [`trampoline`], which calls the entry
//! function. The trampoline's unwind info marks the return address as
//! undefined, so backtraces and unwinders stop there cleanly.
//!
//! Elsewhere [`SUPPORTED`] is false and the scheduler runs every rank on a
//! thread of its own.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use imp::*;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use fallback::*;

/// The entry of a coroutine: gets the argument given to [`Stack::start`]
/// and must never return.
pub(crate) type Entry = extern "C" fn(*const u8) -> !;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use super::Entry;
    use std::os::raw::{c_int, c_long, c_void};

    /// Whether ranks can run as coroutines on this target.
    pub(crate) const SUPPORTED: bool = true;

    /// Usable bytes of a rank stack: what `std::thread::spawn` gives.
    const STACK_BYTES: usize = 2 << 20;

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_STACK: c_int = 0x20000;
    const SC_PAGESIZE: c_int = 30;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn sysconf(name: c_int) -> c_long;
    }

    /// A rank's stack: [`STACK_BYTES`] of lazily committed memory above one
    /// `PROT_NONE` guard page, so an overflow faults instead of writing
    /// into a neighbour.
    pub(crate) struct Stack {
        base: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is plain memory owned by this value; which thread
    // uses it next does not matter.
    unsafe impl Send for Stack {}

    impl Stack {
        /// Maps a new stack. Only the pages a rank touches become resident.
        pub(crate) fn new() -> Self {
            // SAFETY: `sysconf` only reads a system constant.
            let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096);
            let len = STACK_BYTES + page;
            // SAFETY: an anonymous private mapping at a kernel-chosen
            // address touches no existing memory.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            assert!(
                base as isize != -1,
                "mmap of a rank stack failed: {}",
                std::io::Error::last_os_error()
            );
            // SAFETY: the first page of the mapping just made; nothing uses
            // it yet.
            let rc = unsafe { mprotect(base, page, PROT_NONE) };
            assert_eq!(rc, 0, "guard page: {}", std::io::Error::last_os_error());
            Self { base, len }
        }

        /// Lays out a first frame that runs `entry(arg)` when switched to,
        /// and returns the stack pointer to switch to.
        ///
        /// # Safety
        /// The stack must not be running or suspended in another context,
        /// and `arg` must stay valid for as long as `entry` uses it.
        pub(crate) unsafe fn start(&mut self, entry: Entry, arg: *const u8) -> *mut u8 {
            let top = (self.base as usize + self.len) & !15;
            // The frame `switch` pops, lowest address first: MXCSR and the
            // x87 control word, r15, r14, r13, r12, rbx, rbp, and the
            // return address. A zero word above it ends frame-pointer
            // walks; after the `ret` the stack pointer is 16-byte aligned,
            // as the trampoline's `call` needs.
            let frame: [u64; 9] = [
                0x037f_0000_1f80, // default MXCSR, and x87 control word at +4
                0,
                0,
                entry as *const () as u64,
                arg as u64,
                0,
                0,
                trampoline as *const () as u64,
                0,
            ];
            let sp = (top - 16 - 8 * 8) as *mut u64;
            // SAFETY: `sp .. sp + 9` lies inside the writable part of the
            // mapping, below its top.
            unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len()) };
            sp as *mut u8
        }
    }

    impl Drop for Stack {
        /// Unmaps the stack. No context may run on it any more.
        fn drop(&mut self) {
            // SAFETY: the mapping is this value's own, and nothing runs on
            // it (see above).
            let rc = unsafe { munmap(self.base, self.len) };
            debug_assert_eq!(rc, 0, "munmap: {}", std::io::Error::last_os_error());
        }
    }

    /// First code a new coroutine runs: calls `r13(r12)`, which never
    /// returns. The undefined return address ends unwinding here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12",
            "call r13",
            "ud2",
            ".cfi_endproc",
        )
    }

    /// Saves the running context, storing its stack pointer in `*save`, and
    /// resumes the context suspended at `to`.
    ///
    /// # Safety
    /// `to` must be a context suspended by `switch` or laid out by
    /// [`Stack::start`], not running anywhere, on a stack that stays mapped
    /// until it finishes. `save` must be writable.
    #[unsafe(naked)]
    pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fallback {
    use super::Entry;

    /// Whether ranks can run as coroutines on this target.
    pub(crate) const SUPPORTED: bool = false;

    /// Never built: without [`SUPPORTED`] no rank leaves its thread.
    pub(crate) struct Stack;

    impl Stack {
        pub(crate) fn new() -> Self {
            unreachable!("no coroutine stacks on this target")
        }

        pub(crate) unsafe fn start(&mut self, _: Entry, _: *const u8) -> *mut u8 {
            unreachable!("no coroutine stacks on this target")
        }
    }

    pub(crate) unsafe fn switch(_: *mut *mut u8, _: *mut u8) {
        unreachable!("no context switch on this target")
    }
}
