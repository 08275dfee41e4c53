//! Stackful fibers: the stacks simulated threads run on and the
//! userland context switch between them. All of the crate's `unsafe`
//! lives here, except the single-owner cell of `owned.rs`.
//!
//! A fiber is a stack plus, while it is not running, a saved stack
//! pointer; the callee-saved registers sit on the stack itself (the
//! MXCSR / x87 / FPCR control words are not switched: nothing here
//! changes them, so every fiber runs with the OS thread's). The kernel
//! multiplexes every fiber of one simulation onto the OS thread
//! that called `Kernel::run`, so a switch is a dozen instructions
//! instead of a futex round-trip through the OS scheduler.
//!
//! # Contract
//!
//! * **Targets**: x86_64 and aarch64 Linux (System V / AAPCS64 calling
//!   conventions, Linux `mmap` flag values). Anything else is a
//!   `compile_error!`.
//! * **Stacks**: [`STACK_RESERVE`] (2 MiB, the `std::thread` default)
//!   of `MAP_NORESERVE` address space per fiber, committed lazily by the
//!   page, `MADV_NOHUGEPAGE` so a touched stack costs pages rather than
//!   a huge page, below it one `PROT_NONE` guard page: two kernel
//!   mappings per fiber. Overflow faults on the guard page and the
//!   process dies with SIGSEGV; there is no growth.
//! * **One OS thread**: a [`Suspended`] context may only be resumed on
//!   the OS thread it was suspended on (checked), so thread-locals and
//!   `!Send` values in its frames never migrate.
//! * **No unwinding of abandoned fibers**: dropping a [`Suspended`]
//!   unmaps its stack without running the destructors of the frames on
//!   it. Whatever those frames own leaks; nothing else may hold a
//!   borrow into them (simulated threads are `'static` closures, so
//!   nothing does).
//! * **Panics stop at the entry function**: an [`Entry`] never returns
//!   and must not unwind; one that does aborts the process at the
//!   `extern "C"` boundary below it.

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr::NonNull;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("marcel's fiber context switch supports x86_64 and aarch64 Linux only");

/// Usable stack bytes per fiber.
pub(crate) const STACK_RESERVE: usize = 2 << 20;
/// Bytes asked of `mprotect` for the guard; the kernel rounds it up to
/// one page whatever the page size.
const GUARD: usize = 4096;

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
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;
const MADV_NOHUGEPAGE: c_int = 15;

/// One mapped fiber stack: `[guard page | STACK_RESERVE]`, growing down
/// from the high end towards the guard.
pub(crate) struct Stack {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: a `Stack` is a plain owned memory mapping; mapping, writing
// its initial frame and unmapping are valid from any OS thread.
unsafe impl Send for Stack {}

impl Stack {
    /// Map a fresh stack. Panics when the address space or the
    /// process's mapping budget (`vm.max_map_count`) is exhausted.
    pub(crate) fn map() -> Stack {
        let len = STACK_RESERVE + GUARD;
        // SAFETY: an anonymous private mapping at a kernel-chosen
        // address aliases nothing; the result is checked before use.
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
            "failed to map a fiber stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack {
            base: NonNull::new(base.cast()).expect("mmap returned a null mapping"),
            len,
        };
        // SAFETY: both calls stay inside the mapping just created.
        // `mprotect` must succeed (a stack without its guard would turn
        // overflow into silent corruption); `madvise` is best effort —
        // kernels built without THP reject the advice.
        unsafe {
            let rc = mprotect(base, GUARD, PROT_NONE);
            assert!(
                rc == 0,
                "failed to protect a fiber stack's guard page: {}",
                std::io::Error::last_os_error()
            );
            madvise(base, len, MADV_NOHUGEPAGE);
        }
        stack
    }

    /// Highest address of the stack (exclusive), 16-byte aligned as
    /// both ABIs require: the base is page-aligned and `len` a multiple
    /// of 4096.
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + self.len
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base+len` is exactly the mapping `map` created
        // and nothing executes on it: the only running stack is held by
        // the `RUNNING` thread-local, never dropped while in use.
        unsafe {
            munmap(self.base.as_ptr().cast(), self.len);
        }
    }
}

/// What a fiber starts in. Receives the context that resumed it first.
pub(crate) type Entry = fn(Prev) -> !;

/// A suspended execution context: a fiber that is not running, or the
/// OS-thread context (`Kernel::run`'s frame) while fibers run. Linear —
/// resuming consumes it, so a context is resumed at most once per
/// suspension.
pub(crate) struct Suspended {
    /// Saved stack pointer; the callee-saved registers and the resume
    /// address sit just above it.
    sp: usize,
    /// The stack `sp` points into, owned by the context suspended on it.
    /// `None`: an OS thread's own stack.
    stack: Option<Stack>,
    /// OS thread the context was suspended on.
    thread: usize,
}

// SAFETY: moving the token between OS threads moves no frame; `resume`
// refuses to run it anywhere but on the thread it was suspended on, and
// dropping it only unmaps the stack (see `Stack`).
unsafe impl Send for Suspended {}

/// The context that was running before the current one was resumed.
pub(crate) enum Prev {
    /// It suspended itself and can be resumed later.
    Suspended(Suspended),
    /// It was a fiber that finished; its stack is free for reuse.
    Exited(Stack),
}

thread_local! {
    /// The fiber stack the code now executing on this OS thread runs
    /// on; `None` on the OS thread's own stack.
    static RUNNING: Cell<Option<Stack>> = const { Cell::new(None) };
    /// What the outgoing side of a switch leaves for the incoming one,
    /// immediately before it: itself, less the stack pointer only the
    /// switch knows.
    static HANDOFF: Cell<Option<Prev>> = const { Cell::new(None) };
}

/// A value unique to the calling OS thread while it lives.
#[inline]
pub(crate) fn os_thread() -> usize {
    thread_local!(static MARK: u8 = const { 0 });
    MARK.with(|m| m as *const u8 as usize)
}

impl Suspended {
    /// A context that, when first resumed, calls `entry` on `stack`.
    pub(crate) fn new(stack: Stack, entry: Entry) -> Suspended {
        let top = stack.top() as *mut usize;
        // SAFETY: the frame lies in the writable part of the mapping,
        // directly below its 16-aligned top (the reserve is far larger
        // than one frame), and nothing else references the stack yet.
        let sp = unsafe {
            let frame = top.sub(FRAME_WORDS);
            std::ptr::write_bytes(frame, 0, FRAME_WORDS);
            frame.add(FRAME_ENTRY).write(entry as usize);
            frame
                .add(FRAME_RESUME)
                .write(start_trampoline as unsafe extern "C" fn() as usize);
            frame as usize
        };
        Suspended {
            sp,
            stack: Some(stack),
            thread: os_thread(),
        }
    }

    /// Suspend the calling context and run `self`. Returns when some
    /// context resumes the caller, with the context that did so.
    pub(crate) fn resume(self) -> Prev {
        self.switch_from(|mine, thread| {
            Prev::Suspended(Suspended {
                sp: 0,
                stack: mine,
                thread,
            })
        })
    }

    /// Run `self` in place of the calling fiber, which is finished: its
    /// stack is handed to `self` as [`Prev::Exited`]. The caller's
    /// frames are abandoned as they stand, so it must own nothing it
    /// still needs dropped.
    pub(crate) fn resume_final(self) -> ! {
        self.switch_from(|mine, _| Prev::Exited(mine.expect("only a fiber can exit")));
        unreachable!("a finished fiber was resumed")
    }

    /// Switch to `self`, leaving `outgoing(current stack, OS thread)`
    /// for it to collect.
    fn switch_from(self, outgoing: impl FnOnce(Option<Stack>, usize) -> Prev) -> Prev {
        let Suspended { sp, stack, thread } = self;
        assert_eq!(thread, os_thread(), "fiber resumed on a foreign OS thread");
        HANDOFF.set(Some(outgoing(RUNNING.replace(stack), thread)));
        // SAFETY: `sp` was saved by `switch` or laid out by `new` and,
        // the token being linear, not resumed since; its stack is alive
        // (just moved into `RUNNING`); the thread check above keeps the
        // frames on their OS thread. An exiting fiber's stack stays
        // mapped until the incoming side, on its own stack, takes it
        // from `HANDOFF`; the context saved on it is never resumed.
        collect(unsafe { switch(sp) })
    }
}

/// Incoming side of a switch: name the context we came from.
fn collect(prev_sp: usize) -> Prev {
    let mut prev = HANDOFF.take().expect("context resumed without a hand-off");
    if let Prev::Suspended(ctx) = &mut prev {
        ctx.sp = prev_sp;
    }
    prev
}

/// First Rust frame of every fiber, entered from `start_trampoline`
/// with a zero return address below it (which ends backtraces).
extern "C" fn fiber_start(prev_sp: usize, entry: usize) -> ! {
    // SAFETY: `entry` is the `Entry` that `Suspended::new` stored in the
    // initial frame; fn pointers round-trip through `usize`.
    let entry = unsafe { std::mem::transmute::<usize, Entry>(entry) };
    entry(collect(prev_sp))
}

// ---------------------------------------------------------------------------
// x86_64 (System V): callee-saved rbx, rbp, r12–r15; the return address
// pushed by `call switch` is the resume address.
// ---------------------------------------------------------------------------

/// Initial frame, from the saved `sp` up: r15 r14 r13 r12 rbx rbp, the
/// address `switch` returns to, and a zero "return address" for
/// `fiber_start` that also keeps the ABI's `rsp % 16 == 8` at entry.
#[cfg(target_arch = "x86_64")]
const FRAME_WORDS: usize = 8;
#[cfg(target_arch = "x86_64")]
const FRAME_ENTRY: usize = 3; // r12
#[cfg(target_arch = "x86_64")]
const FRAME_RESUME: usize = 6;

/// Save the callee-saved registers on the current stack, switch to the
/// stack at `to_sp`, restore from it and return there with the old
/// stack pointer as the result.
///
/// # Safety
///
/// `to_sp` must be a stack pointer this function saved (or
/// [`Suspended::new`] laid out), on a live stack, suspended on the
/// calling OS thread and not resumed since.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(to_sp: usize) -> usize {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov rax, rsp",
        "mov rsp, rdi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new fiber's first `switch` "returns": forward the previous
/// stack pointer (rax) and the entry (r12) as C arguments.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn start_trampoline() {
    core::arch::naked_asm!(
        "mov rdi, rax",
        "mov rsi, r12",
        "jmp {start}",
        start = sym fiber_start,
    )
}

// ---------------------------------------------------------------------------
// aarch64 (AAPCS64): callee-saved x19–x28, x29 (fp), x30 (lr) and the
// low halves of v8–v15; `ret` resumes at the restored lr.
// ---------------------------------------------------------------------------

/// Initial frame, from the saved `sp` up: x19…x28, x29, x30, d8…d15.
#[cfg(target_arch = "aarch64")]
const FRAME_WORDS: usize = 20;
#[cfg(target_arch = "aarch64")]
const FRAME_ENTRY: usize = 0; // x19
#[cfg(target_arch = "aarch64")]
const FRAME_RESUME: usize = 11; // x30

/// See the x86_64 `switch`.
///
/// # Safety
///
/// As for the x86_64 `switch`.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(to_sp: usize) -> usize {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "mov sp, x0",
        "mov x0, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// Where a new fiber's first `switch` "returns": x0 already holds the
/// previous stack pointer; forward the entry (x19) and zero lr so
/// backtraces end here.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn start_trampoline() {
    core::arch::naked_asm!(
        "mov x1, x19",
        "mov x30, xzr",
        "b {start}",
        start = sym fiber_start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local!(static LOG: Cell<Vec<u32>> = const { Cell::new(Vec::new()) });

    fn log(v: u32) {
        let mut l = LOG.take();
        l.push(v);
        LOG.set(l);
    }

    /// Logs 0, 1, 2, yielding to whoever resumed it after each.
    fn ping(prev: Prev) -> ! {
        let Prev::Suspended(mut root) = prev else {
            unreachable!("started by a live context")
        };
        for i in 0..3 {
            log(i);
            let Prev::Suspended(back) = root.resume() else {
                unreachable!("the creator never exits")
            };
            root = back;
        }
        root.resume_final()
    }

    #[test]
    fn fiber_alternates_with_its_creator_and_hands_back_its_stack() {
        let mut stack = Stack::map();
        // Second lap on the recycled stack.
        for _ in 0..2 {
            let mut fiber = Suspended::new(stack, ping);
            for round in 0..3 {
                let Prev::Suspended(f) = fiber.resume() else {
                    panic!("exited early in round {round}")
                };
                fiber = f;
                log(100 + round);
            }
            let Prev::Exited(s) = fiber.resume() else {
                panic!("fiber should have finished")
            };
            stack = s;
            assert_eq!(LOG.take(), vec![0, 100, 1, 101, 2, 102]);
        }
    }

    #[test]
    #[should_panic(expected = "foreign OS thread")]
    fn resuming_on_another_os_thread_is_refused() {
        let fiber = Suspended::new(Stack::map(), ping);
        let moved = std::thread::spawn(move || fiber.resume()).join();
        std::panic::resume_unwind(moved.err().expect("resume must panic"));
    }
}
