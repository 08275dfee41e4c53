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
//!   process dies with SIGSEGV; there is no growth. A [`Stack`] is a
//!   plain owned mapping: whoever holds it (the kernel, in the fiber's
//!   slot for the fiber's whole life) keeps it mapped while a context
//!   runs or is suspended on it, and lays a fresh [`Context`] out only
//!   on a stack nothing runs on.
//! * **A switch moves one stack pointer**: [`switch`] writes the
//!   outgoing stack pointer straight into the [`Context`] the caller
//!   names — in place, wherever it lives — and loads the incoming one.
//!   Nothing else travels: who is running is the kernel's business.
//! * **One OS thread**: a [`Context`] may only be resumed on the OS
//!   thread it was suspended on (checked on every resume), so
//!   thread-locals and `!Send` values in its frames never migrate.
//! * **No unwinding of abandoned fibers**: a context that is never
//!   resumed is abandoned as it stands; dropping its stack unmaps it
//!   without running the destructors of the frames on it. Whatever
//!   those frames own leaks; nothing else may hold a borrow into them
//!   (simulated threads are `'static` closures, so nothing does).
//! * **Panics stop at the entry function**: an [`Entry`] never returns
//!   and must not unwind; one that does aborts the process at the
//!   `extern "C"` boundary below it.

use std::ffi::{c_int, c_void};
use std::ptr::NonNull;

use crate::owned::OwnedMut;

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
        // and nothing executes on it: its holder drops it only once no
        // context runs there (see the module contract).
        unsafe {
            munmap(self.base.as_ptr().cast(), self.len);
        }
    }
}

/// What a fiber starts in.
pub(crate) type Entry = fn() -> !;

/// A suspended execution context, kept in place by whatever holds it —
/// a simulated thread's slot, or the kernel's slot for `Kernel::run`'s
/// own frame while fibers run: the stack pointer its last switch saved
/// there and the OS thread it was saved on. Empty while nothing is
/// suspended there. Linear: resuming takes it, so a context is resumed
/// at most once per suspension.
#[derive(Default)]
pub(crate) struct Context {
    /// Saved stack pointer; the callee-saved registers and the resume
    /// address sit just above it. 0: empty.
    sp: usize,
    /// OS thread the context was suspended on.
    thread: usize,
}

/// A value unique to the calling OS thread while it lives.
#[inline]
pub(crate) fn os_thread() -> usize {
    thread_local!(static MARK: u8 = const { 0 });
    MARK.with(|m| m as *const u8 as usize)
}

impl Context {
    /// A context that, when first resumed, calls `entry` on `stack`,
    /// which nothing may run on (a fresh or a finished fiber's stack).
    pub(crate) fn start(stack: &mut Stack, entry: Entry) -> Context {
        let top = stack.top() as *mut usize;
        // SAFETY: the frame lies in the writable part of the mapping,
        // directly below its 16-aligned top (the reserve is far larger
        // than one frame), and no context runs or is suspended on the
        // stack, so no live frame is overwritten.
        let sp = unsafe {
            let frame = top.sub(FRAME_WORDS);
            std::ptr::write_bytes(frame, 0, FRAME_WORDS);
            frame.add(FRAME_ENTRY).write(entry as usize);
            frame
                .add(FRAME_RESUME)
                .write(start_trampoline as unsafe extern "C" fn() as usize);
            frame as usize
        };
        Context {
            sp,
            thread: os_thread(),
        }
    }

    /// True while a context is suspended here.
    #[inline]
    pub(crate) fn is_saved(&self) -> bool {
        self.sp != 0
    }

    /// The stack pointer to resume, after refusing an empty context and
    /// a foreign OS thread.
    #[inline]
    fn resumable(&self) -> usize {
        if self.sp == 0 || self.thread != os_thread() {
            refuse(self.sp);
        }
        self.sp
    }
}

#[cold]
#[inline(never)]
fn refuse(sp: usize) -> ! {
    if sp == 0 {
        panic!("resumed an empty fiber context");
    }
    panic!("fiber resumed on a foreign OS thread")
}

/// The hand-off: suspend the running context into the slot `save`
/// names inside `world`, end `world`'s borrow, resume `to`, and borrow
/// `world` again once some context resumes the one saved here. The
/// switch writes the outgoing stack pointer straight into that slot.
///
/// `to` runs with `world` unborrowed, so it can borrow it in turn.
pub(crate) fn switch<T>(
    world: &mut OwnedMut<'_, T>,
    save: impl FnOnce(&mut T) -> &mut Context,
    to: Context,
) {
    let slot: *mut Context = save(world);
    // SAFETY: `slot` points into `world`'s value, which stays put, and
    // whoever touches it next does so through a borrow of `world`
    // taken after the switch has left this stack.
    OwnedMut::unborrowed(world, || unsafe { suspend(slot, to) });
}

/// Suspend the running context into `*save` and resume `to`; returns
/// when some context resumes the one saved.
///
/// # Safety
///
/// `save` must be valid for writes, and nothing may access it through
/// a reference that lives across the switch.
unsafe fn suspend(save: *mut Context, to: Context) {
    let to = to.resumable();
    // SAFETY: `save` is valid for writes (the caller's contract). `to`
    // was saved by `switch_raw` or laid out by `Context::start` on a
    // stack its holder keeps mapped, on this OS thread (`resumable`
    // checked it), and, the context being linear, not resumed since.
    unsafe {
        save.write(Context {
            sp: 0,
            thread: os_thread(),
        });
        switch_raw(to, &raw mut (*save).sp);
    }
}

/// Resume `to` in place of the running fiber, which is finished: its
/// frames are abandoned as they stand, so it must own nothing it still
/// needs dropped, and its stack must stay mapped until `to` runs (the
/// kernel lays no new context out on it before then).
pub(crate) fn exit(to: Context) -> ! {
    let mut abandoned = Context::default();
    // SAFETY: the saved context lands in this frame and is never
    // resumed.
    unsafe { suspend(&mut abandoned, to) };
    unreachable!("a finished fiber was resumed")
}

/// First Rust frame of every fiber, entered from `start_trampoline`
/// with a zero return address below it (which ends backtraces).
extern "C" fn fiber_start(entry: usize) -> ! {
    // SAFETY: `entry` is the `Entry` that `Context::start` stored in the
    // initial frame; fn pointers round-trip through `usize`.
    let entry = unsafe { std::mem::transmute::<usize, Entry>(entry) };
    entry()
}

// ---------------------------------------------------------------------------
// x86_64 (System V): callee-saved rbx, rbp, r12–r15; the return address
// pushed by `call switch_raw` is the resume address.
// ---------------------------------------------------------------------------

/// Initial frame, from the saved `sp` up: r15 r14 r13 r12 rbx rbp, the
/// address `switch_raw` returns to, and a zero "return address" for
/// `fiber_start` that also keeps the ABI's `rsp % 16 == 8` at entry.
#[cfg(target_arch = "x86_64")]
const FRAME_WORDS: usize = 8;
#[cfg(target_arch = "x86_64")]
const FRAME_ENTRY: usize = 3; // r12
#[cfg(target_arch = "x86_64")]
const FRAME_RESUME: usize = 6;

/// Save the callee-saved registers on the current stack, store the
/// stack pointer at `save`, switch to the stack at `to_sp`, restore from
/// it and return there.
///
/// # Safety
///
/// `to_sp` must be a stack pointer this function saved (or
/// [`Context::start`] laid out), on a live stack, suspended on the
/// calling OS thread and not resumed since; `save` must be valid for a
/// write.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch_raw(to_sp: usize, save: *mut usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rsi], rsp",
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

/// Where a new fiber's first switch "returns": forward the entry (r12)
/// as the C argument.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn start_trampoline() {
    core::arch::naked_asm!(
        "mov rdi, r12",
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

/// See the x86_64 `switch_raw`.
///
/// # Safety
///
/// As for the x86_64 `switch_raw`.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch_raw(to_sp: usize, save: *mut usize) {
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
        "str x9, [x1]",
        "mov sp, x0",
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

/// Where a new fiber's first switch "returns": forward the entry (x19)
/// and zero lr so backtraces end here.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn start_trampoline() {
    core::arch::naked_asm!(
        "mov x0, x19",
        "mov x30, xzr",
        "b {start}",
        start = sym fiber_start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static LOG: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
        /// The creator's context and the fiber's.
        static ROOT: Cell<Context> = Cell::new(Context::default());
        static FIBER: Cell<Context> = Cell::new(Context::default());
    }

    type Slot = &'static std::thread::LocalKey<Cell<Context>>;

    fn log(v: u32) {
        let mut l = LOG.take();
        l.push(v);
        LOG.set(l);
    }

    /// Suspend the running context into `save` and resume `to`'s.
    fn hand(save: Slot, to: Slot) {
        let to = to.take();
        // SAFETY: a thread-local outlives the switch, and `Cell` lends
        // no reference to it.
        unsafe { suspend(save.with(Cell::as_ptr), to) }
    }

    fn saved(slot: Slot) -> bool {
        let context = slot.take();
        let saved = context.is_saved();
        slot.set(context);
        saved
    }

    /// Logs 0, 1, 2, yielding to its creator after each, then exits.
    fn ping() -> ! {
        for i in 0..3 {
            log(i);
            hand(&FIBER, &ROOT);
        }
        exit(ROOT.take())
    }

    #[test]
    fn fiber_alternates_with_its_creator_and_hands_back_its_stack() {
        let mut stack = Stack::map();
        // Second lap on the recycled stack.
        for _ in 0..2 {
            FIBER.set(Context::start(&mut stack, ping));
            for round in 0..3 {
                hand(&ROOT, &FIBER);
                assert!(saved(&FIBER));
                log(100 + round);
            }
            hand(&ROOT, &FIBER);
            assert!(!saved(&FIBER), "the fiber finished and saved nothing");
            assert_eq!(LOG.take(), vec![0, 100, 1, 101, 2, 102]);
        }
    }

    #[test]
    #[should_panic(expected = "foreign OS thread")]
    fn resuming_on_another_os_thread_is_refused() {
        let mut stack = Stack::map();
        let fiber = Context::start(&mut stack, ping);
        let moved = std::thread::spawn(move || exit(fiber)).join();
        std::panic::resume_unwind(moved.expect_err("resume must panic"));
    }

    #[test]
    #[should_panic(expected = "empty fiber context")]
    fn resuming_an_empty_context_is_refused() {
        exit(Context::default())
    }
}
