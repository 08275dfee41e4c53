//! Single-owner cells: the only interior mutability a world needs.
//!
//! Every simulated thread of a world runs as a fiber on the one OS
//! thread that created its kernel, so the world's mutable state — the
//! scheduler, the metrics registry, a channel's host maps — is never
//! touched by two OS threads. An [`OwnedCell`] turns that into a checked
//! rule instead of a lock: it records the OS thread that created it, and
//! every borrow first compares the caller against that owner (one
//! thread-local address, no atomic read-modify-write), then sets a
//! plain borrow flag. A call from any other thread panics before it
//! touches the flag; a second borrow while the first is live — a
//! callback that re-enters the kernel — panics instead of deadlocking.
//!
//! Besides `fiber.rs`, this module holds the crate's only `unsafe`.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::thread::ThreadId;

use crate::fiber::os_thread;

/// A value owned by one OS thread, borrowed mutably one borrow at a
/// time. `Send` and `Sync` whenever `T` is `Send`, so handles to a world
/// may travel between OS threads; using it anywhere but on its owner
/// panics, naming the owner.
pub struct OwnedCell<T> {
    value: UnsafeCell<T>,
    borrowed: Cell<bool>,
    /// [`os_thread`] of the creating thread: the fast check.
    owner: usize,
    /// The same thread, as the standard library names it: the message.
    owner_id: ThreadId,
}

// SAFETY: `value` and `borrowed` are only ever touched by a caller that
// has just compared `os_thread()` with `owner`, so at most one OS thread
// uses them at any time — the one that created the cell. The address
// `os_thread` returns is unique among live threads, so no second live
// thread can pass the check. `owner` and `owner_id` are never written
// after construction. A borrow guard is neither `Send` nor `Sync`, so it
// cannot carry access to another thread; the `&mut T` it lends may go
// to another thread only as `T: Send` allows, with the flag still set.
// Moving or dropping the cell on another thread only moves or drops the
// `T`, which `T: Send` permits.
unsafe impl<T: Send> Sync for OwnedCell<T> {}

impl<T> OwnedCell<T> {
    /// A cell owned by the calling OS thread.
    pub fn new(value: T) -> Self {
        OwnedCell {
            value: UnsafeCell::new(value),
            borrowed: Cell::new(false),
            owner: os_thread(),
            owner_id: std::thread::current().id(),
        }
    }

    /// Borrow the value mutably until the guard drops.
    ///
    /// Panics off the owning thread, or while another borrow is live.
    #[inline]
    pub(crate) fn borrow(&self) -> OwnedMut<'_, T> {
        if os_thread() != self.owner {
            foreign_thread(self.owner_id);
        }
        if self.borrowed.replace(true) {
            re_entered();
        }
        OwnedMut {
            cell: self,
            _local: PhantomData,
        }
    }

    /// `f` on the value, borrowed mutably for the call.
    ///
    /// Panics off the owning thread, naming the owner, or when `f` (or
    /// a caller further up) already holds a borrow of this cell.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.borrow())
    }

    /// Like [`OwnedCell::borrow`], but `None` instead of a panic: for
    /// destructors, which must not panic.
    pub(crate) fn try_borrow(&self) -> Option<OwnedMut<'_, T>> {
        if os_thread() != self.owner || self.borrowed.replace(true) {
            return None;
        }
        Some(OwnedMut {
            cell: self,
            _local: PhantomData,
        })
    }
}

#[cold]
#[inline(never)]
fn foreign_thread(owner: ThreadId) -> ! {
    panic!(
        "marcel world state owned by OS thread {owner:?} used from OS thread {:?}: \
         a world runs on the thread that created it",
        std::thread::current().id()
    )
}

#[cold]
#[inline(never)]
fn re_entered() -> ! {
    panic!(
        "marcel world state re-entered while borrowed: a callback run inside a kernel \
         or channel operation (an EventSink, an emit closure) called back into it"
    )
}

/// A live borrow of an [`OwnedCell`]. Stays on its thread.
pub(crate) struct OwnedMut<'a, T> {
    cell: &'a OwnedCell<T>,
    _local: PhantomData<*mut ()>,
}

impl<T> OwnedMut<'_, T> {
    /// End the borrow while `f` runs and take it again afterwards — how
    /// a fiber lets the others at the scheduler while it is switched
    /// out. `f` must not unwind.
    pub(crate) fn unborrowed<R>(this: &mut Self, f: impl FnOnce() -> R) -> R {
        this.cell.borrowed.set(false);
        let out = f();
        if this.cell.borrowed.replace(true) {
            re_entered();
        }
        out
    }
}

impl<T> Deref for OwnedMut<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while `borrowed` is set on the
        // owning thread, and nothing else hands out a reference then.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for OwnedMut<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`; `&mut self` makes this the only
        // reference derived from the guard.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for OwnedMut<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrowed.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_text(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| s.to_string()).unwrap(),
        }
    }

    #[test]
    fn borrows_are_exclusive_and_released() {
        let cell = OwnedCell::new(1u32);
        *cell.borrow() += 1;
        assert_eq!(cell.with(|v| *v), 2);
        let held = cell.borrow();
        assert!(cell.try_borrow().is_none());
        assert!(panic_text(|| drop(cell.borrow())).contains("re-entered"));
        drop(held);
        assert_eq!(*cell.try_borrow().unwrap(), 2);
    }

    #[test]
    fn unborrowed_lets_others_in_meanwhile() {
        let cell = OwnedCell::new(0u32);
        let mut guard = cell.borrow();
        OwnedMut::unborrowed(&mut guard, || *cell.borrow() = 5);
        assert_eq!(*guard, 5);
    }

    #[test]
    fn another_os_thread_is_refused_with_the_owner_named() {
        let cell = OwnedCell::new(0u32);
        let owner = format!("{:?}", std::thread::current().id());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(cell.try_borrow().is_none());
                let msg = panic_text(|| drop(cell.borrow()));
                assert!(msg.contains(&owner), "{msg}");
            });
        });
        // The refused attempts never touched the flag.
        assert_eq!(*cell.borrow(), 0);
    }
}
