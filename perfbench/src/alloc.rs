//! Counting global allocator for the benchmark binary.
//!
//! The libraries keep `#![forbid(unsafe_code)]`; the one `GlobalAlloc`
//! implementation lives here. Every thread gets its own cache-line-sized
//! slot of counters, so shard threads of a sharded run never contend on a
//! shared line. A thread-local flag, raised by the traced run's host-app
//! wrapper around each callback, splits allocations into "inside host
//! callbacks" and "everything else".

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots handed out round-robin to threads. Two live threads share a slot
/// only after 64 others were created in between; the counts stay exact
/// (atomic adds), only the no-contention property weakens.
const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot {
    host: AtomicU64,
    sim: AtomicU64,
}

static COUNTS: [Slot; SLOTS] =
    [const { Slot { host: AtomicU64::new(0), sim: AtomicU64::new(0) } }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

// Const-initialized, destructor-free thread locals: reading them never
// allocates, so the allocator can consult them without recursing.
thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static IN_HOST: Cell<bool> = const { Cell::new(false) };
}

fn bump() {
    let slot = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    let host = IN_HOST.try_with(Cell::get).unwrap_or(false);
    let c = &COUNTS[slot];
    // Relaxed: pure statistics, read only after the counted work joined.
    if host {
        c.host.fetch_add(1, Ordering::Relaxed);
    } else {
        c.sim.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocation totals over every thread so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Allocs {
    /// Allocations made inside host-app callbacks (traced run only).
    pub host: u64,
    /// Every other allocation.
    pub sim: u64,
}

impl Allocs {
    pub fn now() -> Allocs {
        let mut a = Allocs::default();
        for c in &COUNTS {
            a.host += c.host.load(Ordering::Relaxed);
            a.sim += c.sim.load(Ordering::Relaxed);
        }
        a
    }

    pub fn since(self, start: Allocs) -> Allocs {
        Allocs { host: self.host - start.host, sim: self.sim - start.sim }
    }

    pub fn total(self) -> u64 {
        self.host + self.sim
    }
}

/// Attribute this thread's allocations to the host layer until the guard
/// drops.
pub struct HostScope(bool);

impl HostScope {
    pub fn enter() -> HostScope {
        HostScope(IN_HOST.with(|f| f.replace(true)))
    }
}

impl Drop for HostScope {
    fn drop(&mut self) {
        IN_HOST.with(|f| f.set(self.0));
    }
}

pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract. The extra work is an atomic add on a static
// counter and reads of const-initialized thread locals without
// destructors, none of which allocates or unwinds (`try_with` absorbs
// TLS-teardown errors).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every path above forwards to
        // it) with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
