//! Slab storage for scheduled events.
//!
//! The hot schedule→fire cycle of a discrete-event simulation allocates and
//! frees one closure per event. A naive `Box<dyn FnOnce>` pays a heap
//! round-trip every time. [`EventArena`] instead keeps a slab of fixed-size
//! slots with a free list: firing an event returns its slot to the free list
//! and the next `schedule_*` call reuses it, so steady-state simulation does
//! not touch the allocator at all for closures up to [`INLINE_BYTES`] bytes
//! (larger captures fall back to a single `Box`, still slab-tracked).
//!
//! Slots are generation-tagged: an [`EventKey`] names `(slot, generation)`,
//! and a key whose generation no longer matches is simply stale — cancelling
//! or firing through it is a no-op. That makes cancellation safe even when
//! the slot has been recycled for an unrelated event.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::sim::Simulator;

/// Number of inline capture bytes stored directly in a slot.
///
/// 32 bytes fits the common captures in this workspace: an `Rc` or two plus
/// a couple of scalars. Bigger closures are boxed, but still recycle their
/// slot.
pub(crate) const INLINE_BYTES: usize = 32;
const INLINE_WORDS: usize = INLINE_BYTES / size_of::<usize>();

/// A type-erased `FnOnce(&mut Simulator)` stored inline when small enough.
pub(crate) struct RawEvent {
    buf: [MaybeUninit<usize>; INLINE_WORDS],
    call: unsafe fn(*mut u8, &mut Simulator),
    drop_fn: unsafe fn(*mut u8),
    // Captured closures may hold `Rc`s; keep RawEvent !Send + !Sync.
    _not_send: PhantomData<*mut ()>,
}

unsafe fn call_inline<F: FnOnce(&mut Simulator)>(p: *mut u8, sim: &mut Simulator) {
    let f = unsafe { p.cast::<F>().read() };
    f(sim)
}

unsafe fn drop_inline<F>(p: *mut u8) {
    unsafe { p.cast::<F>().drop_in_place() }
}

unsafe fn call_boxed<F: FnOnce(&mut Simulator)>(p: *mut u8, sim: &mut Simulator) {
    let b = unsafe { Box::from_raw(p.cast::<*mut F>().read()) };
    b(sim)
}

unsafe fn drop_boxed<F>(p: *mut u8) {
    drop(unsafe { Box::from_raw(p.cast::<*mut F>().read()) })
}

impl RawEvent {
    #[inline]
    pub(crate) fn new<F: FnOnce(&mut Simulator) + 'static>(f: F) -> Self {
        let mut buf = [MaybeUninit::<usize>::uninit(); INLINE_WORDS];
        if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>() {
            // SAFETY: the capture fits and the buffer is usize-aligned,
            // which satisfies F's (checked) alignment.
            unsafe { buf.as_mut_ptr().cast::<F>().write(f) };
            RawEvent {
                buf,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
                _not_send: PhantomData,
            }
        } else {
            let p = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer always fits in the buffer.
            unsafe { buf.as_mut_ptr().cast::<*mut F>().write(p) };
            RawEvent {
                buf,
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
                _not_send: PhantomData,
            }
        }
    }

    /// Consumes the event and runs the stored closure.
    #[inline]
    pub(crate) fn invoke(self, sim: &mut Simulator) {
        // The closure is moved out by `call`; suppress the Drop impl so the
        // capture is not dropped twice.
        let mut me = ManuallyDrop::new(self);
        // SAFETY: `buf` holds a live capture matching `call`'s type, written
        // exactly once in `new` and consumed exactly once here.
        unsafe { (me.call)(me.buf.as_mut_ptr().cast::<u8>(), sim) }
    }
}

impl Drop for RawEvent {
    fn drop(&mut self) {
        // Runs only for events that were never invoked (e.g. cancelled or
        // still pending when the simulator is dropped).
        // SAFETY: `buf` still holds the live capture written in `new`.
        unsafe { (self.drop_fn)(self.buf.as_mut_ptr().cast::<u8>()) }
    }
}

/// Handle to a cancellable scheduled event.
///
/// Returned by `Simulator::schedule_at_keyed` and
/// [`Simulator::schedule_in_keyed`]; pass it to [`Simulator::cancel`]. Keys
/// are generation-tagged: once the event has fired (or been cancelled) the
/// key goes stale and cancelling it again is a harmless no-op, even if the
/// underlying slot has been reused for another event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventKey {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

/// Sentinel for "no free slot" in the intrusive free list.
const FREE_NONE: u32 = u32::MAX;

/// A slot's payload: a live event when the slot is occupied (odd
/// generation), or the intrusive free-list link when vacant (even
/// generation). The generation's low bit *is* the occupancy flag, so no
/// separate discriminant or free vector is touched on the hot path.
union SlotBody {
    event: ManuallyDrop<RawEvent>,
    next_free: u32,
}

/// One cache line per slot: the 56-byte payload would otherwise straddle
/// lines every other slot, doubling the memory traffic of the hot
/// schedule→fire cycle.
#[repr(align(64))]
struct Slot {
    /// Odd ⇒ occupied, even ⇒ vacant. Bumped on every transition, so a
    /// key whose generation no longer matches is stale.
    gen: u32,
    body: SlotBody,
}

/// Generation-tagged slab of pending events with intrusive free-list slot
/// reuse: the schedule→fire cycle touches exactly one slot (plus the free
/// head), with no side allocations.
pub(crate) struct EventArena {
    slots: Vec<Slot>,
    /// Head of the intrusive free list (`FREE_NONE` when empty).
    free_head: u32,
    live: usize,
}

impl Default for EventArena {
    fn default() -> Self {
        EventArena {
            slots: Vec::new(),
            free_head: FREE_NONE,
            live: 0,
        }
    }
}

impl EventArena {
    /// Stores an event, returning its `(slot, generation)` address.
    #[inline]
    pub(crate) fn insert(&mut self, ev: RawEvent) -> (u32, u32) {
        self.live += 1;
        if self.free_head != FREE_NONE {
            let idx = self.free_head;
            let s = &mut self.slots[idx as usize];
            debug_assert_eq!(s.gen & 1, 0, "free-listed slot must be vacant");
            // SAFETY: an even generation means the slot is vacant, so the
            // body holds the free-list link written when it was vacated.
            self.free_head = unsafe { s.body.next_free };
            s.gen = s.gen.wrapping_add(1); // now odd: occupied
            s.body.event = ManuallyDrop::new(ev);
            (idx, s.gen)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
            self.slots.push(Slot {
                gen: 1,
                body: SlotBody {
                    event: ManuallyDrop::new(ev),
                },
            });
            (idx, 1)
        }
    }

    /// Removes and returns the event at `(slot, gen)`.
    ///
    /// Returns `None` when the address is stale (already fired or
    /// cancelled); the generation bump on success makes any outstanding
    /// copies of the address stale in turn.
    #[inline]
    pub(crate) fn take(&mut self, slot: u32, gen: u32) -> Option<RawEvent> {
        let s = self.slots.get_mut(slot as usize)?;
        // Handed-out generations are always odd, so a vacant slot (even
        // generation) can never match.
        if s.gen != gen {
            return None;
        }
        // SAFETY: the generation matched an occupied slot, so the body
        // holds the live event written by `insert`; it is read exactly
        // once because the generation bump below invalidates the address.
        let ev = unsafe { ManuallyDrop::take(&mut s.body.event) };
        s.gen = s.gen.wrapping_add(1); // now even: vacant
        s.body.next_free = self.free_head;
        self.free_head = slot;
        self.live -= 1;
        Some(ev)
    }

    /// Number of live (schedulable, uncancelled) events.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (capacity high-water mark).
    #[cfg(test)]
    pub(crate) fn slots_allocated(&self) -> usize {
        self.slots.len()
    }
}

impl Drop for EventArena {
    fn drop(&mut self) {
        for s in &mut self.slots {
            if s.gen & 1 == 1 {
                // SAFETY: odd generation ⇒ the body holds a live event
                // that was never fired or cancelled; drop its capture.
                unsafe { ManuallyDrop::drop(&mut s.body.event) }
            }
        }
    }
}
