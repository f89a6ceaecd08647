//! Hierarchical timer wheel with exact ordering and batched slot
//! dispatch, generic over what it files.
//!
//! The scheduler's priority queue is dominated by short timers — link
//! serialisation/propagation events in the microsecond–millisecond range and
//! TCP retransmission timers in the 200 ms–seconds range — and a fleet
//! island's queue by think times and transactions of tens of milliseconds to
//! seconds. A binary heap pays `O(log n)` cache-missy sifts per operation; a
//! timer wheel files each entry into a bucket in `O(1)` and only pays
//! ordering cost for entries that share the current tick window.
//!
//! Layout (tick = 2^17 ns ≈ 131 µs, counted from 1):
//!
//! * **level 0** — 256 one-tick buckets covering ≈ 33.5 ms ahead,
//! * **level 1** — 256 buckets of 256 ticks each, covering ≈ 8.59 s ahead,
//! * **overflow** — a compact binary heap for anything further out
//!   (e.g. backed-off TCP RTOs).
//!
//! A bucket is the head of a singly linked list through one node arena
//! the wheel owns, with freed nodes kept on a free list: filing an entry
//! allocates nothing once the arena has grown to the most entries the
//! wheel ever held at once, however the entries spread over buckets. Each
//! level keeps a bitmap of its non-empty buckets, so the cursor moves
//! straight to the next occupied bucket — or the next occupied level-1
//! block — instead of stepping tick by tick.
//!
//! Entries whose tick has been reached live in one of two ready
//! structures:
//!
//! * the **batch** — a whole level-0 bucket's list, sorted **once**
//!   through its links (a merge sort that moves no entry), so dispatch
//!   pops the global minimum from its head in `O(1)` instead of paying a
//!   heap sift per event;
//! * the **spill** — a small min-heap for entries that arrive *at or
//!   before* the cursor tick (an event firing from the batch schedules a
//!   sub-tick follow-up, a cascade re-files an entry at the cursor tick,
//!   or a caller files an entry earlier than the cursor). These keep their
//!   `O(log s)` cost on a heap that holds only such stragglers, never the
//!   whole bucket.
//!
//! Dispatch compares the batch head with the spill top and takes the
//! smaller, so the entries' exact order — including the engine's
//! deterministic insertion-`seq` tie-break — is preserved bit-for-bit.
//! Because every wheel/overflow entry is strictly later than `cursor` and
//! every batch/spill entry is at or before it, that minimum is always the
//! global minimum.
//!
//! Cascading: when the cursor enters a 256-tick block the matching
//! level-1 bucket is re-filed into level 0, and overflow entries within the
//! level-1 span are pulled in. Re-filing always goes through the same
//! `file` routine as fresh inserts, so an entry can never fire out of order
//! no matter which path it took. A drained wheel can [`TimerWheel::rewind`]
//! its cursor to zero, so a queue reused for a new run from t = 0 files
//! into its buckets again.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the tick size in nanoseconds (2^17 ns ≈ 131 µs).
const SHIFT0: u32 = 17;
/// log2 of the bucket count per level.
const BITS: u32 = 8;
/// Buckets per level.
const SLOTS: usize = 1 << BITS;
/// Bucket index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Ticks covered by level 0 + level 1 together.
const L1_SPAN_TICKS: u64 = 1 << (2 * BITS);
/// Words in a level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// The end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// What a [`TimerWheel`] files: a key whose order ascends with its
/// firing time first. Ties on time are the key's own business (the
/// engine's insertion sequence, the island queue's user index).
pub(crate) trait Timed: Copy + Ord {
    /// The firing time, nanoseconds.
    fn at_ns(&self) -> u64;
}

/// The simulator's key: `(time, seq)` firing order plus the arena
/// address of the closure.
impl Timed for Entry {
    #[inline]
    fn at_ns(&self) -> u64 {
        self.at.as_nanos()
    }
}

/// The island queue's key: `(time_ns, id)`.
impl Timed for (u64, u64) {
    #[inline]
    fn at_ns(&self) -> u64 {
        self.0
    }
}

/// The tick an entry fires in. Ticks count from 1, so a wheel at
/// cursor 0 — new or rewound — has fired nothing yet and files entries
/// at t = 0 into its buckets, not the spill.
#[inline]
fn tick_of<E: Timed>(e: &E) -> u64 {
    (e.at_ns() >> SHIFT0) + 1
}

/// A compact queue entry: firing time, global insertion sequence, and the
/// arena address of the closure. Ordering is `(at, seq)`; `seq` is unique so
/// the derived lexicographic order never reaches the address fields.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Entry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

/// A filed entry and the next node of its bucket (or of the free list).
struct Node<E> {
    entry: E,
    next: u32,
}

/// One level's buckets: list heads into the node arena, and a bitmap of
/// the buckets that hold anything.
struct Level {
    heads: [u32; SLOTS],
    occupied: [u64; WORDS],
}

impl Level {
    const EMPTY: Level = Level {
        heads: [NIL; SLOTS],
        occupied: [0; WORDS],
    };

    fn is_occupied(&self, b: usize) -> bool {
        self.occupied[b / 64] & (1 << (b % 64)) != 0
    }

    /// The first occupied bucket at index `from` or above.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= WORDS {
            return None;
        }
        let mut bits = self.occupied[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            bits = self.occupied[w];
        }
    }

    /// Empties bucket `b`, returning the head of its list.
    fn take(&mut self, b: usize) -> u32 {
        self.occupied[b / 64] &= !(1 << (b % 64));
        std::mem::replace(&mut self.heads[b], NIL)
    }
}

/// Two-level timer wheel + overflow heap + batched ready structures.
pub(crate) struct TimerWheel<E> {
    /// The fired level-0 bucket's list, sorted ascending: its head is
    /// the batch's earliest entry.
    batch: u32,
    /// Entries filed at or before the cursor tick while the batch is live
    /// (re-entrant sub-tick scheduling, cascade re-files landing on the
    /// cursor tick, entries earlier than the cursor).
    spill: BinaryHeap<Reverse<E>>,
    /// Level 0 (one tick per bucket) and level 1 (256 ticks per bucket).
    levels: [Level; 2],
    /// Entries filed in each level.
    counts: [usize; 2],
    /// Every bucket's list nodes; the unused ones form the free list.
    nodes: Vec<Node<E>>,
    /// Head of the free list.
    free: u32,
    /// The last tick fired (or the one before a block being entered):
    /// every entry in the levels/overflow has tick > cursor, every entry
    /// in `batch`/`spill` has tick <= cursor. Level 0 holds the next 256
    /// ticks, one per bucket.
    cursor: u64,
    overflow: BinaryHeap<Reverse<E>>,
    /// Total entries across batch + spill + levels + overflow.
    len: usize,
}

impl<E: Timed> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Timed> TimerWheel<E> {
    /// An empty wheel before its first tick; allocates nothing.
    pub(crate) fn new() -> Self {
        TimerWheel {
            batch: NIL,
            spill: BinaryHeap::new(),
            levels: [Level::EMPTY, Level::EMPTY],
            counts: [0; 2],
            nodes: Vec::new(),
            free: NIL,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Entries filed and not yet popped.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn push(&mut self, e: E) {
        self.len += 1;
        self.file(e);
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<E> {
        self.pop_due(u64::MAX)
    }

    /// Files `e` unless it is earlier than every filed entry, and returns
    /// the earlier of the two: `e`, or the wheel's earliest, which the
    /// wheel gives up for `e`. One priming pass, and none when the wheel
    /// is empty.
    #[inline]
    pub(crate) fn swap_earliest(&mut self, e: E) -> E {
        if self.len == 0 {
            return e;
        }
        self.prime();
        let (earliest, from_spill) = match (self.batch_head(), self.spill.peek()) {
            (Some(b), Some(&Reverse(s))) if s < b => (s, true),
            (Some(b), _) => (b, false),
            (None, Some(&Reverse(s))) => (s, true),
            (None, None) => unreachable!("a primed wheel with entries has one ready"),
        };
        if earliest >= e {
            return e;
        }
        if from_spill {
            self.spill.pop();
        } else {
            self.pop_batch();
        }
        self.file(e);
        earliest
    }

    /// Removes and returns the earliest entry iff it fires at or before
    /// `horizon_ns`; a later entry stays queued. Folds peek + pop into one
    /// priming pass — the engine's dispatch loop calls this once per event.
    #[inline]
    pub(crate) fn pop_due(&mut self, horizon_ns: u64) -> Option<E> {
        self.prime();
        let from_spill = match (self.batch_head(), self.spill.peek()) {
            (Some(b), Some(&Reverse(s))) => s < b,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        let e = if from_spill {
            let e = self.spill.peek().expect("checked").0;
            if e.at_ns() > horizon_ns {
                return None;
            }
            self.spill.pop();
            e
        } else {
            let e = self.batch_head().expect("checked");
            if e.at_ns() > horizon_ns {
                return None;
            }
            self.pop_batch();
            e
        };
        self.len -= 1;
        Some(e)
    }

    /// Moves the cursor of a drained wheel back to 0, before the first
    /// tick, so entries filed from t = 0 again go to the levels instead
    /// of the spill.
    pub(crate) fn rewind(&mut self) {
        debug_assert_eq!(self.len, 0, "rewind of a non-empty wheel");
        self.cursor = 0;
    }

    /// Files an entry relative to the current cursor. Used for fresh pushes,
    /// cascades, and overflow drains alike, so ordering invariants hold on
    /// every path.
    #[inline]
    fn file(&mut self, e: E) {
        let t = tick_of(&e);
        if t <= self.cursor {
            self.spill.push(Reverse(e));
        } else {
            let delta = t - self.cursor;
            if delta <= SLOTS as u64 {
                self.link(0, (t & MASK) as usize, e);
            } else if delta < L1_SPAN_TICKS {
                self.link(1, ((t >> BITS) & MASK) as usize, e);
            } else {
                self.overflow.push(Reverse(e));
            }
        }
    }

    /// Puts `entry` at the head of bucket `b` of `level`, in a node from
    /// the free list when there is one.
    #[inline]
    fn link(&mut self, level: usize, b: usize, entry: E) {
        let next = self.levels[level].heads[b];
        let node = if self.free == NIL {
            self.nodes.push(Node { entry, next });
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 - 1 filed entries")
        } else {
            let node = self.free;
            let n = &mut self.nodes[node as usize];
            self.free = n.next;
            *n = Node { entry, next };
            node
        };
        let lv = &mut self.levels[level];
        lv.heads[b] = node;
        lv.occupied[b / 64] |= 1 << (b % 64);
        self.counts[level] += 1;
    }

    /// Empties bucket `b` of `level`, handing each entry to `each` and
    /// its node back to the free list.
    #[inline]
    fn drain_bucket(&mut self, level: usize, b: usize, mut each: impl FnMut(&mut Self, E)) {
        let mut node = self.levels[level].take(b);
        while node != NIL {
            let n = &mut self.nodes[node as usize];
            let (entry, next) = (n.entry, n.next);
            n.next = self.free;
            self.free = node;
            self.counts[level] -= 1;
            each(self, entry);
            node = next;
        }
    }

    /// Advances the cursor, when nothing is ready, until a ready entry
    /// exists (or the wheel is empty).
    #[inline]
    fn prime(&mut self) {
        if self.batch == NIL && self.spill.is_empty() && self.len > 0 {
            self.advance();
        }
    }

    /// [`TimerWheel::prime`]'s work, once nothing is ready: batch-fires
    /// the next occupied level-0 bucket (its list sorted once, instead of
    /// a heap push per entry), entering later blocks as needed. The occupancy
    /// bitmaps take the cursor straight to the next bucket that holds
    /// anything.
    fn advance(&mut self) {
        while self.batch == NIL && self.spill.is_empty() && self.len > 0 {
            let block = self.cursor >> BITS;
            if self.counts[0] > 0 {
                let pos = (self.cursor & MASK) as usize;
                if let Some(b) = self.levels[0].first_from(pos + 1) {
                    // The next occupied tick in the cursor's block.
                    self.cursor += (b - pos) as u64;
                    self.fire_bucket(b);
                } else {
                    // Level 0's other ticks all lie in the next block.
                    self.enter_block(block + 1);
                }
            } else if self.counts[1] > 0 {
                // Level-1 buckets hold blocks `block + 1 ..= block + 256`
                // in cyclic index order from `block + 1`. Every block
                // skipped on the way has an empty bucket and no overflow
                // entry (those lie at least 256 blocks past the block
                // they were last drained in), so entering the first
                // occupied one directly files what stepping would have.
                let start = ((block + 1) & MASK) as usize;
                let l1 = &self.levels[1];
                let b = l1.first_from(start).or_else(|| l1.first_from(0));
                let b = b.expect("level 1 holds entries");
                let head = l1.heads[b];
                if self.nodes[head as usize].next == NIL {
                    // The bucket's one entry is the earliest of all: fire
                    // it without filing it into level 0 first.
                    self.levels[1].take(b);
                    self.counts[1] -= 1;
                    self.cursor = tick_of(&self.nodes[head as usize].entry);
                    self.batch = head;
                    self.drain_overflow();
                } else {
                    self.enter_block(block + 1 + ((b + SLOTS - start) % SLOTS) as u64);
                }
            } else {
                // Only far-future entries remain: move the cursor to just
                // before the earliest overflow tick and file it.
                self.cursor = tick_of(&self.overflow.peek().expect("len > 0").0) - 1;
                self.drain_overflow();
            }
        }
    }

    /// Moves the cursor to just before the first tick of `block`,
    /// re-files that block's level-1 bucket and the overflow entries now
    /// in span, and fires the block's first occupied tick.
    fn enter_block(&mut self, block: u64) {
        self.cursor = (block << BITS) - 1;
        self.cascade(block);
        self.drain_overflow();
        let b = self.levels[0]
            .first_from(0)
            .expect("an entered block holds entries");
        self.cursor += b as u64 + 1;
        self.fire_bucket(b);
    }

    /// Makes level-0 bucket `b` — the cursor's tick — the (empty) batch,
    /// its list sorted once.
    fn fire_bucket(&mut self, b: usize) {
        debug_assert_eq!(self.batch, NIL);
        let mut head = self.levels[0].take(b);
        let mut node = head;
        while node != NIL {
            debug_assert_eq!(tick_of(&self.nodes[node as usize].entry), self.cursor);
            self.counts[0] -= 1;
            node = self.nodes[node as usize].next;
        }
        head = self.sort_list(head);
        self.batch = head;
    }

    /// The batch's earliest entry.
    #[inline]
    fn batch_head(&self) -> Option<E> {
        (self.batch != NIL).then(|| self.nodes[self.batch as usize].entry)
    }

    /// Drops the batch's earliest entry, its node back to the free list.
    #[inline]
    fn pop_batch(&mut self) {
        let node = self.batch;
        let n = &mut self.nodes[node as usize];
        self.batch = n.next;
        n.next = self.free;
        self.free = node;
    }

    /// Sorts the list from `head` ascending and returns its new head: a
    /// merge sort through the links, moving no entry.
    fn sort_list(&mut self, head: u32) -> u32 {
        if head == NIL || self.nodes[head as usize].next == NIL {
            return head;
        }
        // Split after the middle node: `fast` moves two links per step.
        let (mut slow, mut fast) = (head, self.nodes[head as usize].next);
        while fast != NIL {
            fast = self.nodes[fast as usize].next;
            if fast != NIL {
                fast = self.nodes[fast as usize].next;
                slow = self.nodes[slow as usize].next;
            }
        }
        let second = std::mem::replace(&mut self.nodes[slow as usize].next, NIL);
        let (mut a, mut b) = (self.sort_list(head), self.sort_list(second));
        // Merge, linking each next-earliest node after `tail`.
        let (mut first, mut tail) = (NIL, NIL);
        while a != NIL && b != NIL {
            let next = if self.nodes[b as usize].entry < self.nodes[a as usize].entry {
                let next = b;
                b = self.nodes[b as usize].next;
                next
            } else {
                let next = a;
                a = self.nodes[a as usize].next;
                next
            };
            match tail {
                NIL => first = next,
                _ => self.nodes[tail as usize].next = next,
            }
            tail = next;
        }
        let rest = if a == NIL { b } else { a };
        match tail {
            NIL => rest,
            _ => {
                self.nodes[tail as usize].next = rest;
                first
            }
        }
    }

    /// Re-files `block`'s level-1 bucket, all of whose entries now lie
    /// within level 0's span.
    fn cascade(&mut self, block: u64) {
        let b = (block & MASK) as usize;
        if self.levels[1].is_occupied(b) {
            self.drain_bucket(1, b, |wheel, e| {
                debug_assert!(tick_of(&e) >= wheel.cursor);
                wheel.file(e);
            });
        }
    }

    /// Pulls overflow entries that now fall within the wheel span. Called
    /// whenever the cursor enters a block, so an overflow entry is always re-filed
    /// before the cursor can reach its tick — a later-scheduled wheel entry
    /// can therefore never fire ahead of a nearer overflow entry.
    fn drain_overflow(&mut self) {
        let limit = self.cursor.saturating_add(L1_SPAN_TICKS);
        while let Some(Reverse(e)) = self.overflow.peek() {
            if tick_of(e) >= limit {
                break;
            }
            let e = self.overflow.pop().expect("peeked").0;
            self.file(e);
        }
    }
}
