//! The deterministic event queue: a min-heap ordered by `(time, seq)`.
//!
//! `seq` is a monotonically increasing insertion counter, so entries
//! scheduled for the same instant pop in insertion order. This is the
//! *only* event-ordering implementation in the workspace; the simulator's
//! global event loop and the TCP runner's timer wheel are both built on
//! it, which is what makes their schedules comparable.
//!
//! The heap holds only `(time, seq, slot)` keys, 24 bytes each; the
//! payloads wait in a slot arena the keys index. A sift then moves keys,
//! never payloads — the simulator's deliveries carry whole messages, and
//! moving those through every level of the heap was most of the queue's
//! cost. A popped entry's slot goes on a free list and the next push
//! reuses it, so the arena never outgrows the peak number of pending
//! entries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use banyan_types::time::Time;

/// A deterministic time-ordered queue of `T`.
///
/// Pops strictly by `(time, insertion sequence)`; two queues fed the same
/// pushes in the same order always pop identically, independent of the
/// payload type's own ordering (it needs none).
pub struct EventQueue<T> {
    /// `(at, seq, slot)` keys. `seq` is unique per queue, so the slot never
    /// decides the order: it only says where the payload is.
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    /// Payloads by slot; `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Free slots, reused before the arena grows.
    free: Vec<u32>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `item` at `at`. Entries with equal `at` pop in the order
    /// they were pushed.
    pub fn push(&mut self, at: Time, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(item);
                slot
            }
            None => {
                self.slots.push(Some(item));
                u32::try_from(self.slots.len() - 1).expect("more than u32::MAX pending events")
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Time of the earliest entry, if any.
    pub fn next_at(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// The earliest entry, left in place.
    pub fn peek(&self) -> Option<(Time, &T)> {
        let Reverse((at, _, slot)) = self.heap.peek()?;
        let item = self.slots[*slot as usize].as_ref()?;
        Some((*at, item))
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let item = self.slots[slot as usize]
            .take()
            .expect("a keyed slot is full");
        self.free.push(slot);
        Some((at, item))
    }

    /// Removes and returns the earliest entry if it is due at `now`
    /// (i.e. scheduled at or before it).
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        if self.next_at()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total entries ever pushed (the next seq number). Diagnostic.
    pub fn pushed(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), "c");
        q.push(Time(10), "a");
        q.push(Time(20), "b");
        assert_eq!(q.next_at(), Some(Time(10)));
        assert_eq!(q.peek(), Some((Time(10), &"a")));
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Time(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Time(7), i)), "insertion order broken at {i}");
        }
    }

    #[test]
    fn interleaved_equal_and_distinct_times() {
        let mut q = EventQueue::new();
        q.push(Time(5), "first@5");
        q.push(Time(3), "only@3");
        q.push(Time(5), "second@5");
        q.push(Time(4), "only@4");
        q.push(Time(5), "third@5");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(
            order,
            vec!["only@3", "only@4", "first@5", "second@5", "third@5"]
        );
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Time(10), 1);
        q.push(Time(20), 2);
        assert_eq!(q.pop_due(Time(5)), None);
        assert_eq!(q.pop_due(Time(10)), Some((Time(10), 1)));
        assert_eq!(q.pop_due(Time(15)), None);
        assert_eq!(q.pop_due(Time(25)), Some((Time(20), 2)));
        assert!(q.is_empty());
    }

    /// xorshift64*: a seeded, dependency-free stream for the randomized
    /// test below.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    #[test]
    fn random_operations_match_a_time_seq_ordered_model() {
        for seed in 1..=20u64 {
            let mut rng = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut q = EventQueue::new();
            // The reference: every pending `(time, seq, value)`; the next
            // pop is its minimum.
            let mut model: Vec<(Time, u64, u64)> = Vec::new();
            let (mut seq, mut peak) = (0u64, 0usize);
            for step in 0..4_000u64 {
                match rng.below(4) {
                    // Pushes outnumber pops, so the queue grows and
                    // shrinks; times come from a narrow range, so many are
                    // equal and only `seq` orders them.
                    0 | 1 => {
                        let at = Time(rng.below(32));
                        q.push(at, step);
                        model.push((at, seq, step));
                        seq += 1;
                    }
                    op => {
                        let due = (op == 3).then(|| Time(rng.below(40)));
                        let next = (model.iter().enumerate())
                            .min_by_key(|(_, e)| (e.0, e.1))
                            .map(|(i, e)| (i, e.0));
                        let expected = match next {
                            Some((i, at)) if due.is_none_or(|now| at <= now) => {
                                let (at, _, value) = model.swap_remove(i);
                                Some((at, value))
                            }
                            _ => None,
                        };
                        let got = match due {
                            Some(now) => q.pop_due(now),
                            None => q.pop(),
                        };
                        assert_eq!(got, expected, "seed {seed} step {step}");
                    }
                }
                peak = peak.max(model.len());
                assert_eq!(q.len(), model.len());
                assert_eq!(q.next_at(), model.iter().map(|e| e.0).min());
            }
            assert_eq!(q.pushed(), seq);
            assert_eq!(q.slots.len(), peak, "seed {seed}: arena outgrew the peak");
        }
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(Time(i), i);
        }
        // 10⁵ alternating calls: never more than 9 entries pending.
        for i in 8..50_008u64 {
            q.push(Time(i), i);
            assert_eq!(q.pop(), Some((Time(i - 8), i - 8)));
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.slots.len(), 9, "a freed slot was not reused");
        assert_eq!(q.free.len(), 1);
    }

    #[test]
    fn payload_needs_no_ordering() {
        // A payload type with no Ord/Eq at all.
        struct Opaque(#[allow(dead_code)] fn() -> u32);
        let mut q = EventQueue::new();
        q.push(Time(2), Opaque(|| 2));
        q.push(Time(1), Opaque(|| 1));
        assert_eq!(q.pop().map(|(t, _)| t), Some(Time(1)));
    }
}
