//! Property tests for the event-queue core.
//!
//! Two contracts are pinned here:
//!
//! 1. **Cancel-storm accounting** — under heavy schedule/cancel/pop
//!    interleaving (the deauth-flood shape), `len()`, tombstone
//!    accounting and `dispatched()` never drift from a reference model,
//!    and tombstone compaction keeps resident wheel nodes bounded.
//! 2. **Wheel-vs-heap differential** — the timer-wheel queue pops the
//!    exact sequence a straightforward `BinaryHeap<(time, seq)>` does,
//!    for arbitrary `schedule` / `schedule_at_seq` / `cancel` /
//!    `pop_until` interleavings.

use proptest::collection;
use proptest::prelude::*;
use rogue_sim::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Reference queue: the shape this repo used before the timer wheel —
/// a binary heap ordered by `(time, seq)` plus a liveness map for
/// cancellation. Deliberately naive; its pop order *defines* what the
/// wheel must reproduce.
struct RefQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    live: HashMap<u64, (SimTime, E)>,
    now: SimTime,
    next_seq: u64,
    dispatched: u64,
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            live: HashMap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            dispatched: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, ev: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.live.insert(seq, (at, ev));
        seq
    }

    fn schedule_at_seq(&mut self, at: SimTime, seq: u64, ev: E) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.heap.push(Reverse((at, seq)));
        self.live.insert(seq, (at, ev));
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.live.remove(&seq).is_some()
    }

    /// Earliest live fire time (skims cancelled heap tombstones).
    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, s))) = self.heap.peek() {
            if self.live.contains_key(&s) {
                return Some(t);
            }
            self.heap.pop();
        }
        None
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.peek_time()?;
        let Reverse((t, s)) = self.heap.pop().expect("peeked");
        let (_, ev) = self.live.remove(&s).expect("peeked live");
        self.now = t;
        self.dispatched += 1;
        Some((t, ev))
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

/// Decoded queue operation. `word` is raw proptest entropy.
enum Op {
    /// Schedule at now + (0..50) ms; `salt` picks the seq path.
    Schedule { delay_ms: u64, salt: u64 },
    /// Cancel the id at index (word mod ids.len()), if any.
    Cancel { pick: u64 },
    /// Pop unconditionally.
    Pop,
    /// Pop with deadline now + (0..10) ms — exercises the inclusive
    /// boundary arm as well, since delays and deadlines share the ms
    /// grid and collide often.
    PopUntil { horizon_ms: u64 },
}

fn decode(word: u64) -> Op {
    match word % 100 {
        0..=54 => Op::Schedule {
            delay_ms: (word / 100) % 50,
            salt: word / 7,
        },
        55..=69 => Op::Cancel { pick: word / 100 },
        70..=84 => Op::Pop,
        _ => Op::PopUntil {
            horizon_ms: (word / 100) % 10,
        },
    }
}

proptest! {
    /// Cancel storm against a reference model: a BTreeMap keyed by
    /// (time, seq) — exactly the queue's dispatch order — tracking the
    /// live set. len(), pop results, cancel outcomes and dispatched()
    /// must track the model through arbitrary interleavings.
    #[test]
    fn cancel_storm_accounting_stays_exact(words in collection::vec(any::<u64>(), 1..600)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut ids: Vec<(rogue_sim::queue::EventId, (SimTime, u64))> = Vec::new();
        let mut seq = 0u64;
        let mut expected_dispatched = 0u64;
        for (i, &word) in words.iter().enumerate() {
            match decode(word) {
                Op::Schedule { delay_ms, .. } => {
                    let at = q.now() + SimDuration::from_millis(delay_ms);
                    let id = q.schedule(at, i as u64);
                    model.insert((at, seq), i as u64);
                    ids.push((id, (at, seq)));
                    seq += 1;
                }
                Op::Cancel { pick } => {
                    if !ids.is_empty() {
                        let idx = (pick as usize) % ids.len();
                        let (id, key) = ids[idx];
                        let was_live = model.remove(&key).is_some();
                        prop_assert_eq!(
                            q.cancel(id), was_live,
                            "cancel returned wrong liveness"
                        );
                    }
                }
                Op::Pop | Op::PopUntil { .. } => {
                    let deadline = match decode(word) {
                        Op::PopUntil { horizon_ms } => {
                            Some(q.now() + SimDuration::from_millis(horizon_ms))
                        }
                        _ => None,
                    };
                    let expect = model.iter().next().map(|(&(t, s), &e)| (t, s, e));
                    let expect = match (deadline, expect) {
                        (Some(d), Some((t, _, _))) if t > d => None,
                        (_, e) => e,
                    };
                    let got = match deadline {
                        Some(d) => q.pop_until(d),
                        None => q.pop(),
                    };
                    prop_assert_eq!(
                        got,
                        expect.map(|(t, _, e)| (t, e)),
                        "pop diverged from model"
                    );
                    if let Some((mt, ms, _)) = expect {
                        model.remove(&(mt, ms));
                        expected_dispatched += 1;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len(), "len drifted from model");
            prop_assert_eq!(q.dispatched(), expected_dispatched, "dispatch count drifted");
            // Tombstone compaction bound: resident wheel nodes may lag
            // live events (lazy cancellation), but never by more than
            // len() stale nodes plus the compaction floor.
            prop_assert!(
                q.resident() <= 2 * q.len() + 64,
                "tombstones unbounded: resident {} vs len {}",
                q.resident(),
                q.len()
            );
        }
    }

    /// Differential test: the timer-wheel queue against [`RefQueue`],
    /// the naive BinaryHeap it replaced. Every schedule (auto-seq and
    /// explicit `schedule_at_seq`), cancel outcome, pop result, and the
    /// len/now/dispatched counters must agree at every step.
    #[test]
    fn wheel_matches_reference_binaryheap(words in collection::vec(any::<u64>(), 1..500)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r: RefQueue<u64> = RefQueue::new();
        let mut ids: Vec<(rogue_sim::queue::EventId, u64)> = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            match decode(word) {
                Op::Schedule { delay_ms, salt } => {
                    let at = q.now() + SimDuration::from_millis(delay_ms);
                    if salt % 5 == 0 {
                        // Explicit-seq path (the restore/replay API):
                        // unique seqs far above the auto range, so they
                        // sort after auto-scheduled events at the same
                        // instant — both queues must agree on that.
                        let seq = 1_000_000 + i as u64;
                        let id = q.schedule_at_seq(at, seq, i as u64);
                        r.schedule_at_seq(at, seq, i as u64);
                        ids.push((id, seq));
                    } else {
                        let id = q.schedule(at, i as u64);
                        let seq = r.schedule(at, i as u64);
                        ids.push((id, seq));
                    }
                }
                Op::Cancel { pick } => {
                    if !ids.is_empty() {
                        let idx = (pick as usize) % ids.len();
                        let (id, seq) = ids[idx];
                        prop_assert_eq!(
                            q.cancel(id),
                            r.cancel(seq),
                            "cancel outcome diverged from reference"
                        );
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(q.pop(), r.pop(), "pop diverged from reference");
                }
                Op::PopUntil { horizon_ms } => {
                    let deadline = q.now() + SimDuration::from_millis(horizon_ms);
                    prop_assert_eq!(
                        q.pop_until(deadline),
                        r.pop_until(deadline),
                        "pop_until diverged from reference"
                    );
                }
            }
            prop_assert_eq!(q.len(), r.live.len());
            prop_assert_eq!(q.now(), r.now);
            prop_assert_eq!(q.dispatched(), r.dispatched);
        }
        // Drain both to exhaustion: tail order must match too.
        loop {
            let a = q.pop();
            let b = r.pop();
            prop_assert_eq!(&a, &b, "drain diverged from reference");
            if a.is_none() {
                break;
            }
        }
    }
}
