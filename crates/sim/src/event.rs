//! Deterministic time-ordered event queues.
//!
//! Two implementations share one ordering contract (documented on
//! [`EventKind`] and in DESIGN.md §13):
//!
//! - [`EventQueue`] — a hierarchical **timing wheel** (64-slot levels,
//!   nanosecond resolution) with O(1) amortized push/pop. This is the
//!   engine's workhorse.
//! - [`IndexedEventQueue`] — the engine-facing facade: the wheel plus the
//!   engine's uniqueness bookkeeping (one pending arrival, one pending
//!   completion per server). Unlike its previous incarnation, `pop` no
//!   longer scans `O(servers)` slots — cost is independent of fleet size.
//!
//! # The wheel
//!
//! Keys are nanosecond timestamps. The wheel has 11 levels of 64 slots;
//! level `l` buckets keys by bits `[6l, 6l+6)`, so 11 levels cover the full
//! 64-bit key space. An event with key `k` is stored at the *highest* level
//! whose digit differs from the wheel's virtual time `now` (level 0 if they
//! share all digits above the lowest six bits). At level 0 a slot holds
//! exactly one key; `pop` takes the lowest occupied slot (one
//! `trailing_zeros` per level bitmap) and breaks ties by `(at, kind, seq)`.
//! When level 0 is empty, the lowest occupied slot of the lowest non-empty
//! level is *cascaded*: `now` advances to the slot's base time and the
//! slot's events re-insert at strictly lower levels. Each event cascades at
//! most 10 times over its lifetime, so push and pop are O(1) amortized with
//! no comparisons against unrelated events.
//!
//! Events pushed with a timestamp earlier than `now` (the time of the last
//! pop) are scheduled *at* `now` — they fire immediately, which is the only
//! consistent reading of a past deadline. Their reported [`Event::at`] is
//! preserved, and ties against genuine `now` events are still broken by
//! `(at, kind, seq)`, which keeps the pop sequence identical to the binary
//! heap's for every schedule the engine can produce (see the equivalence
//! tests and `tests/wheel_props.rs`).

use gqos_trace::SimTime;

/// What happens when an event fires.
///
/// Ordering at equal timestamps is significant and fixed: completions are
/// processed before retries, and retries before arrivals, so that a request
/// arriving exactly when the server frees up observes the freed queue slot
/// (the convention the paper's queue-length argument assumes). Within a
/// kind, the lower server (or workload) index fires first; equal events
/// fire in insertion order.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum EventKind {
    /// A server finishes its in-flight request.
    Completion {
        /// Index of the completing server.
        server: usize,
    },
    /// A server should re-poll its scheduler (used by non-work-conserving
    /// schedulers that report a future eligibility time).
    Retry {
        /// Index of the server to poll.
        server: usize,
    },
    /// The workload's next request arrives.
    Arrival {
        /// Index of the arriving request within the workload.
        index: usize,
    },
}

/// A scheduled event.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// What fires.
    pub kind: EventKind,
}

/// Bits per wheel level: 64 slots each.
const BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels needed so `LEVELS * BITS >= 64` covers the whole key space.
const LEVELS: usize = 11;

/// A stored event: placement key (the clamped timestamp), original
/// timestamp, kind, and insertion sequence. The derived ordering — `(key,
/// at, kind, seq)` — is the pop order.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Debug)]
struct Entry {
    key: u64,
    at: SimTime,
    kind: EventKind,
    seq: u64,
}

/// The wheel level and slot that hold `key` when virtual time is `now`.
///
/// Level = the highest 6-bit digit where `key` and `now` differ (0 when
/// they agree above the low 6 bits); slot = that digit of `key`.
#[inline]
fn placement(now: u64, key: u64) -> (usize, usize) {
    debug_assert!(key >= now, "wheel keys are clamped to now");
    let diff = key ^ now;
    let level = if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros() as usize) / BITS
    };
    let slot = ((key >> (BITS * level)) & (SLOTS as u64 - 1)) as usize;
    (level, slot)
}

/// A priority queue of events ordered by time, then by [`EventKind`], then
/// by insertion order — fully deterministic.
///
/// Implemented as a hierarchical timing wheel (see the module docs): push
/// and pop are O(1) amortized regardless of queue population, and pop order
/// is bit-identical to a binary heap keyed on `(at, kind, insertion order)`
/// (the reference oracle in `tests/heap_oracle`).
///
/// # Examples
///
/// ```
/// use gqos_sim::{Event, EventKind, EventQueue};
/// use gqos_trace::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(Event { at: SimTime::from_secs(2), kind: EventKind::Arrival { index: 1 } });
/// q.push(Event { at: SimTime::from_secs(1), kind: EventKind::Arrival { index: 0 } });
/// assert_eq!(q.pop().unwrap().at, SimTime::from_secs(1));
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue {
    /// `LEVELS * SLOTS` buckets, row-major by level.
    slots: Vec<Vec<Entry>>,
    /// One occupancy bitmap per level; bit `s` set iff slot `s` is
    /// non-empty.
    occupied: [u64; LEVELS],
    /// Virtual time: the placement key of the last popped event. Keys of
    /// incoming events are clamped to at least `now`.
    now: u64,
    seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: vec![Vec::new(); LEVELS * SLOTS],
            occupied: [0; LEVELS],
            now: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Empties the queue and rewinds virtual time to zero, keeping the
    /// slot buffers for reuse.
    pub fn clear(&mut self) {
        for (level, bits) in self.occupied.iter_mut().enumerate() {
            let mut b = *bits;
            while b != 0 {
                let slot = b.trailing_zeros() as usize;
                self.slots[level * SLOTS + slot].clear();
                b &= b - 1;
            }
            *bits = 0;
        }
        self.now = 0;
        self.seq = 0;
        self.len = 0;
    }

    /// Schedules an event. Timestamps earlier than the last popped event
    /// fire immediately (see the module docs).
    pub fn push(&mut self, event: Event) {
        let key = event.at.as_nanos().max(self.now);
        let (level, slot) = placement(self.now, key);
        self.slots[level * SLOTS + slot].push(Entry {
            key,
            at: event.at,
            kind: event.kind,
            seq: self.seq,
        });
        self.occupied[level] |= 1 << slot;
        self.seq += 1;
        self.len += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            let level = self.occupied.iter().position(|&b| b != 0)?;
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                let cell = &mut self.slots[slot];
                let best = cell
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, entry)| *entry)
                    .map(|(i, _)| i)
                    .expect("occupancy bit set on an empty slot");
                let entry = cell.swap_remove(best);
                if cell.is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                }
                self.now = entry.key;
                self.len -= 1;
                return Some(Event {
                    at: entry.at,
                    kind: entry.kind,
                });
            }
            // Cascade: advance `now` to the slot's base time and re-insert
            // its events; each lands at a strictly lower level.
            let shift = BITS * (level + 1);
            let upper = if shift >= 64 {
                0
            } else {
                (self.now >> shift) << shift
            };
            self.now = upper | ((slot as u64) << (BITS * level));
            let index = level * SLOTS + slot;
            let mut batch = std::mem::take(&mut self.slots[index]);
            self.occupied[level] &= !(1u64 << slot);
            for &entry in &batch {
                let (l, s) = placement(self.now, entry.key);
                debug_assert!(l < level, "cascade must move events downward");
                self.slots[l * SLOTS + s].push(entry);
                self.occupied[l] |= 1 << s;
            }
            batch.clear();
            self.slots[index] = batch;
        }
    }

    /// The timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let level = self.occupied.iter().position(|&b| b != 0)?;
        let slot = self.occupied[level].trailing_zeros() as usize;
        // The lowest occupied slot of the lowest non-empty level contains
        // the global minimum; every other occupied slot holds strictly
        // larger keys.
        self.slots[level * SLOTS + slot].iter().min().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The engine's event queue: the timing wheel plus the engine's uniqueness
/// invariants —
///
/// - at most **one pending arrival** (the engine schedules arrival `i + 1`
///   only when it processes arrival `i`),
/// - at most **one pending completion per server** (a server holds one
///   in-flight request),
/// - any number of **stackable retries per server** (a non-work-conserving
///   scheduler may re-announce an eligibility time).
///
/// Violations of the uniqueness invariants are engine bookkeeping bugs and
/// panic at `push`. Pop order is identical to [`EventQueue`] and to the
/// binary-heap oracle in `tests/heap_oracle` — time, then [`EventKind`] (completions before
/// retries before arrivals, lower server index first), then insertion
/// order — which the equivalence tests check on randomised schedules.
///
/// Earlier revisions stored events in per-server slots and scanned all of
/// them on every pop — `O(servers)` per pop, quadratic over a fleet-scale
/// fault sweep. The wheel makes pop cost independent of the server count
/// (`event/indexed_pop_*` in `perf_report` tracks this).
///
/// # Examples
///
/// ```
/// use gqos_sim::{Event, EventKind, IndexedEventQueue};
/// use gqos_trace::SimTime;
///
/// let mut q = IndexedEventQueue::new(1);
/// q.push(Event { at: SimTime::from_secs(2), kind: EventKind::Arrival { index: 0 } });
/// q.push(Event { at: SimTime::from_secs(2), kind: EventKind::Completion { server: 0 } });
/// assert_eq!(q.pop().unwrap().kind, EventKind::Completion { server: 0 });
/// ```
#[derive(Clone, Debug, Default)]
pub struct IndexedEventQueue {
    wheel: EventQueue,
    /// Per-server "a completion is pending" flag, for the uniqueness panic.
    completion_pending: Vec<bool>,
    /// Whether the single arrival slot is taken.
    arrival_pending: bool,
}

impl IndexedEventQueue {
    /// Creates an empty queue with slots for `servers` servers.
    pub fn new(servers: usize) -> Self {
        IndexedEventQueue {
            wheel: EventQueue::new(),
            completion_pending: vec![false; servers],
            arrival_pending: false,
        }
    }

    /// Empties the queue, keeping its buffers for reuse.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.completion_pending.fill(false);
        self.arrival_pending = false;
    }

    /// Schedules an event.
    ///
    /// # Panics
    ///
    /// Panics if the event's server index is out of range, or if a slot
    /// that must be unique (a server's completion, the arrival) is already
    /// occupied — both are engine bookkeeping bugs.
    pub fn push(&mut self, event: Event) {
        match event.kind {
            EventKind::Completion { server } => {
                let pending = &mut self.completion_pending[server];
                assert!(!*pending, "server {server} already has a completion");
                *pending = true;
            }
            EventKind::Retry { server } => {
                assert!(
                    server < self.completion_pending.len(),
                    "retry for unknown server {server}"
                );
            }
            EventKind::Arrival { .. } => {
                assert!(!self.arrival_pending, "an arrival is already pending");
                self.arrival_pending = true;
            }
        }
        self.wheel.push(event);
    }

    /// Removes and returns the earliest event (see the type docs for the
    /// tie-break order).
    pub fn pop(&mut self) -> Option<Event> {
        let event = self.wheel.pop()?;
        match event.kind {
            EventKind::Completion { server } => self.completion_pending[server] = false,
            EventKind::Retry { .. } => {}
            EventKind::Arrival { .. } => self.arrival_pending = false,
        }
        Some(event)
    }

    /// The timestamp of the earliest event without removing it — the `at`
    /// the next [`pop`](IndexedEventQueue::pop) returns.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_secs(secs),
            kind,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(3, EventKind::Arrival { index: 2 }));
        q.push(at(1, EventKind::Arrival { index: 0 }));
        q.push(at(2, EventKind::Arrival { index: 1 }));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(
            order,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn completion_precedes_arrival_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(at(5, EventKind::Arrival { index: 0 }));
        q.push(at(5, EventKind::Completion { server: 0 }));
        q.push(at(5, EventKind::Retry { server: 0 }));
        assert_eq!(q.pop().unwrap().kind, EventKind::Completion { server: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Retry { server: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { index: 0 });
    }

    #[test]
    fn equal_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(at(1, EventKind::Arrival { index: 7 }));
        q.push(at(1, EventKind::Arrival { index: 7 }));
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(at(9, EventKind::Retry { server: 1 }));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn arrivals_at_same_instant_pop_by_index() {
        let mut q = EventQueue::new();
        q.push(at(1, EventKind::Arrival { index: 5 }));
        q.push(at(1, EventKind::Arrival { index: 3 }));
        match q.pop().unwrap().kind {
            EventKind::Arrival { index } => assert_eq!(index, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Nanosecond-adjacent and hours-apart events exercise every wheel
    /// level; order must still be exact.
    #[test]
    fn wheel_orders_across_level_boundaries() {
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            63,
            64,
            65,
            4095,
            4096,
            1 << 30,
            (1 << 30) + 1,
            3_600_000_000_000, // one hour in ns
            u64::MAX / 2,
            u64::MAX,
        ];
        // Push in reverse so insertion order never matches time order.
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(Event {
                at: SimTime::from_nanos(t),
                kind: EventKind::Arrival { index: i },
            });
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(popped, times);
    }

    /// A push earlier than the last pop fires immediately, before anything
    /// later, and still reports its original timestamp.
    #[test]
    fn wheel_clamps_past_pushes_to_the_present() {
        let mut q = EventQueue::new();
        q.push(at(5, EventKind::Completion { server: 0 }));
        assert_eq!(q.pop().unwrap().at, SimTime::from_secs(5));
        q.push(at(7, EventKind::Arrival { index: 0 }));
        q.push(at(2, EventKind::Retry { server: 0 }));
        let first = q.pop().unwrap();
        assert_eq!(first.kind, EventKind::Retry { server: 0 });
        assert_eq!(first.at, SimTime::from_secs(2));
        assert_eq!(q.pop().unwrap().at, SimTime::from_secs(7));
    }

    #[test]
    fn wheel_clear_rewinds_time_and_reuses_buffers() {
        let mut q = EventQueue::new();
        q.push(at(100, EventKind::Arrival { index: 0 }));
        assert_eq!(q.pop().unwrap().at, SimTime::from_secs(100));
        q.clear();
        assert!(q.is_empty());
        // After clear the wheel accepts (and does not clamp) early times.
        q.push(at(1, EventKind::Arrival { index: 1 }));
        assert_eq!(q.pop().unwrap().at, SimTime::from_secs(1));
    }

    #[test]
    fn indexed_queue_orders_kinds_at_equal_time() {
        let mut q = IndexedEventQueue::new(2);
        q.push(at(5, EventKind::Arrival { index: 0 }));
        q.push(at(5, EventKind::Retry { server: 1 }));
        q.push(at(5, EventKind::Retry { server: 0 }));
        q.push(at(5, EventKind::Completion { server: 1 }));
        q.push(at(5, EventKind::Completion { server: 0 }));
        assert_eq!(q.len(), 5);
        let kinds: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Completion { server: 0 },
                EventKind::Completion { server: 1 },
                EventKind::Retry { server: 0 },
                EventKind::Retry { server: 1 },
                EventKind::Arrival { index: 0 },
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn indexed_queue_clear_reuses_buffers() {
        let mut q = IndexedEventQueue::new(1);
        q.push(at(1, EventKind::Completion { server: 0 }));
        q.push(at(2, EventKind::Retry { server: 0 }));
        q.clear();
        assert!(q.is_empty());
        // Slots are free again after clear.
        q.push(at(3, EventKind::Completion { server: 0 }));
        q.push(at(3, EventKind::Arrival { index: 9 }));
        assert_eq!(q.pop().unwrap().kind, EventKind::Completion { server: 0 });
    }

    #[test]
    #[should_panic(expected = "already has a completion")]
    fn indexed_queue_rejects_double_completion() {
        let mut q = IndexedEventQueue::new(1);
        q.push(at(1, EventKind::Completion { server: 0 }));
        q.push(at(2, EventKind::Completion { server: 0 }));
    }

    #[test]
    #[should_panic(expected = "an arrival is already pending")]
    fn indexed_queue_rejects_double_arrival() {
        let mut q = IndexedEventQueue::new(1);
        q.push(at(1, EventKind::Arrival { index: 0 }));
        q.push(at(2, EventKind::Arrival { index: 1 }));
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn indexed_queue_rejects_out_of_range_retry() {
        let mut q = IndexedEventQueue::new(2);
        q.push(at(1, EventKind::Retry { server: 2 }));
    }
}
