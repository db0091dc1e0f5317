//! The reference event queue the timing wheel is differentially tested
//! against: a plain binary heap keyed on `(at, kind, insertion order)`.
//!
//! It is the original engine queue, kept only as an independent oracle;
//! the engine itself runs on [`gqos_sim::EventQueue`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gqos_sim::{Event, EventKind};
use gqos_trace::SimTime;

/// Same pop order as [`gqos_sim::EventQueue`]; O(log n) push/pop.
#[derive(Clone, Debug, Default)]
pub struct BinaryHeapEventQueue {
    heap: BinaryHeap<Reverse<(SimTime, EventKind, u64)>>,
    seq: u64,
}

impl BinaryHeapEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapEventQueue::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, event: Event) {
        self.heap.push(Reverse((event.at, event.kind, self.seq)));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap
            .pop()
            .map(|Reverse((at, kind, _))| Event { at, kind })
    }

    /// The timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}
