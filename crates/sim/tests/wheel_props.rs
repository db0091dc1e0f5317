//! Differential property tests: the timing-wheel [`EventQueue`] must pop
//! in exactly the order of the binary-heap oracle (`heap_oracle`) on arbitrary
//! event sequences — interleaved pushes and pops, timestamp ties on every
//! kind, magnitudes spanning all eleven wheel levels, and pushes into the
//! past. No external property-testing crate: a deterministic splitmix-style
//! generator drives thousands of randomised rounds.

mod heap_oracle;

use gqos_sim::{Event, EventKind, EventQueue, IndexedEventQueue};
use gqos_trace::SimTime;

use heap_oracle::BinaryHeapEventQueue;

/// Deterministic 64-bit generator (splitmix64) so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A timestamp whose magnitude is itself random: raw 64-bit values
    /// shifted right by 0..64 bits, hitting every wheel level from
    /// single-nanosecond slots to the top 4-bit level.
    fn time(&mut self) -> SimTime {
        let shift = self.below(64) as u32;
        SimTime::from_nanos(self.next() >> shift)
    }

    fn kind(&mut self, servers: u64) -> EventKind {
        match self.below(3) {
            0 => EventKind::Completion {
                server: self.below(servers) as usize,
            },
            1 => EventKind::Retry {
                server: self.below(servers) as usize,
            },
            _ => EventKind::Arrival {
                index: self.below(servers) as usize,
            },
        }
    }
}

/// Drain both queues fully and compare every popped event.
fn assert_drain_matches(wheel: &mut EventQueue, oracle: &mut BinaryHeapEventQueue, round: u64) {
    loop {
        let (a, b) = (oracle.pop(), wheel.pop());
        assert_eq!(a, b, "wheel diverged from heap oracle (round {round})");
        if a.is_none() {
            break;
        }
    }
}

/// Bulk load then drain: pop order over arbitrary magnitudes and kinds.
#[test]
fn wheel_matches_heap_on_bulk_loads() {
    let mut rng = Rng(0x51ab_0001);
    for round in 0..2_000 {
        let mut wheel = EventQueue::new();
        let mut oracle = BinaryHeapEventQueue::new();
        let n = rng.below(40) + 1;
        for _ in 0..n {
            let event = Event {
                at: rng.time(),
                kind: rng.kind(4),
            };
            wheel.push(event);
            oracle.push(event);
        }
        assert_eq!(wheel.len(), oracle.len());
        assert_eq!(wheel.peek_time(), oracle.peek_time());
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// Interleaved pushes and pops, including pushes *behind* the last popped
/// timestamp (the wheel fires those immediately; so does the heap, because
/// nothing earlier can still be pending — see DESIGN.md §13).
#[test]
fn wheel_matches_heap_under_interleaving_and_past_pushes() {
    let mut rng = Rng(0x51ab_0002);
    for round in 0..2_000 {
        let mut wheel = EventQueue::new();
        let mut oracle = BinaryHeapEventQueue::new();
        for _ in 0..60 {
            if rng.below(3) == 0 {
                let (a, b) = (oracle.pop(), wheel.pop());
                assert_eq!(a, b, "pop diverged mid-stream (round {round})");
            } else {
                // Half the pushes aim near (possibly before) the most
                // recently popped time to stress the clamp path; the rest
                // are arbitrary.
                let at = if rng.below(2) == 0 {
                    SimTime::from_nanos(rng.below(1 << 12))
                } else {
                    rng.time()
                };
                let event = Event {
                    at,
                    kind: rng.kind(4),
                };
                wheel.push(event);
                oracle.push(event);
            }
            assert_eq!(wheel.peek_time(), oracle.peek_time());
        }
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// Dense timestamp ties: many events in a handful of instants, so the
/// (kind, insertion-order) tie-breaks do all the work.
#[test]
fn wheel_matches_heap_on_heavy_ties() {
    let mut rng = Rng(0x51ab_0003);
    for round in 0..2_000 {
        let mut wheel = EventQueue::new();
        let mut oracle = BinaryHeapEventQueue::new();
        for _ in 0..30 {
            let event = Event {
                at: SimTime::from_nanos(rng.below(3)),
                kind: rng.kind(3),
            };
            wheel.push(event);
            oracle.push(event);
        }
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}

/// The engine facade on top of the wheel, driven with engine-feasible
/// schedules (unique arrival, unique completion per server) at fleet
/// scale, interleaving pushes and pops as the simulation loop does. Before
/// every pop, `peek_time` must name the `at` that pop returns.
#[test]
fn indexed_queue_matches_heap_at_fleet_scale() {
    let mut rng = Rng(0x51ab_0004);
    for &servers in &[1usize, 2, 16, 128] {
        for round in 0..200 {
            let mut indexed = IndexedEventQueue::new(servers);
            let mut oracle = BinaryHeapEventQueue::new();
            let mut arrival_pending = false;
            let mut completion_pending = vec![false; servers];
            let mut last_popped = SimTime::ZERO;
            for _ in 0..80 {
                if rng.below(3) == 0 {
                    let peeked = indexed.peek_time();
                    let (a, b) = (oracle.pop(), indexed.pop());
                    assert_eq!(a, b, "indexed diverged ({servers} servers, round {round})");
                    assert_eq!(peeked, b.map(|e| e.at), "peek_time is not the next pop");
                    if let Some(e) = a {
                        last_popped = last_popped.max(e.at);
                        match e.kind {
                            EventKind::Completion { server } => completion_pending[server] = false,
                            EventKind::Arrival { .. } => arrival_pending = false,
                            EventKind::Retry { .. } => {}
                        }
                    }
                    continue;
                }
                // Engine pushes never go into the past relative to the
                // event it is currently processing.
                let at =
                    SimTime::from_nanos(last_popped.as_nanos().saturating_add(rng.below(1 << 20)));
                let kind = match rng.below(3) {
                    0 if !arrival_pending => {
                        arrival_pending = true;
                        EventKind::Arrival {
                            index: rng.below(1000) as usize,
                        }
                    }
                    1 => {
                        let s = rng.below(servers as u64) as usize;
                        if completion_pending[s] {
                            continue;
                        }
                        completion_pending[s] = true;
                        EventKind::Completion { server: s }
                    }
                    _ => EventKind::Retry {
                        server: rng.below(servers as u64) as usize,
                    },
                };
                let event = Event { at, kind };
                indexed.push(event);
                oracle.push(event);
            }
            loop {
                let peeked = indexed.peek_time();
                let (a, b) = (oracle.pop(), indexed.pop());
                assert_eq!(a, b, "drain diverged ({servers} servers, round {round})");
                assert_eq!(peeked, b.map(|e| e.at), "peek_time is not the next pop");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

/// On any engine-feasible schedule (one arrival slot, one completion
/// slot per server, stackable retries) the indexed queue must pop in
/// exactly the heap queue's order.
#[test]
fn indexed_queue_matches_heap_on_random_schedules() {
    // Small deterministic LCG so this test needs no external RNG.
    let mut state = 0x3c6e_f372_fe94_f82au64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    for servers in 1..4usize {
        for _round in 0..200 {
            let mut heap = BinaryHeapEventQueue::new();
            let mut indexed = IndexedEventQueue::new(servers);
            let mut arrival_used = false;
            let mut completion_used = vec![false; servers];
            for _ in 0..12 {
                let t = SimTime::from_millis(next(6));
                let kind = match next(3) {
                    0 if !arrival_used => {
                        arrival_used = true;
                        EventKind::Arrival {
                            index: next(10) as usize,
                        }
                    }
                    1 => {
                        let s = next(servers as u64) as usize;
                        if completion_used[s] {
                            continue;
                        }
                        completion_used[s] = true;
                        EventKind::Completion { server: s }
                    }
                    _ => EventKind::Retry {
                        server: next(servers as u64) as usize,
                    },
                };
                let e = Event { at: t, kind };
                heap.push(e);
                indexed.push(e);
            }
            loop {
                let (a, b) = (heap.pop(), indexed.pop());
                assert_eq!(a, b, "queues diverged ({servers} servers)");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

/// `clear` must leave the wheel indistinguishable from a fresh queue.
#[test]
fn cleared_wheel_behaves_like_new() {
    let mut rng = Rng(0x51ab_0005);
    let mut wheel = EventQueue::new();
    for round in 0..200 {
        let mut oracle = BinaryHeapEventQueue::new();
        wheel.clear();
        for _ in 0..20 {
            let event = Event {
                at: rng.time(),
                kind: rng.kind(4),
            };
            wheel.push(event);
            oracle.push(event);
        }
        assert_drain_matches(&mut wheel, &mut oracle, round);
    }
}
