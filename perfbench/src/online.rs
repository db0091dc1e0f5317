//! `online`: one open-loop lane on one thread — an SPC byte stream
//! parsed, shaped by Miser through `OnlineShaper::run_longterm`, and
//! retained in a `LongTermStore`.
//!
//! Saturated passes pull straight from an `SpcStream` over the bytes. The
//! fixed-rate passes' source is [`Paced`], the benchmark's own
//! `ArrivalStream` around an `SpcStream`: it hands the shaper every
//! request that is due on its virtual clock, with trace time compressed
//! so the trace's busiest window arrives at a fixed absolute rate
//! ([`peak_rate`]), and the trace's bursts reach the shaper as bursts.
//! Each request is timed from when it was due until the chunk carrying it
//! was parsed, shaped and drained (the shaper pulls the next chunk only
//! after draining the last one).

use std::collections::VecDeque;
use std::time::Instant;

use gqos_core::{CapacityPlanner, MiserScheduler, Provision, RecombinePolicy, WorkloadShaper};
use gqos_obs::{LatencySketch, LongTermStore, RetentionConfig};
use gqos_parallel::WorkerPool;
use gqos_sim::{FixedRateServer, StreamingSimulation};
use gqos_stream::{ArrivalStream, OnlineShaper, SpcStream, StreamError, DEFAULT_CHUNK};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{spc, Request, SimDuration, SimTime, Workload};

use crate::control::{ColdPacks, Fleet};
use crate::layers::{TimedScheduler, TimedServer, TimedSource, SOURCE};
use crate::report::{percentile, secs, summarize, Outcome};
use crate::{repeat_for, span, Args, LayerMetrics, ROUNDS, SEGMENT_S};

/// Response-time deadline the lane is provisioned for.
const DEADLINE_MS: u64 = 50;
/// Fraction of requests the provision guarantees within the deadline.
const FRACTION: f64 = 0.90;
/// The `pack_s` tenant set: tenants, trace span (s), and requests per
/// tenant per minute of span.
const PACK_TENANTS: usize = 24;
const PACK_SPAN_S: u64 = 60;
const PACK_REQUESTS: usize = 5_000;
/// Records the paced source parses at a time from the SPC bytes, as an
/// ingest path parses what has arrived. A request due while a batch is
/// parsed waits for it, so a large batch sets the tail: 256 records take
/// ~100 µs to parse, the ~1% of requests caught by such a parse set the
/// p99, and it doubled or halved with the seed. At 16 the p99 is a short
/// parse plus the shaping.
const PARSE_BATCH: usize = 16;
/// Offered rate of the fixed-rate open loop: the trace's busiest 100 ms
/// window ([`peak_rate`]) arrives at this many requests per second, under
/// half the saturated throughput of a slow 2-vCPU host (~1.1M req/s).
const FIXED_RATE: f64 = 500_000.0;
/// The lane's retention key.
const TENANT: &str = "online";

/// Setup products: the SPC bytes and the provisioned shaper.
pub struct Input {
    bytes: Vec<u8>,
    requests: usize,
    /// The trace's peak rate ([`peak_rate`]), requests per trace second.
    peak_rate: f64,
    shaper: OnlineShaper,
}

/// Generates the OpenMail trace, renders it to SPC, provisions the lane.
///
/// The trace is a run of `SEGMENT_S`-second OpenMail segments (seeds
/// derived from the run's), spliced 1 ms apart and cut at a fixed request
/// count. A fixed count gives every seed the same work; short segments
/// give every run many independent draws of the profile's plateaus and
/// spikes, where one long trace holds only a few multi-minute plateaus and
/// its mean-to-peak ratio, generation time and memory varied by a factor
/// of two from seed to seed.
fn setup(args: &Args) -> Input {
    let requests = if args.tiny { 10_000 } else { 150_000 };
    let workload = span::time("trace.gen", || {
        let mut w = Workload::new();
        for j in 0u64.. {
            if w.len() >= requests {
                break;
            }
            let segment = TraceProfile::OpenMail.generate(
                SimDuration::from_secs(SEGMENT_S),
                args.seed.wrapping_mul(1_000_003).wrapping_add(j),
            );
            w = w.concat(&segment, SimDuration::from_millis(1));
        }
        w.truncated(requests)
    });
    let mut bytes = Vec::new();
    span::time("trace.render", || {
        spc::write_trace(&workload, &mut bytes).expect("writing to memory cannot fail")
    });
    let deadline = SimDuration::from_millis(DEADLINE_MS);
    let cmin = span::time("core.planner.min_capacity", || {
        CapacityPlanner::new(&workload, deadline).min_capacity(FRACTION)
    });
    Input {
        requests: workload.len(),
        peak_rate: peak_rate(&workload),
        bytes,
        shaper: OnlineShaper::new(Provision::with_default_surplus(cmin, deadline), deadline),
    }
}

/// The arrival rate of a trace's busiest 100 ms window, in requests per
/// trace second.
///
/// The open loop anchors its time compression here rather than at the
/// mean or at a high quantile of the windows: with the busiest window
/// offered at [`FIXED_RATE`], no stretch of the trace outruns the shaper
/// even on a slow host, so the latencies measure the program rather than
/// a backlog. The trace's bursts inside each window still reach the
/// shaper as bursts.
fn peak_rate(workload: &Workload) -> f64 {
    let mut windows = std::collections::BTreeMap::<u64, u64>::new();
    for r in workload.iter() {
        *windows
            .entry(r.arrival.as_nanos() / 100_000_000)
            .or_default() += 1;
    }
    windows.into_values().max().unwrap_or(1) as f64 * 10.0
}

/// The open-loop source: releases due requests, never early, on a
/// virtual clock. The clock is the wall clock plus the idle gaps skipped
/// over: when no request is due, the clock jumps to the next due instant
/// instead of waiting for it. Latencies thus count every nanosecond the
/// program spends parsing, shaping and draining, and none spent idle,
/// where a spinning or sleeping source measured how the host scheduled
/// an idle thread.
struct Paced<A> {
    inner: A,
    parsed: Vec<Request>,
    pending: VecDeque<Request>,
    inner_done: bool,
    start: Instant,
    /// Idle nanoseconds the clock has jumped over.
    skipped: u64,
    /// Virtual nanoseconds per trace nanosecond.
    scale: f64,
    /// Due instants (virtual ns) of the chunk last handed out.
    in_flight: Vec<u64>,
    latencies: Vec<u64>,
    /// Wall ns of each call spent in the source itself, outside the
    /// inner stream's parse.
    own: Vec<u64>,
}

impl<A: ArrivalStream> Paced<A> {
    /// `scale` is virtual nanoseconds per trace nanosecond; the clock
    /// starts now. `buffers` (latencies, own times) are cleared and
    /// reused, so passes do not each grow their own.
    fn new(inner: A, scale: f64, (mut latencies, mut own): Buffers) -> Self {
        latencies.clear();
        own.clear();
        Paced {
            inner,
            parsed: Vec::new(),
            pending: VecDeque::new(),
            inner_done: false,
            start: Instant::now(),
            skipped: 0,
            scale,
            in_flight: Vec::new(),
            latencies,
            own,
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64 + self.skipped
    }

    /// Closes the latencies of the chunk handed out last.
    fn settle(&mut self) {
        if self.in_flight.is_empty() {
            return;
        }
        let now = self.now_ns();
        self.latencies
            .extend(self.in_flight.drain(..).map(|due| now.saturating_sub(due)));
    }

    /// Tops up `pending` from the inner stream; returns whether a request
    /// is pending and adds the parse's wall ns to `parse_ns`.
    fn refill(&mut self, parse_ns: &mut u64) -> Result<bool, StreamError> {
        if self.pending.is_empty() && !self.inner_done {
            let t = Instant::now();
            if self.inner.next_chunk(&mut self.parsed)? == 0 {
                self.inner_done = true;
            }
            *parse_ns += t.elapsed().as_nanos() as u64;
            self.pending.extend(self.parsed.drain(..));
        }
        Ok(!self.pending.is_empty())
    }
}

impl<A: ArrivalStream> ArrivalStream for Paced<A> {
    fn chunk_capacity(&self) -> usize {
        DEFAULT_CHUNK
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
        let entered = Instant::now();
        let mut parse_ns = 0;
        buf.clear();
        self.settle();
        if !self.refill(&mut parse_ns)? {
            return Ok(0);
        }
        let scale = self.scale;
        let due = |r: &Request| (r.arrival.as_nanos() as f64 * scale) as u64;
        let mut now = self.now_ns();
        let first_due = due(&self.pending[0]);
        if first_due > now {
            self.skipped += first_due - now;
            now = first_due;
        }
        while buf.len() < DEFAULT_CHUNK && self.refill(&mut parse_ns)? {
            let d = due(&self.pending[0]);
            if d > now {
                break;
            }
            buf.push(self.pending.pop_front().expect("refilled above"));
            self.in_flight.push(d);
        }
        self.own
            .push((entered.elapsed().as_nanos() as u64).saturating_sub(parse_ns));
        Ok(buf.len())
    }
}

/// A paced pass's latency and own-time buffers.
type Buffers = (Vec<u64>, Vec<u64>);

/// One pass over the SPC bytes.
struct Pass {
    sketch: LatencySketch,
    cumulative: Option<LatencySketch>,
    primary: u64,
    chunks: usize,
    peak_resident: usize,
    resident_sketches: usize,
    /// Wall seconds of a saturated pass; 0 on a paced one.
    wall_s: f64,
    /// Due-to-drained latencies, ascending (ns); empty when saturated.
    latencies: Vec<u64>,
    /// The paced source's own ns per call; empty when saturated.
    own: Vec<u64>,
}

impl Pass {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies, q) as f64 / 1e3
    }
}

/// `source` through `run_longterm` into `store`.
fn shape<A: ArrivalStream>(
    input: &Input,
    source: &mut A,
    store: &mut LongTermStore<String>,
) -> Pass {
    let obs = input
        .shaper
        .run_longterm(source, RecombinePolicy::Miser, TENANT, store)
        .expect("rendered SPC bytes parse");
    Pass {
        primary: obs.primary.count(),
        chunks: obs.chunks,
        peak_resident: obs.peak_resident_records,
        resident_sketches: store.resident_sketches(),
        cumulative: store.cumulative(&TENANT.to_string()).cloned(),
        sketch: obs.sketch,
        wall_s: 0.0,
        latencies: Vec::new(),
        own: Vec::new(),
    }
}

/// A saturated pass: the shaper pulls straight from an `SpcStream` over
/// the bytes, so the source never waits.
fn saturated(input: &Input) -> (Pass, LongTermStore<String>) {
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    let mut source = SpcStream::new(&input.bytes[..], DEFAULT_CHUNK);
    let start = Instant::now();
    let mut pass = shape(input, &mut source, &mut store);
    pass.wall_s = secs(start);
    (pass, store)
}

/// A paced pass: the trace's busiest window offered at `rate` requests
/// per second, its samples kept in `buffers`.
fn paced(input: &Input, rate: f64, buffers: Buffers) -> Pass {
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    let scale = input.peak_rate / rate;
    let source = SpcStream::new(&input.bytes[..], PARSE_BATCH);
    let mut source = Paced::new(source, scale, buffers);
    let mut pass = shape(input, &mut source, &mut store);
    source.settle();
    pass.latencies = source.latencies;
    pass.latencies.sort_unstable();
    pass.own = source.own;
    pass.own.sort_unstable();
    pass
}

/// The reference sketch: the offline shaper over the parsed bytes.
fn reference(input: &Input, corrupt: bool) -> LatencySketch {
    let parsed = spc::read_trace(&input.bytes[..]).expect("rendered SPC bytes parse");
    let offline = WorkloadShaper::new(input.shaper.provision(), input.shaper.deadline());
    let mut sketch = offline
        .run(&parsed, RecombinePolicy::Miser)
        .response_sketch();
    if corrupt {
        sketch.record(1);
    }
    sketch
}

/// The output checks, tallied pass by pass as each pass ends (outside
/// its timed region), so no pass's outputs outlive it: every pass's
/// sketch against the reference and its store's cumulative sketch, its
/// Q1 count against the first pass's, and a saturated pass's chunk,
/// resident-record and retained-sketch counts against the first
/// saturated pass's.
struct Tally {
    reference: LatencySketch,
    passes: u64,
    differ: u64,
    uncumulated: u64,
    primary: Option<u64>,
    other_primary: u64,
    counts: Option<(usize, usize, usize)>,
    other_counts: u64,
}

impl Tally {
    fn new(reference: LatencySketch) -> Self {
        Tally {
            reference,
            passes: 0,
            differ: 0,
            uncumulated: 0,
            primary: None,
            other_primary: 0,
            counts: None,
            other_counts: 0,
        }
    }

    fn add(&mut self, p: &Pass, saturated: bool) {
        self.passes += 1;
        self.differ += u64::from(p.sketch != self.reference);
        self.uncumulated += u64::from(p.cumulative.as_ref() != Some(&p.sketch));
        self.other_primary += u64::from(*self.primary.get_or_insert(p.primary) != p.primary);
        if saturated {
            let counts = (p.chunks, p.peak_resident, p.resident_sketches);
            self.other_counts += u64::from(*self.counts.get_or_insert(counts) != counts);
        }
    }

    /// The checks, each failing pass counting all `n` of its requests.
    fn report(&self, out: &mut Outcome, n: u64) {
        out.check(
            &format!(
                "{} of {} passes differ from the offline shaper over the parsed bytes",
                self.differ, self.passes
            ),
            self.differ * n,
            self.differ == 0,
        );
        out.check(
            &format!(
                "{} passes' store cumulative differs from their sketch",
                self.uncumulated
            ),
            self.uncumulated * n,
            self.uncumulated == 0,
        );
        out.check(
            &format!(
                "{} passes' Q1 count differs from the first pass's {}",
                self.other_primary,
                self.primary.unwrap_or(0)
            ),
            self.other_primary * n,
            self.other_primary == 0,
        );
        out.check(
            &format!(
                "{} saturated passes' chunk, resident-record or sketch counts differ from the first's",
                self.other_counts
            ),
            self.other_counts * n,
            self.other_counts == 0,
        );
    }
}

pub fn run(args: &Args) -> Outcome {
    let (input, setups) = crate::timed_setups(args, setup);
    let budget = args.seconds;
    let n = input.requests as u64;

    // The reference and the pack fleet are made before the measured
    // rounds, outside every timed region.
    let mut tally = Tally::new(reference(&input, args.corrupt));
    let packing = pack_fleet(args, input.shaper.deadline());
    let pool = WorkerPool::serial();
    let slice = budget / ROUNDS as f64;
    let mut throughputs = Vec::new();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut buffers = Buffers::default();
    let mut packs = ColdPacks::default();
    for _ in 0..ROUNDS {
        // Saturated: the source never waits. The store of each pass is
        // dropped outside its timed region.
        repeat_for(0.35 * slice, || {
            let pass = saturated(&input).0;
            throughputs.push(n as f64 / pass.wall_s);
            tally.add(&pass, true);
        });
        // Fixed offered rate. Medians of the per-pass quantiles: one pass
        // hit by a host stall moves a pooled p99 but not the median.
        repeat_for(0.4 * slice, || {
            let mut pass = paced(&input, FIXED_RATE, std::mem::take(&mut buffers));
            p50.push(pass.p(0.5));
            p99.push(pass.p(0.99));
            tally.add(&pass, false);
            buffers = (
                std::mem::take(&mut pass.latencies),
                std::mem::take(&mut pass.own),
            );
        });
        packs.run_for(&packing, &pool, 0.2 * slice);
    }
    let rss = crate::report::peak_rss_mb();

    let mut out = Outcome {
        attempted: n * tally.passes,
        ..Outcome::default()
    };
    tally.report(&mut out, n);

    out.sampled("setup_s", "s", &setups);
    out.sampled("throughput_rps", "req/s", &throughputs);
    out.sampled("latency_p50_us", "us", &p50);
    out.sampled("latency_p99_us", "us", &p99);
    out.check(
        "every cold pack placed every tenant, identically",
        1,
        packs.bad == 0,
    );
    out.sampled("pack_s", "s", &packs.samples);
    out.value("peak_rss_mb", "MB", rss);
    out
}

/// The `pack_s` fleet of this workload, packed on one thread like the
/// rest of the workload: OpenMail tenants made like the gateway's lanes
/// (spliced from short segments, thinned to one request count). Each
/// tenant averages several draws of the profile; with single segments as
/// tenants the pack time followed the seed.
fn pack_fleet(args: &Args, deadline: SimDuration) -> Fleet {
    let (count, span_s) = if args.tiny {
        (6, 10)
    } else {
        (PACK_TENANTS, PACK_SPAN_S)
    };
    let tenants = (0..count)
        .map(|i| {
            let seed = args.seed.wrapping_add(7919 * i as u64);
            let trace = crate::segmented(TraceProfile::OpenMail, span_s, seed);
            crate::equal_size(&trace, PACK_REQUESTS * span_s as usize / 60, seed)
        })
        .collect();
    crate::control::pack_fleet(tenants, deadline, FRACTION)
}

/// The replica lane: the shaper's Miser lane assembled from public parts
/// with timed scheduler, server and source, driven chunk by chunk like
/// the shaper and drained into a sketch and a store. With tracing off the
/// wrappers are no-ops, so the untraced and traced lanes run the same
/// code. Returns the sketch and the wall seconds.
fn replica(input: &Input) -> (LatencySketch, f64) {
    let key = TENANT.to_string();
    let p = input.shaper.provision();
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    let mut sketch = LatencySketch::new();
    let mut buf = Vec::new();
    let start = Instant::now();
    let mut sim = StreamingSimulation::new(TimedScheduler(MiserScheduler::new(
        p,
        input.shaper.deadline(),
    )))
    .server(TimedServer(FixedRateServer::new(p.total())));
    let mut source = TimedSource(SpcStream::new(&input.bytes[..], DEFAULT_CHUNK));
    let mut drain = |sim: &mut StreamingSimulation<_>| {
        let _g = span::enter("obs.drain");
        for r in sim.drain_completions() {
            let v = r.response_time().as_nanos();
            sketch.record(v);
            store.record(&key, r.completion, v).expect("ordered drains");
        }
    };
    while source
        .next_chunk(&mut buf)
        .expect("rendered SPC bytes parse")
        > 0
    {
        span::time("sim.offer", || {
            for &r in &buf {
                sim.offer(r);
            }
        });
        drain(&mut sim);
    }
    span::time("sim.finish", || sim.finish());
    drain(&mut sim);
    let wall = secs(start);
    (sketch, wall)
}

/// The traced run: untraced saturated passes, a traced shaper pass for
/// the source/shaper/sink split, the replica lane untraced and traced
/// for the scheduler/engine/service split and the accounting, and one
/// paced pass for the load generator's own delay.
pub fn traced(args: &Args, m: &mut LayerMetrics) -> (u64, u64) {
    span::enable();
    let input = setup(args);
    let n = input.requests as f64;
    m.set("trace.gen_s", span::agg("trace.gen").total_ns as f64 / 1e9);
    m.set("trace.spc_bytes", input.bytes.len() as f64);
    m.set(
        "core.planner.min_capacity_ms",
        span::agg("core.planner.min_capacity").total_ns as f64 / 1e6,
    );
    span::disable();

    let (base, base_store) = saturated(&input);
    let untraced: Vec<Pass> = (0..2).map(|_| saturated(&input).0).collect();

    // Traced shaper pass: source and sink spans around the real
    // run_longterm record path.
    span::enable();
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    let key = TENANT.to_string();
    let mut source = TimedSource(SpcStream::new(&input.bytes[..], DEFAULT_CHUNK));
    let obs = span::time("stream.run_longterm", || {
        input
            .shaper
            .run_observed(&mut source, RecombinePolicy::Miser, |r| {
                let _g = span::enter("obs.sink");
                store
                    .record(&key, r.completion, r.response_time().as_nanos())
                    .expect("completion-ordered drains cannot be out of order");
            })
            .expect("rendered SPC bytes parse")
    });
    let run = span::agg("stream.run_longterm");
    let source_ns = span::agg(SOURCE).total_ns;
    let sink_ns = span::agg("obs.sink").total_ns;
    m.set("trace.spc_parse_ns_per_req", source_ns as f64 / n);
    m.set("obs.sink_ns_per_req", sink_ns as f64 / n);
    m.set(
        "stream.shaper_self_ns_per_req",
        run.total_ns.saturating_sub(source_ns + sink_ns) as f64 / n,
    );
    span::disable();
    let mut failed = 0;
    if obs.sketch != base.sketch || store.cumulative(&key) != Some(&base.sketch) {
        failed += input.requests as u64;
    }

    // Replica lane: untraced, then traced; the overhead compares the two.
    let replicas: Vec<(LatencySketch, f64)> = (0..3).map(|_| replica(&input)).collect();
    let untraced_wall = summarize(&replicas.iter().map(|r| r.1).collect::<Vec<_>>()).median;
    span::enable();
    let (sketch, traced_wall) = replica(&input);
    span::disable();
    let replica_ok = sketch == base.sketch && replicas.iter().all(|r| r.0 == base.sketch);
    if !replica_ok {
        failed += input.requests as u64;
    }
    m.replica_split(n, replica_ok);
    m.accounting(traced_wall, untraced_wall);

    m.set("stream.chunks", base.chunks as f64);
    m.set("stream.peak_resident_records", base.peak_resident as f64);
    m.set(
        "core.rtt.q1_frac",
        base.primary as f64 / base.sketch.count().max(1) as f64,
    );
    m.set(
        "obs.longterm_resident_sketches",
        base.resident_sketches as f64,
    );
    m.set(
        "obs.query_us",
        query_us(&base_store, SimDuration::from_secs(60)),
    );
    let counts_repeat = untraced.iter().all(|u| {
        (u.chunks, u.primary, u.sketch.count()) == (base.chunks, base.primary, base.sketch.count())
    });
    if !counts_repeat {
        failed += input.requests as u64;
    }
    let paced_pass = paced(&input, FIXED_RATE, Buffers::default());
    m.set(
        "loadgen.late_p99_us",
        percentile(&paced_pass.own, 0.99) as f64 / 1e3,
    );
    (9 * input.requests as u64, failed)
}

/// Median µs of one `p99_over` plus one `heatmap` over the store's
/// whole span of data (as far as its cumulative sketches reach), at
/// `resolution`.
pub fn query_us<K: Ord + Clone>(store: &LongTermStore<K>, resolution: SimDuration) -> f64 {
    let Some(tenant) = store.tenants().next().cloned() else {
        return 0.0;
    };
    let end = SimTime::ZERO + SimDuration::from_nanos(resolution.as_nanos() * 48);
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let series = store.p99_over(&tenant, SimTime::ZERO, end, resolution);
            let map = store.heatmap(0.99, SimTime::ZERO, end, resolution);
            std::hint::black_box((series, map));
            secs(t) * 1e6
        })
        .collect();
    summarize(&samples).median
}
