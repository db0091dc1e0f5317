//! `gateway`: a batch of in-memory lanes through `IngestGateway::run` at
//! `nproc` workers, folded into per-window feedback, then a closed
//! feedback loop replaying those windows one at a time through an
//! `SloController` (with history) that drives a `ControlPlane` over a
//! `PerfectChannel`, each window also ingested into a `LongTermStore`.
//!
//! Lanes mix the WebSearch, FinTrans and OpenMail profiles, all four
//! recombination policies, and bounded and unbounded inboxes. No SPC is
//! parsed: the engine and scheduler code runs as many short, unequal
//! lanes, and retention is fed per window snapshot instead of per record.

use std::time::Instant;

use gqos_control::{
    CommandBody, ControlDriver, ControlPlane, ControlRequest, PerfectChannel, RetryPolicy,
    SloConfig, SloController, SloTarget,
};
use gqos_core::{
    CapacityPlanner, FleetPlacer, MiserScheduler, Provision, QosTarget, RecombinePolicy, TenantId,
};
use gqos_obs::{LatencySketch, LongTermStore, RetentionConfig, WindowSnapshot};
use gqos_parallel::WorkerPool;
use gqos_sim::{FixedRateServer, ServiceClass, StreamingSimulation};
use gqos_stream::{
    ArrivalStream, IngestGateway, OnlineShaper, ShedScheduler, TenantReport, TenantSpec,
    WorkloadStream, DEFAULT_CHUNK,
};
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration, SimTime};

use crate::control::{self, ColdPacks};
use crate::layers::{TimedScheduler, TimedServer};
use crate::report::{nproc, quantile_us, secs, summarize, Outcome};
use crate::{repeat_for, span, Args, LayerMetrics, ROUNDS};

const DEADLINE_MS: u64 = 50;
const FRACTION: f64 = 0.90;
/// Feedback window: one controller tick per window.
const WINDOW_MS: u64 = 50;
/// Inbox bound of the bounded lanes (requests queued before shedding).
const SHED_BOUND: usize = 16;
/// Requests per lane per minute of span, after thinning.
const LANE_REQUESTS: usize = 5_000;
/// Floor on a lane's SLO deadline (ms).
const MIN_SLO_MS: u64 = 5;
/// Simulated one-way latency of the control channel.
const CHANNEL_US: u64 = 100;
/// Command ids the controller issues start here, clear of the setup adds.
const CMD_BASE: u64 = 1 << 32;

/// Setup products: lane specs, their quotes, and the populated plane.
pub struct Input {
    lanes: Vec<TenantSpec>,
    quotes: Vec<u64>,
    plane: ControlPlane,
    requests: u64,
    seed: u64,
    /// Windows in the lanes' trace span: the windows the loop times.
    span_windows: usize,
}

fn sizes(args: &Args) -> (usize, u64) {
    if args.tiny {
        (6, 10)
    } else {
        (24, 60)
    }
}

fn setup(args: &Args) -> Input {
    let (count, span_s) = sizes(args);
    let deadline = SimDuration::from_millis(DEADLINE_MS);
    let mut lanes = Vec::with_capacity(count);
    let mut quotes = Vec::with_capacity(count);
    for i in 0..count {
        let profile = TraceProfile::ALL[i % 3];
        let policy = RecombinePolicy::ALL[(i / 3) % 4];
        let seed = args.seed.wrapping_add(7919 * i as u64);
        let workload = span::time("trace.gen", || {
            let full = crate::segmented(profile, span_s, seed);
            // Every lane is thinned to the same request count: a
            // renegotiation costs a quote over the lane's trace, and with
            // the profiles' unequal rates the step tail was set by how
            // often the seed made the heaviest lanes renegotiate.
            crate::equal_size(&full, LANE_REQUESTS * span_s as usize / 60, seed)
        });
        let cmin = span::time("core.planner.min_capacity", || {
            CapacityPlanner::new(&workload, deadline).min_capacity(FRACTION)
        });
        quotes.push(cmin.get().ceil() as u64);
        lanes.push(TenantSpec {
            name: format!("lane-{i:02}"),
            workload,
            shaper: OnlineShaper::new(Provision::with_default_surplus(cmin, deadline), deadline),
            policy,
            inbox_bound: if (i / 12) % 2 == 1 {
                SHED_BOUND
            } else {
                usize::MAX
            },
            chunk: DEFAULT_CHUNK,
        });
    }
    let servers = count.div_ceil(4);
    let capacity = control::server_capacity(&quotes, servers);
    let placer = FleetPlacer::new(
        QosTarget::new(FRACTION, deadline),
        Iops::new(capacity as f64),
    );
    let mut plane = ControlPlane::new(placer, servers, WorkerPool::new(nproc()))
        .expect("the gateway fleet has servers");
    for (i, lane) in lanes.iter().enumerate() {
        let add = ControlRequest::new(
            i as u64 + 1,
            CommandBody::AddTenant {
                tenant: TenantId::new(i),
                workload: lane.workload.clone(),
            },
        );
        let response = span::time("control.apply.add_tenant", || {
            plane.apply(&add, SimTime::ZERO)
        });
        assert!(response.outcome.is_ok(), "setup add rejected: {response:?}");
    }
    Input {
        requests: lanes.iter().map(|l| l.workload.len() as u64).sum(),
        lanes,
        quotes,
        plane,
        seed: args.seed,
        span_windows: (span_s * 1000 / WINDOW_MS) as usize,
    }
}

fn window() -> SimDuration {
    SimDuration::from_millis(WINDOW_MS)
}

/// One batch: every lane through the gateway, then every lane's window
/// fold, both on `workers` threads. Returns the reports, the folds and
/// the wall seconds of the two together.
fn batch(input: &Input, workers: usize) -> (Vec<TenantReport>, Vec<Vec<WindowSnapshot>>, f64) {
    let specs = input.lanes.clone();
    let pool = WorkerPool::new(workers);
    let gateway = IngestGateway::new(pool);
    let start = Instant::now();
    let reports = gateway.run(specs);
    let folds = pool.map(reports.iter().collect(), |r| r.window_feedback(window()));
    let wall = secs(start);
    (reports, folds, wall)
}

/// Each lane's SLO: 90% within the median, over the lane's non-empty
/// windows of its first `span_windows`, of the window's own p90 latency
/// (at least `MIN_SLO_MS`). About half of every lane's windows then miss,
/// so every lane renegotiates often on every seed and a step's cost is
/// mostly that of a renegotiation. With one absolute deadline, or one
/// anchored at the lane's whole-run p90, how many and which lanes
/// renegotiated followed the seed, and so did the step tail.
fn lane_slos(folds: &[Vec<WindowSnapshot>], span_windows: usize) -> Vec<SloTarget> {
    folds
        .iter()
        .map(|fold| {
            let mut p90s: Vec<u64> = fold
                .iter()
                .take(span_windows)
                .filter_map(|s| s.signal().map(|sk| sk.quantile(0.9)))
                .collect();
            p90s.sort_unstable();
            let median = p90s.get(p90s.len() / 2).copied().unwrap_or(0);
            let deadline = SimDuration::from_nanos(median);
            SloTarget::new(deadline.max(SimDuration::from_millis(MIN_SLO_MS)), 900_000)
        })
        .collect()
}

/// One feedback pass's results.
struct Feedback {
    /// One tenant's step: its snapshot through the controller and
    /// `drive_window`, then into the store.
    steps_ns: Vec<u64>,
    /// One window: every live tenant's step.
    ticks_ns: Vec<u64>,
    commands: u64,
    attempts: u64,
    expired: u64,
    resident_sketches: usize,
    wall_s: f64,
}

/// Replays the folds window by window over the lanes' trace span; within
/// a window, each tenant's snapshot is one timed step through the
/// controller and `drive_window` (one observation at a time, in tenant
/// order, which issues the same commands as one batched round) and into
/// the store. Windows after the span (lanes still draining a backlog)
/// are retained untimed at the end, so the store still sees every
/// snapshot. With `split`, `drive_window` is opened up into its public
/// steps so each can be a span; the traced run times this path with
/// tracing on and off.
fn feedback(
    input: &Input,
    folds: &[Vec<WindowSnapshot>],
    slos: &[SloTarget],
    split: bool,
) -> (Feedback, LongTermStore<String>) {
    let mut plane = input.plane.clone();
    let mut controller = SloController::new(SloConfig::new(plane.fleet_capacity()), CMD_BASE)
        .with_history(RetentionConfig::default_tiers());
    for (i, (&quote, &slo)) in input.quotes.iter().zip(slos).enumerate() {
        let id = TenantId::new(i);
        controller.register(id, slo, quote, plane.epoch_of(id).expect("added at setup"));
    }
    let rtt = SimDuration::from_micros(2 * CHANNEL_US);
    let channel = PerfectChannel::new(SimDuration::from_micros(CHANNEL_US));
    let policy = RetryPolicy::new(input.seed)
        .with_base(rtt + SimDuration::from_millis(1))
        .with_cap(rtt + SimDuration::from_millis(50));
    let driver = ControlDriver::new(&channel, policy);
    let mut store = LongTermStore::new(RetentionConfig::default_tiers());
    let windows = input.span_windows;
    let mut out = Feedback {
        steps_ns: Vec::new(),
        ticks_ns: Vec::with_capacity(windows),
        commands: 0,
        attempts: 0,
        expired: 0,
        resident_sketches: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    for k in 0..windows {
        let at = SimTime::ZERO + SimDuration::from_nanos(window().as_nanos() * (k as u64 + 1));
        let tick = Instant::now();
        for (i, fold) in folds.iter().enumerate() {
            let Some(s) = fold.get(k) else {
                continue;
            };
            let id = TenantId::new(i);
            let t = Instant::now();
            span::time("control.ingest_window", || {
                controller.ingest_window(id, s.start(), s.sketch())
            });
            let (outcomes, stats) = if split {
                let request = span::time("control.slo_observe", || {
                    controller.observe(id, s.signal(), false)
                });
                let commands: Vec<(SimTime, ControlRequest)> =
                    request.into_iter().map(|r| (at, r)).collect();
                let (outcomes, stats) =
                    span::time("control.driver_run", || driver.run(&mut plane, &commands));
                span::time("control.absorb", || {
                    for outcome in &outcomes {
                        controller.absorb(outcome);
                    }
                });
                (outcomes, stats)
            } else {
                controller.drive_window(&mut plane, &driver, at, &[(id, s.signal(), false)])
            };
            span::time("obs.longterm_ingest", || {
                store
                    .ingest_snapshot(&input.lanes[i].name, s)
                    .expect("window feedback snapshots are time-ordered")
            });
            out.steps_ns.push(t.elapsed().as_nanos() as u64);
            out.commands += outcomes.len() as u64;
            out.attempts += stats.attempts;
            out.expired += stats.expired;
        }
        out.ticks_ns.push(tick.elapsed().as_nanos() as u64);
    }
    out.wall_s = secs(start);
    for (i, fold) in folds.iter().enumerate() {
        for s in fold.iter().skip(windows) {
            controller.ingest_window(TenantId::new(i), s.start(), s.sketch());
            store
                .ingest_snapshot(&input.lanes[i].name, s)
                .expect("window feedback snapshots are time-ordered");
        }
    }
    out.resident_sketches = store.resident_sketches();
    (out, store)
}

pub fn run(args: &Args) -> Outcome {
    let (input, setups) = crate::timed_setups(args, setup);
    let budget = args.seconds;
    let workers = nproc();

    // The packs run on one thread: at nproc workers a pack of the 24
    // lanes (~8 ms) gained ~10%, and its time followed how the host
    // scheduled the pool's threads.
    let packing = control::pack_fleet(
        input.lanes.iter().map(|l| l.workload.clone()).collect(),
        SimDuration::from_millis(DEADLINE_MS),
        FRACTION,
    );
    let serial = WorkerPool::serial();
    let lane_counts = |rs: &[TenantReport]| -> Vec<(usize, usize, u64)> {
        rs.iter()
            .map(|r| (r.completed, r.shed, r.sketch.count()))
            .collect()
    };
    let slice = budget / ROUNDS as f64;
    let mut packs = ColdPacks::default();
    let mut throughputs = Vec::new();
    let mut shape = None;
    let mut batch_counts_repeat = true;
    let mut last = None;
    // The lane sketches (one perturbed under `--corrupt`) and SLOs, from
    // the first batch; batches repeat, which the counts check.
    let mut lanes_ref: Option<(Vec<LatencySketch>, Vec<SloTarget>)> = None;
    let mut passes = Vec::new();
    let mut retained = true;
    for _ in 0..ROUNDS {
        // Only the first batch's per-lane counts and the last batch's
        // outputs are kept, so memory stays that of one batch; it is
        // dropped before the packs, which ran steadier on a small heap.
        drop(last.take());
        packs.run_for(&packing, &serial, 0.15 * slice);
        repeat_for(0.35 * slice, || {
            drop(last.take());
            let (reports, folds, wall) = batch(&input, workers);
            throughputs.push(input.requests as f64 / wall);
            let counts = lane_counts(&reports);
            batch_counts_repeat &= *shape.get_or_insert_with(|| counts.clone()) == counts;
            last = Some((reports, folds));
        });
        let (reports, folds) = last.as_ref().expect("at least one batch");
        let (references, slos) = lanes_ref.get_or_insert_with(|| {
            let references = reports
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let mut s = r.sketch.clone();
                    if args.corrupt && i == 0 {
                        s.record(1);
                    }
                    s
                })
                .collect();
            (references, lane_slos(folds, input.span_windows))
        });

        // Each pass's store is checked against the lane sketches and
        // then dropped, between passes and outside every timed tick.
        repeat_for(0.4 * slice, || {
            let (pass, store) = feedback(&input, folds, slos, false);
            retained &= reports
                .iter()
                .zip(references.iter())
                .all(|(r, reference)| store.cumulative(&r.name) == Some(reference));
            passes.push(pass);
        });
    }
    let (reports, folds) = last.expect("at least one batch");
    let references = lanes_ref.expect("at least one round").0;
    let rss = crate::report::peak_rss_mb();

    // Output checks, outside every timed region.
    let mut out = Outcome::default();
    let windows = passes[0].ticks_ns.len() as u64;
    let batch_ops = input.requests * throughputs.len() as u64;
    let step_ops: u64 = passes.iter().map(|p| p.steps_ns.len() as u64).sum();
    out.attempted = batch_ops + step_ops;
    let all = out.attempted;
    out.check(
        "batch passes repeat per-lane completed/shed/count",
        all,
        batch_counts_repeat,
    );
    out.check(
        "every cold pack placed every lane, identically",
        all,
        packs.bad == 0,
    );
    let lossless = folds.iter().zip(&references).all(|(fold, reference)| {
        let mut merged = LatencySketch::new();
        for s in fold {
            merged.merge(s.sketch());
        }
        merged == *reference
    });
    out.check(
        "every lane's sketch == merge of its window feedback",
        all,
        lossless,
    );
    out.check(
        "every lane's sketch == the store's cumulative sketch",
        all,
        retained,
    );
    let (serial, _, _) = batch(&input, 1);
    out.check(
        &format!("reports at {workers} workers == reports at 1 worker"),
        all,
        serial == reports,
    );
    let first = &passes[0];
    out.check(
        &format!(
            "{windows} windows (>= 1000 unless tiny); every pass issues {} commands, none expired",
            first.commands
        ),
        all,
        (windows >= 1000 || args.tiny)
            && passes.iter().all(|p| {
                p.commands == first.commands
                    && p.expired == 0
                    && p.ticks_ns.len() == first.ticks_ns.len()
            })
            && passes
                .iter()
                .all(|p| p.resident_sketches == first.resident_sketches),
    );

    out.sampled("setup_s", "s", &setups);
    out.sampled("throughput_rps", "req/s", &throughputs);
    let steps: Vec<&[u64]> = passes.iter().map(|p| &p.steps_ns[..]).collect();
    out.latency("latency_p50_us", 0.5, &steps);
    out.latency("latency_p99_us", 0.99, &steps);
    out.sampled("pack_s", "s", &packs.samples);
    out.value("peak_rss_mb", "MB", rss);
    let ticks: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.ticks_ns.iter().copied())
        .collect();
    out.checks.push(format!(
        "whole-window ticks: {} over {} passes, p50 {:.1} us, p99 {:.1} us",
        ticks.len(),
        passes.len(),
        quantile_us(&ticks, 0.5),
        quantile_us(&ticks, 0.99)
    ));
    out
}

/// The traced run: batch and feedback passes with spans, the parallel
/// lane split, and a replica of every Miser lane for the
/// scheduler/engine/service split.
pub fn traced(args: &Args, m: &mut LayerMetrics) -> (u64, u64) {
    span::enable();
    let input = setup(args);
    let gen = span::agg("trace.gen");
    m.set("trace.gen_s", gen.total_ns as f64 / 1e9);
    let plan = span::agg("core.planner.min_capacity");
    m.set(
        "core.planner.min_capacity_ms",
        plan.total_ns as f64 / 1e6 / plan.count.max(1) as f64,
    );
    let add = span::agg("control.apply.add_tenant");
    m.set(
        "control.apply_us.add_tenant",
        add.total_ns as f64 / 1e3 / add.count.max(1) as f64,
    );
    span::disable();
    let mut failed = 0;
    let all = input.requests;
    let workers = nproc();

    // Batch: the gateway wall, then each lane alone for the parallel
    // efficiency and skew, and each lane's fold timed on its own.
    let (reports, folds, _) = batch(&input, workers);
    span::enable();
    let lane_s: Vec<f64> = input
        .lanes
        .iter()
        .map(|lane| {
            let spec = vec![lane.clone()];
            let t = Instant::now();
            let _ = IngestGateway::new(WorkerPool::serial()).run(spec);
            secs(t)
        })
        .collect();
    for r in &reports {
        let _ = span::time("obs.window_fold", || r.window_feedback(window()));
    }
    let fold = span::agg("obs.window_fold");
    m.set(
        "obs.window_fold_us",
        fold.total_ns as f64 / 1e3 / fold.count.max(1) as f64,
    );
    span::disable();
    let gateway_run = {
        let specs = input.lanes.clone();
        let t = Instant::now();
        let _ = IngestGateway::new(WorkerPool::new(workers)).run(specs);
        secs(t)
    };
    m.set("stream.gateway_run_s", gateway_run);
    let lane_sum: f64 = lane_s.iter().sum();
    m.set(
        "parallel.efficiency",
        lane_sum / (gateway_run * workers as f64),
    );
    let mean = lane_sum / lane_s.len().max(1) as f64;
    m.set(
        "parallel.lane_skew",
        lane_s.iter().copied().fold(0.0, f64::max) / mean.max(1e-12),
    );
    let offered: usize = reports.iter().map(|r| r.offered).sum();
    let shed: usize = reports.iter().map(|r| r.shed).sum();
    m.set("stream.shed_frac", shed as f64 / offered.max(1) as f64);
    m.set(
        "stream.chunks",
        reports
            .iter()
            .map(|r| r.offered.div_ceil(DEFAULT_CHUNK))
            .sum::<usize>() as f64,
    );
    let primary = reports
        .iter()
        .flat_map(|r| &r.records)
        .filter(|c| c.class == ServiceClass::PRIMARY)
        .count();
    let completed: usize = reports.iter().map(|r| r.completed).sum();
    m.set("core.rtt.q1_frac", primary as f64 / completed.max(1) as f64);

    // Replica of every Miser lane, checked against its gateway report.
    span::enable();
    let mut replica_reqs = 0.0;
    let mut replica_ok = true;
    for (lane, report) in input.lanes.iter().zip(&reports) {
        if lane.policy != RecombinePolicy::Miser {
            continue;
        }
        replica_reqs += lane.workload.len() as f64;
        let p = lane.shaper.provision();
        let sched = ShedScheduler::new(
            TimedScheduler(MiserScheduler::new(p, lane.shaper.deadline())),
            lane.inbox_bound,
        );
        let mut sim =
            StreamingSimulation::new(sched).server(TimedServer(FixedRateServer::new(p.total())));
        let mut stream = WorkloadStream::new(lane.workload.clone(), lane.chunk);
        let mut buf = Vec::new();
        while stream
            .next_chunk(&mut buf)
            .expect("workload streams cannot fail")
            > 0
        {
            span::time("sim.offer", || {
                for &r in &buf {
                    sim.offer(r);
                }
            });
        }
        span::time("sim.finish", || sim.finish());
        let shed = sim.scheduler().shed_count();
        let replica = sim.into_report();
        replica_ok &= replica.response_sketch() == report.sketch && shed == report.shed;
    }
    span::disable();
    if !replica_ok {
        failed += all;
    }
    m.replica_split(replica_reqs, replica_ok);

    // Feedback: one `drive_window` pass, then the split path untraced
    // and traced over the same folds; the overhead compares the last two.
    let slos = lane_slos(&folds, input.span_windows);
    let (base, store) = feedback(&input, &folds, &slos, false);
    let untraced: Vec<Feedback> = (0..3)
        .map(|_| feedback(&input, &folds, &slos, true).0)
        .collect();
    let untraced_wall = summarize(&untraced.iter().map(|f| f.wall_s).collect::<Vec<_>>()).median;
    span::enable();
    let (traced, _) = feedback(&input, &folds, &slos, true);
    span::disable();
    if std::iter::once(&traced)
        .chain(&untraced)
        .any(|f| (f.commands, f.resident_sketches) != (base.commands, base.resident_sketches))
    {
        failed += all;
    }
    m.set("control.commands_issued", base.commands as f64);
    m.set(
        "control.driver_attempts_per_cmd",
        base.attempts as f64 / base.commands.max(1) as f64,
    );
    let observe = span::agg("control.slo_observe");
    m.set(
        "control.slo_observe_ns",
        observe.total_ns as f64 / observe.count.max(1) as f64,
    );
    let driver = span::agg("control.driver_run");
    m.set(
        "control.apply_us.update_sla",
        driver.total_ns as f64 / 1e3 / base.commands.max(1) as f64,
    );
    let ingest = span::agg("obs.longterm_ingest");
    m.set(
        "obs.longterm_ingest_ns",
        ingest.total_ns as f64 / ingest.count.max(1) as f64,
    );
    m.set(
        "obs.longterm_resident_sketches",
        base.resident_sketches as f64,
    );
    m.set(
        "obs.query_us",
        crate::online::query_us(&store, SimDuration::from_secs(1)),
    );
    m.accounting(traced.wall_s, untraced_wall);
    (all, failed)
}
