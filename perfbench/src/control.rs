//! `control`: one operator client in a closed loop. Cold bulk
//! `FleetPlacer::pack`s of the tenant set alternate with passes of a
//! seeded script of commands to a `ControlPlane`, each applied before the
//! next:
//! `AddTenant`, `UpdateSla`, `DrainTenant`, `RemoveTenant`, a few
//! `NodeDown`/`NodeUp` pairs, and deliberately stale or unknown-tenant
//! commands whose typed rejections the script expects.
//!
//! The planner, the grid kernel, the quote cache's cold and hit paths and
//! bin-side requotes do the work; the simulation engine and sketches do
//! none.

use std::collections::BTreeMap;
use std::time::Instant;

use gqos_control::{CommandBody, ControlError, ControlPlane, ControlRequest, ControlResponse};
use gqos_core::{
    CapacityPlanner, FleetPlacer, FleetTenant, PackStats, Placement, QosTarget, QuoteCache,
    TenantId,
};
use gqos_parallel::WorkerPool;
use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{Iops, SimDuration, SimTime, Workload};

use crate::report::{nproc, secs, summarize, Outcome};
use crate::{repeat_for, span, Args, LayerMetrics};

const DEADLINE_MS: u64 = 20;
const FRACTION: f64 = 0.95;
/// Per-server capacity headroom over the largest standalone quote.
const HEADROOM: f64 = 1.6;
/// Headroom over the mean per-server share of the summed quotes.
const AGG_HEADROOM: f64 = 1.25;
/// Rounds the run's phases are interleaved in (see [`crate::ROUNDS`]):
/// fewer than elsewhere, as a script pass takes ~3 s and each round runs
/// at least one.
const ROUNDS: usize = 2;
/// First command id of the script, clear of the setup adds.
const SCRIPT_BASE: u64 = 1 << 20;

/// Workload sizes: (tenants packed, trace span s, servers, residents at
/// the script's start, script commands).
fn sizes(args: &Args) -> (usize, u64, usize, usize, usize) {
    if args.tiny {
        (24, 5, 6, 8, 60)
    } else {
        (240, 30, 24, 80, 3000)
    }
}

/// Per-server capacity for a fleet whose standalone quotes are `quotes`:
/// any single tenant fits with room to consolidate, and `servers` bins
/// absorb the aggregate demand.
pub fn server_capacity(quotes: &[u64], servers: usize) -> u64 {
    let max_solo = quotes.iter().copied().max().unwrap_or(1) as f64;
    let per_server = quotes.iter().sum::<u64>() as f64 / servers.max(1) as f64;
    (max_solo * HEADROOM).max(per_server * AGG_HEADROOM).ceil() as u64
}

/// A fleet to pack: tenants, placer, server count.
pub struct Fleet {
    tenants: Vec<FleetTenant>,
    placer: FleetPlacer,
    servers: usize,
}

impl Fleet {
    fn new(workloads: Vec<Workload>, deadline: SimDuration, fraction: f64, servers: usize) -> Self {
        let quotes: Vec<u64> = workloads
            .iter()
            .map(|w| {
                span::time("core.planner.min_capacity", || {
                    CapacityPlanner::new(w, deadline)
                        .min_capacity(fraction)
                        .get()
                        .ceil() as u64
                })
            })
            .collect();
        let capacity = server_capacity(&quotes, servers);
        let tenants = workloads
            .into_iter()
            .enumerate()
            .map(|(i, w)| FleetTenant::new(TenantId::new(i), w))
            .collect();
        Fleet {
            tenants,
            placer: FleetPlacer::new(
                QosTarget::new(fraction, deadline),
                Iops::new(capacity as f64),
            ),
            servers,
        }
    }

    /// One cold-cache pack: wall seconds and the placement.
    fn pack(&self, pool: &WorkerPool) -> (f64, Placement) {
        let mut cache = QuoteCache::new(self.placer.target().deadline());
        let start = Instant::now();
        let placement = self
            .placer
            .pack(&self.tenants, self.servers, &mut cache, pool)
            .expect("the fleet has servers and one deadline");
        (secs(start), placement)
    }
}

/// Placement fingerprint: each tenant's server plus the pack counters.
type Fingerprint = (Vec<Option<usize>>, PackStats);

fn fingerprint(fleet: &Fleet, p: &Placement) -> Fingerprint {
    (
        fleet.tenants.iter().map(|t| p.server_of(t.id())).collect(),
        p.stats(),
    )
}

/// A fleet of `workloads` with a server for every four tenants, for
/// `pack_s` on the workloads whose tenant set is their lanes.
pub fn pack_fleet(workloads: Vec<Workload>, deadline: SimDuration, fraction: f64) -> Fleet {
    let servers = workloads.len().div_ceil(4);
    Fleet::new(workloads, deadline, fraction, servers)
}

/// `pack_s` samples: cold packs of one fleet, taken over one or more
/// stretches of a run. Each pack takes milliseconds, so they are spread
/// over seconds rather than counted: a fixed count fell inside one short
/// burst of host load.
#[derive(Default)]
pub struct ColdPacks {
    pub samples: Vec<f64>,
    /// The first pack's fingerprint; every later pack must repeat it.
    first: Option<Fingerprint>,
    /// Packs that left a tenant unplaced or placed differently.
    pub bad: u64,
}

impl ColdPacks {
    /// Packs `fleet` on `pool` again and again for `seconds`
    /// ([`repeat_for`]).
    pub fn run_for(&mut self, fleet: &Fleet, pool: &WorkerPool, seconds: f64) {
        repeat_for(seconds, || {
            let (s, placement) = fleet.pack(pool);
            self.samples.push(s);
            let fp = fingerprint(fleet, &placement);
            if !placement.unplaced().is_empty()
                || *self.first.get_or_insert_with(|| fp.clone()) != fp
            {
                self.bad += 1;
            }
        });
    }
}

/// What the script expects a command's response to be.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Expect {
    Ok,
    Stale,
    Unknown,
}

impl Expect {
    fn matches(self, response: &ControlResponse) -> bool {
        matches!(
            (self, &response.outcome),
            (Expect::Ok, Ok(_))
                | (Expect::Stale, Err(ControlError::StaleEpoch { .. }))
                | (Expect::Unknown, Err(ControlError::UnknownTenant { .. }))
        )
    }
}

/// SplitMix64: the script's seeded choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Kinds of scripted command besides the node events.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Kind {
    Add,
    Remove,
    Drain,
    Update,
    Stale,
    Unknown,
}

/// One block of the script's mix, shuffled per block by the seed, so
/// every seed issues the same number of each kind.
const BLOCK: [(Kind, usize); 6] = [
    (Kind::Add, 6),
    (Kind::Remove, 6),
    (Kind::Drain, 8),
    (Kind::Stale, 3),
    (Kind::Unknown, 1),
    (Kind::Update, 26),
];

/// Generates the command script from `seed`, tracking a shadow of the
/// residents and their epochs so every expected response is known.
fn script(
    seed: u64,
    tenants: &[FleetTenant],
    residents: usize,
    count: usize,
    servers: usize,
) -> Vec<(ControlRequest, Expect)> {
    let mut rng = Rng(seed ^ 0xC0A7_801A);
    let mut live: BTreeMap<usize, u64> = (0..residents).map(|i| (i, 0)).collect();
    let mut retired: BTreeMap<usize, u64> = BTreeMap::new();
    let mut out = Vec::with_capacity(count);
    let mut down: Option<(usize, usize)> = None;
    let node_events = [count / 5, 2 * count / 5, 3 * count / 5];
    let deadlines = [
        SimDuration::from_millis(DEADLINE_MS),
        SimDuration::from_millis(2 * DEADLINE_MS),
    ];
    let fractions = [0.90, 0.95, 0.99];
    let mut kinds: Vec<Kind> = Vec::new();
    let pick = |rng: &mut Rng, live: &BTreeMap<usize, u64>| {
        let i = rng.below(live.len());
        let (&t, &e) = live.iter().nth(i).expect("index below len");
        (t, e)
    };
    while out.len() < count {
        let id = SCRIPT_BASE + out.len() as u64;
        if let Some((node, up_at)) = down {
            if out.len() >= up_at {
                out.push((
                    ControlRequest::new(id, CommandBody::NodeUp { node }),
                    Expect::Ok,
                ));
                down = None;
                continue;
            }
        } else if node_events.contains(&out.len()) {
            let node = rng.below(servers);
            out.push((
                ControlRequest::new(id, CommandBody::NodeDown { node }),
                Expect::Ok,
            ));
            down = Some((node, out.len() + count / 10));
            continue;
        }
        if kinds.is_empty() {
            kinds = BLOCK
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.below(i + 1));
            }
        }
        let mut kind = kinds.pop().expect("refilled above");
        if (kind == Kind::Add && live.len() == tenants.len())
            || (kind == Kind::Remove && live.len() <= 1)
        {
            kind = Kind::Update;
        }
        let body_expect = if kind == Kind::Add {
            let free: Vec<usize> = (0..tenants.len())
                .filter(|t| !live.contains_key(t))
                .collect();
            let t = free[rng.below(free.len())];
            live.insert(t, retired.get(&t).map_or(0, |e| e + 1));
            (
                CommandBody::AddTenant {
                    tenant: TenantId::new(t),
                    workload: tenants[t].workload().clone(),
                },
                Expect::Ok,
            )
        } else if kind == Kind::Remove {
            let (t, e) = pick(&mut rng, &live);
            live.remove(&t);
            retired.insert(t, e);
            (
                CommandBody::RemoveTenant {
                    tenant: TenantId::new(t),
                    expect_epoch: e,
                },
                Expect::Ok,
            )
        } else if kind == Kind::Drain {
            let (t, e) = pick(&mut rng, &live);
            (
                CommandBody::DrainTenant {
                    tenant: TenantId::new(t),
                    expect_epoch: e,
                },
                Expect::Ok,
            )
        } else if kind == Kind::Stale {
            let (t, e) = pick(&mut rng, &live);
            (
                CommandBody::UpdateSla {
                    tenant: TenantId::new(t),
                    fraction: fractions[rng.below(3)],
                    deadline: deadlines[rng.below(2)],
                    expect_epoch: e + 1 + rng.below(5) as u64,
                    share: None,
                },
                Expect::Stale,
            )
        } else if kind == Kind::Unknown {
            let t = tenants.len() + rng.below(tenants.len());
            (
                CommandBody::RemoveTenant {
                    tenant: TenantId::new(t),
                    expect_epoch: 0,
                },
                Expect::Unknown,
            )
        } else {
            let (t, e) = pick(&mut rng, &live);
            live.insert(t, e + 1);
            (
                CommandBody::UpdateSla {
                    tenant: TenantId::new(t),
                    fraction: fractions[rng.below(3)],
                    deadline: deadlines[rng.below(2)],
                    expect_epoch: e,
                    share: None,
                },
                Expect::Ok,
            )
        };
        out.push((ControlRequest::new(id, body_expect.0), body_expect.1));
    }
    out
}

/// Setup products.
pub struct Input {
    fleet: Fleet,
    plane: ControlPlane,
    script: Vec<(ControlRequest, Expect)>,
}

fn setup(args: &Args) -> Input {
    let (count, span_s, servers, residents, commands) = sizes(args);
    let deadline = SimDuration::from_millis(DEADLINE_MS);
    let workloads: Vec<Workload> = (0..count)
        .map(|i| {
            span::time("trace.gen", || {
                crate::segmented(
                    TraceProfile::ALL[i % 3],
                    span_s,
                    args.seed.wrapping_add(7919 * i as u64),
                )
            })
        })
        .collect();
    let fleet = Fleet::new(workloads, deadline, FRACTION, servers);
    // The plane answers one client, so it places serially: fanning one
    // command's probes out to a pool costs more than the probes (see
    // `parallel.efficiency`) and adds scheduling jitter to every command.
    let mut plane = ControlPlane::new(fleet.placer, servers, WorkerPool::serial())
        .expect("the control fleet has servers");
    for t in &fleet.tenants[..residents] {
        let add = ControlRequest::new(
            t.id().index() as u64 + 1,
            CommandBody::AddTenant {
                tenant: t.id(),
                workload: t.workload().clone(),
            },
        );
        let response = span::time("control.apply.add_tenant", || {
            plane.apply(&add, SimTime::ZERO)
        });
        assert!(response.outcome.is_ok(), "setup add rejected: {response:?}");
    }
    let mut script = script(args.seed, &fleet.tenants, residents, commands, servers);
    if args.corrupt {
        // A wrong expectation, so the response check must catch it.
        let first_ok = script
            .iter_mut()
            .find(|(_, e)| *e == Expect::Ok)
            .expect("the script has commands expected to succeed");
        first_ok.1 = Expect::Stale;
    }
    Input {
        fleet,
        plane,
        script,
    }
}

/// One script pass on a fresh copy of the populated plane.
struct ScriptPass {
    latencies_ns: Vec<u64>,
    responses: Vec<ControlResponse>,
    plane: ControlPlane,
    wall_s: f64,
}

fn script_pass(input: &Input) -> ScriptPass {
    let mut plane = input.plane.clone();
    let mut latencies_ns = Vec::with_capacity(input.script.len());
    let mut responses = Vec::with_capacity(input.script.len());
    let start = Instant::now();
    for (i, (request, _)) in input.script.iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        let t = Instant::now();
        let _g = span::enter(apply_span(request.body.kind()));
        let response = plane.apply(request, now);
        drop(_g);
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        responses.push(response);
    }
    ScriptPass {
        latencies_ns,
        responses,
        plane,
        wall_s: secs(start),
    }
}

/// Span name of each `CommandBody::kind()`.
const APPLY_SPANS: [(&str, &str); 6] = [
    ("add_tenant", "control.apply.add_tenant"),
    ("remove_tenant", "control.apply.remove_tenant"),
    ("update_sla", "control.apply.update_sla"),
    ("drain_tenant", "control.apply.drain_tenant"),
    ("node_down", "control.apply.node_down"),
    ("node_up", "control.apply.node_up"),
];

fn apply_span(kind: &str) -> &'static str {
    APPLY_SPANS
        .iter()
        .find(|(k, _)| *k == kind)
        .map_or("control.apply.other", |&(_, s)| s)
}

pub fn run(args: &Args) -> Outcome {
    let (input, setups) = crate::timed_setups(args, setup);
    let budget = args.seconds;
    let pool = WorkerPool::new(nproc());

    // Each pack and script pass is checked as soon as it ends (outside
    // its timed region) and its placement or plane dropped, so memory
    // stays that of one pass.
    let tenants = input.fleet.tenants.len() as u64;
    let commands = input.script.len() as u64;
    let slice = budget / ROUNDS as f64;
    let mut packs = ColdPacks::default();
    let mut passes = Vec::new();
    let mut first_responses = None;
    let (mut mismatched, mut diverged, mut unconverged) = (0, 0, 0);
    for _ in 0..ROUNDS {
        packs.run_for(&input.fleet, &pool, 0.3 * slice);
        repeat_for(0.6 * slice, || {
            let mut pass = script_pass(&input);
            for ((_, expect), response) in input.script.iter().zip(&pass.responses) {
                if !expect.matches(response) {
                    mismatched += 1;
                }
            }
            if *first_responses.get_or_insert_with(|| pass.responses.clone()) != pass.responses {
                diverged += 1;
            }
            let converged = pass.plane.converged_quotes();
            if pass.plane.oracle_quotes().map_or(true, |o| o != converged) {
                unconverged += 1;
            }
            passes.push((pass.latencies_ns, pass.wall_s));
        });
    }
    let rss = crate::report::peak_rss_mb();

    let mut out = Outcome {
        attempted: tenants * packs.samples.len() as u64 + commands * passes.len() as u64,
        ..Outcome::default()
    };
    out.check(
        &format!(
            "{} of {} packs left tenants unplaced or placed them differently",
            packs.bad,
            packs.samples.len()
        ),
        packs.bad * tenants,
        packs.bad == 0,
    );
    let serial = input.fleet.pack(&WorkerPool::serial());
    out.check(
        "pack at 1 worker == pack at nproc workers",
        tenants,
        Some(fingerprint(&input.fleet, &serial.1)) == packs.first,
    );
    out.check(
        &format!("{mismatched} responses neither Ok nor the script's expected typed rejection"),
        mismatched,
        mismatched == 0,
    );
    out.check(
        &format!("{diverged} passes' responses differ from the first pass's"),
        diverged * commands,
        diverged == 0,
    );
    out.check(
        &format!("{unconverged} passes end with converged quotes != the from-scratch oracle"),
        unconverged * commands,
        unconverged == 0,
    );

    out.sampled("setup_s", "s", &setups);
    let throughputs: Vec<f64> = passes
        .iter()
        .map(|(_, wall)| commands as f64 / wall)
        .collect();
    out.sampled("throughput_rps", "req/s", &throughputs);
    let latencies: Vec<&[u64]> = passes.iter().map(|(l, _)| &l[..]).collect();
    out.latency("latency_p50_us", 0.5, &latencies);
    out.latency("latency_p99_us", 0.99, &latencies);
    out.sampled("pack_s", "s", &packs.samples);
    out.value("peak_rss_mb", "MB", rss);
    out
}

/// The traced run: cold quotes, the pack at `nproc` and 1 worker, a
/// one-node replan, and untraced vs traced script passes.
pub fn traced(args: &Args, m: &mut LayerMetrics) -> (u64, u64) {
    span::enable();
    let input = setup(args);
    m.set("trace.gen_s", span::agg("trace.gen").total_ns as f64 / 1e9);
    let plan = span::agg("core.planner.min_capacity");
    m.set(
        "core.planner.min_capacity_ms",
        plan.total_ns as f64 / 1e6 / plan.count.max(1) as f64,
    );
    span::disable();
    let fleet = &input.fleet;
    let mut failed = 0;

    let mut cache = QuoteCache::new(fleet.placer.target().deadline());
    let cold: Vec<f64> = fleet
        .tenants
        .iter()
        .take(32)
        .map(|t| {
            let s = Instant::now();
            std::hint::black_box(cache.quote_int(t, FRACTION));
            secs(s) * 1e6
        })
        .collect();
    m.set("core.fleet.quote_cold_us", summarize(&cold).median);

    let workers = nproc();
    let (par_s, mut placement) = fleet.pack(&WorkerPool::new(workers));
    let (serial_s, serial) = fleet.pack(&WorkerPool::serial());
    if fingerprint(fleet, &placement) != fingerprint(fleet, &serial)
        || !placement.unplaced().is_empty()
    {
        failed += fleet.tenants.len() as u64;
    }
    let stats = placement.stats();
    m.set("core.fleet.pack_probes", stats.probes as f64);
    m.set("parallel.efficiency", serial_s / (par_s * workers as f64));
    let busiest = (0..placement.servers())
        .max_by_key(|&s| placement.bins()[s].len())
        .unwrap_or(0);
    let mut cache = QuoteCache::new(fleet.placer.target().deadline());
    cache.warm_batch(&fleet.tenants, FRACTION, &WorkerPool::new(workers));
    let t = Instant::now();
    let replanned = fleet.placer.replan_degraded(
        &mut placement,
        &fleet.tenants,
        busiest,
        0.6,
        &mut cache,
        &WorkerPool::new(workers),
    );
    m.set("core.fleet.replan_ms", secs(t) * 1e3);
    if replanned.is_err() {
        failed += fleet.tenants.len() as u64;
    }

    let untraced: Vec<ScriptPass> = (0..2).map(|_| script_pass(&input)).collect();
    let untraced_wall = summarize(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>()).median;
    span::enable();
    let traced = script_pass(&input);
    span::disable();
    if traced.responses != untraced[0].responses
        || input
            .script
            .iter()
            .zip(&traced.responses)
            .any(|((_, e), r)| !e.matches(r))
    {
        failed += input.script.len() as u64;
    }
    for (kind, name) in APPLY_SPANS {
        let a = span::agg(name);
        m.set(
            &format!("control.apply_us.{kind}"),
            a.total_ns as f64 / 1e3 / a.count.max(1) as f64,
        );
    }
    let cache = traced.plane.cache();
    m.set(
        "core.fleet.cache_hit_ratio",
        cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
    );
    m.set("control.commands_issued", input.script.len() as f64);
    m.accounting(traced.wall_s, untraced_wall);
    (
        3 * fleet.tenants.len() as u64 + 3 * input.script.len() as u64,
        failed,
    )
}
