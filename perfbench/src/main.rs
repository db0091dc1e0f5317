//! The gqos benchmark: three workloads against the public APIs of the
//! workspace crates, each printing every end-to-end metric by name with
//! its unit, and a traced mode that breaks a run down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online|gateway|control> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the host
//! block and the human-readable report. See `perfbench/README.md`.

mod control;
mod gateway;
mod layers;
mod online;
mod report;
mod span;

use std::process::ExitCode;

use gqos_trace::gen::profiles::TraceProfile;
use gqos_trace::{SimDuration, Workload};

use report::Outcome;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the smoke test.
    pub tiny: bool,
    /// Perturb one reference output, so the checks must fail.
    pub corrupt: bool,
}

/// Length of one generated trace segment (s) for lanes and tenants.
const SEGMENT_S: u64 = 10;

/// A `span_s`-second trace of `profile`: `SEGMENT_S`-second segments with
/// seeds derived from `seed`, spliced 1 ms apart. The profiles' plateaus
/// last minutes, so one long draw left a trace's size and burstiness, and
/// every cost that depends on them, to the seed; short segments give every
/// trace many independent draws.
pub fn segmented(profile: TraceProfile, span_s: u64, seed: u64) -> Workload {
    (0..span_s.div_ceil(SEGMENT_S)).fold(Workload::new(), |trace, j| {
        let segment = profile.generate(
            SimDuration::from_secs(SEGMENT_S),
            seed.wrapping_mul(1_000_003).wrapping_add(j),
        );
        trace.concat(&segment, SimDuration::from_millis(1))
    })
}

/// `workload` thinned to `n` requests (fewer if it holds fewer). Quotes
/// and packs cost in proportion to request counts, and the profiles'
/// rates differ from segment to segment and seed to seed; equal tenants
/// keep those costs from following the seed.
pub fn equal_size(workload: &Workload, n: usize, seed: u64) -> Workload {
    let keep = (n as f64 * 1.05 / workload.len().max(1) as f64).min(1.0);
    workload.thinned(keep, seed).truncated(n)
}

/// Rounds a run's measured phases are interleaved in: each round runs
/// every phase for its share of `--seconds / ROUNDS`. The host's speed
/// drifts over seconds, so with each phase in one block its samples came
/// from one stretch of host time, and its median moved from run to run
/// with that stretch; spread over the whole run, every phase sees the
/// same mix.
pub const ROUNDS: usize = 10;

/// Runs one phase of a round for about `seconds`: `pass` runs once, and
/// again while one more pass, at the mean pass time so far, would end
/// within the phase's time, so phases whose passes take seconds do not
/// overrun the run.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut()) {
    let phase = std::time::Instant::now();
    let mut passes = 0.0;
    loop {
        pass();
        passes += 1.0;
        let used = report::secs(phase);
        if used + used / passes > seconds {
            break;
        }
    }
}

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the
/// next so only one is ever resident; returns the last result and the
/// wall seconds of each.
pub fn timed_setups<T>(args: &Args, setup: impl Fn(&Args) -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let t = std::time::Instant::now();
        input = Some(setup(args));
        secs.push(report::secs(t));
    }
    (input.expect("at least one setup"), secs)
}

const USAGE: &str = "usage: perfbench --workload <online|gateway|control> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny] [--corrupt]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(args.workload.as_str(), "online" | "gateway" | "control") {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Every per-layer metric with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 39] = [
    ("trace.gen_s", "s"),
    ("trace.spc_parse_ns_per_req", "ns/req"),
    ("trace.spc_bytes", "bytes"),
    ("stream.shaper_self_ns_per_req", "ns/req"),
    ("stream.chunks", "count"),
    ("stream.peak_resident_records", "count"),
    ("stream.gateway_run_s", "s"),
    ("stream.shed_frac", "ratio"),
    ("core.sched.on_arrival_ns", "ns"),
    ("core.sched.next_for_ns", "ns"),
    ("core.sched.on_completion_ns", "ns"),
    ("core.rtt.q1_frac", "ratio"),
    ("core.planner.min_capacity_ms", "ms"),
    ("core.fleet.quote_cold_us", "us"),
    ("core.fleet.cache_hit_ratio", "ratio"),
    ("core.fleet.pack_probes", "count"),
    ("core.fleet.replan_ms", "ms"),
    ("sim.engine_self_ns_per_req", "ns/req"),
    ("sim.service_ns_per_call", "ns"),
    ("sim.service_calls", "count"),
    ("obs.sink_ns_per_req", "ns/req"),
    ("obs.window_fold_us", "us"),
    ("obs.longterm_ingest_ns", "ns"),
    ("obs.longterm_resident_sketches", "count"),
    ("obs.query_us", "us"),
    ("control.slo_observe_ns", "ns"),
    ("control.commands_issued", "count"),
    ("control.driver_attempts_per_cmd", "ratio"),
    ("control.apply_us.add_tenant", "us"),
    ("control.apply_us.remove_tenant", "us"),
    ("control.apply_us.update_sla", "us"),
    ("control.apply_us.drain_tenant", "us"),
    ("control.apply_us.node_down", "us"),
    ("control.apply_us.node_up", "us"),
    ("parallel.efficiency", "ratio"),
    ("parallel.lane_skew", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("tracing.overhead_frac", "ratio"),
    ("tracing.self_sum_frac", "ratio"),
];

/// The library layers a traced section's time must be accounted to: a
/// span's layer is its name up to the first `.`.
pub const LAYERS: [&str; 6] = ["trace", "stream", "core", "sim", "obs", "control"];

/// The traced run's per-layer values. A layer a workload does not run
/// reports 0.
#[derive(Debug)]
pub struct LayerMetrics {
    values: Vec<f64>,
    /// Whether the self-time accounting closed within ±10%.
    pub accounted: bool,
    pub notes: Vec<String>,
}

impl LayerMetrics {
    fn new() -> Self {
        LayerMetrics {
            values: vec![0.0; LAYER_METRICS.len()],
            accounted: false,
            notes: Vec::new(),
        }
    }

    /// Sets a metric by name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`] (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted layer metric {name}"));
        self.values[i] = value;
    }

    /// Scheduler, engine and service figures from a replica lane's spans
    /// over `requests` requests; reported only when the replica's output
    /// matched the untraced lane's bit for bit.
    pub fn replica_split(&mut self, requests: f64, matched: bool) {
        self.notes.push(format!(
            "check {}: replica lane sketch == untraced lane sketch",
            if matched { "ok  " } else { "FAIL" }
        ));
        if !matched || requests == 0.0 {
            return;
        }
        let per_call = |name| {
            let a = span::agg(name);
            a.total_ns as f64 / a.count.max(1) as f64
        };
        self.set("core.sched.on_arrival_ns", per_call(layers::SCHED_ARRIVAL));
        self.set("core.sched.next_for_ns", per_call(layers::SCHED_NEXT));
        self.set(
            "core.sched.on_completion_ns",
            per_call(layers::SCHED_COMPLETION),
        );
        self.set("sim.service_ns_per_call", per_call(layers::SERVICE));
        self.set("sim.service_calls", span::agg(layers::SERVICE).count as f64);
        let engine = span::agg("sim.offer").self_ns() + span::agg("sim.finish").self_ns();
        self.set("sim.engine_self_ns_per_req", engine as f64 / requests);
    }

    /// Closes the books on the spans collected since the last
    /// `span::enable`: the self times of the library layers' spans
    /// ([`LAYERS`]) must sum to within ±10% of `wall`, the traced
    /// section's wall time measured outside every span. Spans under other
    /// names (a section's root, the benchmark's own loop glue) and time in
    /// no span at all count toward no layer, so they open a gap the check
    /// sees. `untraced` is the same section's wall with tracing off.
    pub fn accounting(&mut self, wall: f64, untraced: f64) {
        let mut layers: std::collections::BTreeMap<&str, u64> =
            LAYERS.iter().map(|&l| (l, 0)).collect();
        let mut outside = 0;
        for (name, _, agg) in span::aggs() {
            let layer = name.split('.').next().unwrap_or(name);
            match layers.get_mut(layer) {
                Some(ns) => *ns += agg.self_ns(),
                None => outside += agg.self_ns(),
            }
        }
        let sum: u64 = layers.values().sum();
        let frac = sum as f64 / 1e9 / wall.max(1e-12);
        self.accounted = (0.9..=1.1).contains(&frac);
        self.set("tracing.self_sum_frac", frac);
        self.set("tracing.overhead_frac", wall / untraced.max(1e-12) - 1.0);
        let share = |ns: u64| ns as f64 / 1e7 / wall.max(1e-12);
        for (layer, ns) in layers {
            self.notes.push(format!(
                "layer self time {layer:<10} {:>10.3} ms ({:.1}% of traced wall)",
                ns as f64 / 1e6,
                share(ns)
            ));
        }
        self.notes.push(format!(
            "self time of non-layer spans {:.3} ms ({:.1}% of traced wall; not counted)",
            outside as f64 / 1e6,
            share(outside)
        ));
        self.notes.push(format!(
            "check {}: layer self times sum to {:.3} of the traced wall ({wall:.4} s; within ±10%)",
            if self.accounted { "ok  " } else { "FAIL" },
            frac
        ));
    }

    fn into_outcome(self, attempted: u64, failed: u64) -> Outcome {
        let mut out = Outcome {
            attempted,
            failed: if self.accounted { failed } else { attempted },
            checks: self.notes,
            ..Outcome::default()
        };
        for ((name, unit), value) in LAYER_METRICS.iter().zip(self.values) {
            out.value(name, unit, value);
        }
        out
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::host_block());
    let outcome = if args.trace {
        let mut m = LayerMetrics::new();
        let (attempted, failed) = match args.workload.as_str() {
            "online" => online::traced(&args, &mut m),
            "gateway" => gateway::traced(&args, &mut m),
            _ => control::traced(&args, &mut m),
        };
        let spans = span::write_tsv();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        m.into_outcome(attempted, failed)
    } else {
        match args.workload.as_str() {
            "online" => online::run(&args),
            "gateway" => gateway::run(&args),
            _ => control::run(&args),
        }
    };
    print!("{}", report::render(&args.workload, args.seed, &outcome));
    println!("{}", report::json(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    /// Traces `section`, then closes the books on it.
    fn account(section: impl FnOnce()) -> LayerMetrics {
        span::enable();
        let start = std::time::Instant::now();
        section();
        let wall = report::secs(start);
        span::disable();
        let mut m = LayerMetrics::new();
        m.accounting(wall, wall);
        m
    }

    #[test]
    fn layer_spans_covering_the_wall_close_the_books() {
        let m = account(|| {
            span::time("sim.offer", || {
                sleep_ms(10);
                span::time("core.sched.on_arrival", || sleep_ms(10));
            });
            span::time("obs.drain", || sleep_ms(10));
        });
        assert!(m.accounted, "{:?}", m.notes);
    }

    #[test]
    fn a_gap_outside_every_layer_span_fails_the_books() {
        let m = account(|| {
            span::time("sim.offer", || sleep_ms(10));
            sleep_ms(10);
        });
        assert!(!m.accounted, "{:?}", m.notes);
        // A root span around the gap does not make it a layer's time.
        let m = account(|| {
            let _root = span::enter("replica.run");
            span::time("sim.offer", || sleep_ms(10));
            sleep_ms(10);
        });
        assert!(!m.accounted, "{:?}", m.notes);
    }
}
