//! Closed-loop simulation: a fixed population of clients with think time.
//!
//! The trace-driven engine in [`Simulation`](crate::Simulation) replays an
//! *open* arrival stream — arrivals do not react to service. Real storage
//! benchmarks (and many applications) are *closed*: each of `N` clients
//! keeps one request outstanding, thinking for a while between completion
//! and the next issue. Closed loops self-throttle — response times feed
//! back into the arrival rate — which is exactly the behaviour open-loop
//! QoS analysis must not assume it has (the paper's arrival streams are
//! open; this driver exists to study the difference).
//!
//! The driver runs on the same event step as [`StreamingSimulation`]: it
//! only decides, between steps, whether the earliest thinking client
//! issues next.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use gqos_trace::{Request, RequestId, SimDuration, SimTime};

use crate::metrics::RunReport;
use crate::scheduler::Scheduler;
use crate::server::ServiceModel;
use crate::streaming::StreamingSimulation;

/// Why a [`ClosedLoopConfig`] was rejected.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum ClosedLoopError {
    /// The population is empty.
    ZeroClients,
    /// The issue horizon is zero, so no client could ever issue.
    ZeroDuration,
}

impl fmt::Display for ClosedLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClosedLoopError::ZeroClients => f.write_str("at least one client is required"),
            ClosedLoopError::ZeroDuration => f.write_str("duration must be positive"),
        }
    }
}

impl Error for ClosedLoopError {}

/// Configuration of a closed-loop run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ClosedLoopConfig {
    /// Number of clients, each with at most one request outstanding.
    pub clients: usize,
    /// Pause between a client's completion and its next issue.
    pub think_time: SimDuration,
    /// Clients stop issuing at this instant (outstanding requests finish).
    pub duration: SimDuration,
}

impl ClosedLoopConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// [`ClosedLoopError::ZeroClients`] if `clients` is zero,
    /// [`ClosedLoopError::ZeroDuration`] if `duration` is zero.
    pub fn new(
        clients: usize,
        think_time: SimDuration,
        duration: SimDuration,
    ) -> Result<Self, ClosedLoopError> {
        if clients == 0 {
            return Err(ClosedLoopError::ZeroClients);
        }
        if duration.is_zero() {
            return Err(ClosedLoopError::ZeroDuration);
        }
        Ok(ClosedLoopConfig {
            clients,
            think_time,
            duration,
        })
    }
}

/// Runs a closed loop: `factory(client, issue_time)` materialises each
/// request (its `id` and `arrival` are overwritten by the driver).
///
/// Horizon accounting: clients issue strictly before `config.duration`
/// (an arrival at exactly the horizon retires), outstanding requests
/// run to completion, and the report's `end_time` is the instant of the
/// last completion — so `completed / end_time` is a true throughput
/// over the span work actually occupied.
///
/// # Panics
///
/// Panics if the scheduler requests a retry at a non-future instant
/// (same contract as [`Simulation`](crate::Simulation)).
///
/// # Examples
///
/// ```
/// use gqos_sim::{closed_loop, ClosedLoopConfig, FcfsScheduler, FixedRateServer};
/// use gqos_trace::{Iops, Request, SimDuration};
///
/// // 4 clients, 10 ms service, 90 ms think: each cycle is ~100 ms, so the
/// // loop self-throttles to ~40 IOPS on a 100 IOPS server.
/// let config = ClosedLoopConfig::new(
///     4,
///     SimDuration::from_millis(90),
///     SimDuration::from_secs(10),
/// )?;
/// let report = closed_loop(
///     config,
///     FcfsScheduler::new(),
///     FixedRateServer::new(Iops::new(100.0)),
///     |_, t| Request::at(t),
/// );
/// let rate = report.completed() as f64 / 10.0;
/// assert!((rate - 40.0).abs() < 5.0, "rate {rate}");
/// # Ok::<(), gqos_sim::ClosedLoopError>(())
/// ```
pub fn closed_loop<S, M, F>(
    config: ClosedLoopConfig,
    scheduler: S,
    model: M,
    mut factory: F,
) -> RunReport
where
    S: Scheduler,
    M: ServiceModel + 'static,
    F: FnMut(usize, SimTime) -> Request,
{
    let mut sim = StreamingSimulation::new(scheduler).server(model);
    let horizon = SimTime::ZERO + config.duration;
    // Clients waiting to issue, earliest `(issue time, client)` first.
    let mut thinking: BinaryHeap<Reverse<(SimTime, usize)>> = (0..config.clients)
        .map(|client| Reverse((SimTime::ZERO, client)))
        .collect();
    // Which client issued each request, indexed by request id.
    let mut owners: Vec<usize> = Vec::new();
    let mut records = Vec::new();
    let mut end_time = SimTime::ZERO;

    // Horizon convention (pinned by `horizon_accounting_*` tests): clients
    // issue strictly before `horizon` — an issue at or past `horizon`
    // retires the client — and `end_time` is the instant of the **last
    // completion**, not of a retry or of the engine's last event.
    loop {
        let next_event = sim.next_event_time();
        // The earliest issue goes first only when strictly earlier than the
        // next engine event: at equal times completions and retries precede
        // arrivals, and lower client indices precede higher ones.
        let issue = thinking
            .peek()
            .map(|&Reverse(issue)| issue)
            .filter(|&(at, _)| at < horizon && next_event.is_none_or(|next| at < next));
        if let Some((at, client)) = issue {
            thinking.pop();
            let request = factory(client, at)
                .with_id(RequestId::new(owners.len() as u64))
                .with_arrival(at);
            owners.push(client);
            sim.offer(request);
        } else if !sim.step() {
            break;
        }
        for record in sim.drain_completions() {
            end_time = record.completion;
            // The owning client thinks, then issues again.
            let client = owners[record.id.as_usize()];
            thinking.push(Reverse((record.completion + config.think_time, client)));
            records.push(record);
        }
    }

    RunReport::new(records, owners.len(), end_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FcfsScheduler;
    use crate::server::FixedRateServer;
    use gqos_trace::Iops;

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn config(clients: usize, think_time: SimDuration, duration: SimDuration) -> ClosedLoopConfig {
        ClosedLoopConfig::new(clients, think_time, duration).expect("valid closed-loop config")
    }

    #[test]
    fn single_client_alternates_service_and_think() {
        // Service 10 ms + think 40 ms = 50 ms per cycle over 1 s -> 20 ops.
        let report = closed_loop(
            config(1, dms(40), SimDuration::from_secs(1)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 20);
        for r in report.records() {
            assert_eq!(r.response_time(), dms(10));
        }
    }

    #[test]
    fn population_scales_offered_load_until_saturation() {
        // Service 10 ms, zero think, one server: the device saturates at
        // 100 IOPS no matter how many clients queue.
        let few = closed_loop(
            config(1, SimDuration::ZERO, SimDuration::from_secs(2)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        let many = closed_loop(
            config(16, SimDuration::ZERO, SimDuration::from_secs(2)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        // Measure over the actual end time: the queued backlog drains past
        // the issue horizon.
        let rate = |r: &RunReport| r.completed() as f64 / r.end_time().as_secs_f64();
        assert!((rate(&few) - 100.0).abs() < 5.0, "few {}", rate(&few));
        assert!((rate(&many) - 100.0).abs() < 5.0, "many {}", rate(&many));
        // But response times stretch with the queue depth (Little's law).
        let rt_many = many.stats().mean().unwrap();
        assert!((rt_many.as_millis_f64() - 160.0).abs() < 15.0, "{rt_many}");
    }

    #[test]
    fn closed_loop_self_throttles_where_open_loop_overloads() {
        // The defining difference: a closed population cannot overload the
        // server — throughput caps at capacity and the backlog stays at the
        // population size.
        let report = closed_loop(
            config(8, SimDuration::ZERO, SimDuration::from_secs(1)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(50.0)),
            |_, t| Request::at(t),
        );
        let max_rt = report.stats().max().unwrap();
        // Worst case: wait behind 7 others + own service = 160 ms.
        assert!(max_rt <= dms(161), "max {max_rt}");
    }

    #[test]
    fn issues_stop_at_the_horizon_but_outstanding_work_completes() {
        let report = closed_loop(
            config(4, dms(5), SimDuration::from_millis(100)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(50.0)), // 20 ms service
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), report.total_requests());
        // No arrival at or past the horizon.
        for r in report.records() {
            assert!(r.arrival < SimTime::from_millis(100));
        }
        // The last outstanding request may finish after the horizon.
        assert!(report.end_time() >= SimTime::from_millis(100));
    }

    #[test]
    fn horizon_accounting_end_time_is_the_last_completion() {
        // Regression: `end_time` used to advance on *every* event,
        // including the retiring think-time arrival scheduled after the
        // final completion. One client, 10 ms service, 10 s think, 50 ms
        // horizon: the only request completes at 10 ms, the client's next
        // arrival at 10.01 s retires. The measured span is 10 ms — the
        // pre-fix code reported ~10.01 s, deflating throughput 1000x.
        let report = closed_loop(
            config(1, SimDuration::from_secs(10), dms(50)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 1);
        assert_eq!(report.end_time(), SimTime::from_millis(10));
    }

    #[test]
    fn horizon_accounting_arrival_exactly_at_horizon_retires() {
        // The issue side of the pinned convention: issues happen strictly
        // before `horizon`. Service 10 ms + think 40 ms puts the third
        // arrival at exactly t=100 ms — it retires, and the span ends at
        // the second completion (t=60 ms).
        let report = closed_loop(
            config(1, dms(40), dms(100)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
            |_, t| Request::at(t),
        );
        assert_eq!(report.completed(), 2);
        for r in report.records() {
            assert!(r.arrival < SimTime::from_millis(100));
        }
        assert_eq!(report.end_time(), SimTime::from_millis(60));
    }

    #[test]
    fn factory_controls_request_contents() {
        let report = closed_loop(
            config(2, dms(10), SimDuration::from_millis(200)),
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(1000.0)),
            |client, t| Request::at(t).with_block(gqos_trace::LogicalBlock::new(client as u64)),
        );
        assert!(report.completed() > 10);
    }

    #[test]
    fn deterministic() {
        let run = || {
            closed_loop(
                config(3, dms(7), SimDuration::from_secs(1)),
                FcfsScheduler::new(),
                FixedRateServer::new(Iops::new(333.0)),
                |_, t| Request::at(t),
            )
        };
        assert_eq!(run().records(), run().records());
    }

    #[test]
    fn zero_clients_rejected() {
        let err = ClosedLoopConfig::new(0, SimDuration::ZERO, SimDuration::from_secs(1));
        assert_eq!(err, Err(ClosedLoopError::ZeroClients));
        assert_eq!(
            err.unwrap_err().to_string(),
            "at least one client is required"
        );
    }

    #[test]
    fn zero_duration_rejected() {
        let err = ClosedLoopConfig::new(1, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(err, Err(ClosedLoopError::ZeroDuration));
        assert_eq!(err.unwrap_err().to_string(), "duration must be positive");
    }
}
