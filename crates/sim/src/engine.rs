//! The discrete-event simulation driver.

use gqos_obs::TraceHandle;
use gqos_trace::{SimDuration, Workload};

use crate::metrics::RunReport;
use crate::scheduler::Scheduler;
use crate::server::ServiceModel;
use crate::streaming::StreamingSimulation;

/// A configured simulation: one workload, one scheduler, one or more
/// servers.
///
/// The engine feeds the workload's requests to the scheduler in arrival
/// order and polls the scheduler whenever a server is free. It runs to
/// quiescence: every request is either completed or left undispatched by the
/// scheduler (a drop).
///
/// # Examples
///
/// ```
/// use gqos_sim::{FcfsScheduler, FixedRateServer, Simulation};
/// use gqos_trace::{Iops, SimDuration, SimTime, Workload};
///
/// let workload = Workload::from_arrivals([SimTime::ZERO, SimTime::ZERO]);
/// let report = Simulation::new(&workload, FcfsScheduler::new())
///     .server(FixedRateServer::new(Iops::new(100.0)))
///     .run();
/// assert_eq!(report.completed(), 2);
/// // Second request waits for the first: 10 ms + 10 ms.
/// assert_eq!(report.stats().max(), Some(SimDuration::from_millis(20)));
/// ```
pub struct Simulation<'w, S> {
    workload: &'w Workload,
    scheduler: S,
    servers: Vec<Box<dyn ServiceModel>>,
    trace: TraceHandle,
    deadline: Option<SimDuration>,
}

impl<S> std::fmt::Debug for Simulation<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("requests", &self.workload.len())
            .field("servers", &self.servers.len())
            .finish_non_exhaustive()
    }
}

impl<'w, S: Scheduler> Simulation<'w, S> {
    /// Creates a simulation of `workload` under `scheduler` with no servers
    /// yet; add at least one with [`server`](Simulation::server).
    pub fn new(workload: &'w Workload, scheduler: S) -> Self {
        Simulation {
            workload,
            scheduler,
            servers: Vec::new(),
            trace: TraceHandle::disabled(),
            deadline: None,
        }
    }

    /// Attaches a trace handle; the engine emits `Arrival` and `Completed`
    /// events into it (schedulers emit their own admit/divert/dispatch
    /// events through their own handles). A disabled handle — the default —
    /// costs one untaken branch per event, so untraced runs are unchanged.
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the deadline used for the per-completion `deadline_met` verdict
    /// in trace events. Without one, completions carry no verdict.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a server with the given service model. Servers are identified by
    /// the order they are added ([`ServerId::new(0)`](ServerId::new) first).
    pub fn server<M: ServiceModel + 'static>(mut self, model: M) -> Self {
        self.servers.push(Box::new(model));
        self
    }

    /// Runs the simulation to quiescence and returns the report.
    ///
    /// The batch run is implemented on top of
    /// [`StreamingSimulation`](crate::StreamingSimulation) — offering every
    /// request of the workload in order — so batch and streamed runs of the
    /// same workload are bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if no server was added, or if the scheduler requests a retry
    /// at a non-future instant.
    pub fn run(self) -> RunReport {
        assert!(
            !self.servers.is_empty(),
            "simulation needs at least one server"
        );
        let mut streaming = StreamingSimulation::from_parts(
            self.scheduler,
            self.servers,
            self.trace,
            self.deadline,
            self.workload.len(),
        );
        for &request in self.workload.requests() {
            streaming.offer(request);
        }
        streaming.into_report()
    }
}

/// Convenience wrapper: simulates `workload` under `scheduler` on a single
/// server with the given service model.
///
/// # Examples
///
/// ```
/// use gqos_sim::{simulate, FcfsScheduler, FixedRateServer};
/// use gqos_trace::{Iops, SimTime, Workload};
///
/// let workload = Workload::from_arrivals([SimTime::ZERO]);
/// let report = simulate(&workload, FcfsScheduler::new(),
///     FixedRateServer::new(Iops::new(1000.0)));
/// assert_eq!(report.completed(), 1);
/// ```
pub fn simulate<S, M>(workload: &Workload, scheduler: S, model: M) -> RunReport
where
    S: Scheduler,
    M: ServiceModel + 'static,
{
    Simulation::new(workload, scheduler).server(model).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Dispatch, FcfsScheduler, ServiceClass};
    use crate::server::{FixedRateServer, ServerId};
    use gqos_trace::{Iops, Request, SimTime};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dur_ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn fcfs_spaced_arrivals_have_pure_service_latency() {
        // 100 IOPS -> 10 ms service; arrivals 50 ms apart never queue.
        let w = Workload::from_arrivals([ms(0), ms(50), ms(100)]);
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
        );
        assert_eq!(report.completed(), 3);
        for r in report.records() {
            assert_eq!(r.response_time(), dur_ms(10));
            assert_eq!(r.queueing_time(), SimDuration::ZERO);
        }
    }

    #[test]
    fn fcfs_burst_queues_linearly() {
        // Three simultaneous arrivals at 100 IOPS: completions at 10/20/30 ms.
        let w = Workload::from_arrivals([ms(0), ms(0), ms(0)]);
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
        );
        let mut resp: Vec<_> = report.records().iter().map(|r| r.response_time()).collect();
        resp.sort();
        assert_eq!(resp, vec![dur_ms(10), dur_ms(20), dur_ms(30)]);
        assert_eq!(report.end_time(), ms(30));
    }

    #[test]
    fn arrival_at_completion_instant_sees_free_server() {
        // Service 10 ms; second arrival exactly at first completion: no wait.
        let w = Workload::from_arrivals([ms(0), ms(10)]);
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(100.0)),
        );
        for r in report.records() {
            assert_eq!(r.queueing_time(), SimDuration::ZERO);
        }
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let w = Workload::new();
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(1.0)),
        );
        assert_eq!(report.completed(), 0);
        assert_eq!(report.total_requests(), 0);
        assert_eq!(report.end_time(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn requires_a_server() {
        let w = Workload::new();
        let _ = Simulation::new(&w, FcfsScheduler::new()).run();
    }

    /// A scheduler that drops every second request (never dispatches it).
    #[derive(Default)]
    struct DropHalf {
        queue: std::collections::VecDeque<Request>,
        seen: usize,
    }

    impl Scheduler for DropHalf {
        fn on_arrival(&mut self, request: Request, _now: SimTime) {
            self.seen += 1;
            if self.seen % 2 == 1 {
                self.queue.push_back(request);
            }
        }
        fn next_for(&mut self, _server: ServerId, _now: SimTime) -> Dispatch {
            match self.queue.pop_front() {
                Some(r) => Dispatch::Serve(r, ServiceClass::PRIMARY),
                None => Dispatch::Idle,
            }
        }
        fn pending(&self) -> usize {
            self.queue.len()
        }
    }

    #[test]
    fn dropped_requests_are_reported_unfinished() {
        let w = Workload::from_arrivals([ms(0), ms(1), ms(2), ms(3)]);
        let report = simulate(
            &w,
            DropHalf::default(),
            FixedRateServer::new(Iops::new(1000.0)),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.unfinished(), 2);
    }

    /// A non-work-conserving scheduler: releases each request only at a
    /// fixed eligibility time after arrival.
    struct DelayRelease {
        queue: std::collections::VecDeque<Request>,
        hold: SimDuration,
    }

    impl Scheduler for DelayRelease {
        fn on_arrival(&mut self, request: Request, _now: SimTime) {
            self.queue.push_back(request);
        }
        fn next_for(&mut self, _server: ServerId, now: SimTime) -> Dispatch {
            match self.queue.front() {
                Some(r) => {
                    let eligible = r.arrival + self.hold;
                    if eligible <= now {
                        let r = self.queue.pop_front().expect("non-empty");
                        Dispatch::Serve(r, ServiceClass::PRIMARY)
                    } else {
                        Dispatch::After(eligible)
                    }
                }
                None => Dispatch::Idle,
            }
        }
        fn pending(&self) -> usize {
            self.queue.len()
        }
    }

    #[test]
    fn retry_events_respect_eligibility_times() {
        let w = Workload::from_arrivals([ms(0), ms(1)]);
        let report = simulate(
            &w,
            DelayRelease {
                queue: Default::default(),
                hold: dur_ms(20),
            },
            FixedRateServer::new(Iops::new(1000.0)),
        );
        assert_eq!(report.completed(), 2);
        for r in report.records() {
            assert_eq!(r.dispatched, r.arrival + dur_ms(20));
        }
    }

    #[test]
    fn two_servers_drain_in_parallel() {
        // Two servers at 100 IOPS each; two simultaneous requests finish
        // simultaneously — FCFS hands one to each idle server.
        let w = Workload::from_arrivals([ms(0), ms(0)]);
        let report = Simulation::new(&w, FcfsScheduler::new())
            .server(FixedRateServer::new(Iops::new(100.0)))
            .server(FixedRateServer::new(Iops::new(100.0)))
            .run();
        assert_eq!(report.completed(), 2);
        for r in report.records() {
            assert_eq!(r.response_time(), dur_ms(10));
        }
    }

    #[test]
    fn report_matches_mm1_queueing_growth() {
        // Deterministic arrivals faster than service: backlog grows, and the
        // k-th request's response is k * (service - gap) + service-ish.
        // 1 ms apart, 2 ms service: request k waits ~k ms.
        let w = Workload::from_arrivals((0..10).map(ms));
        let report = simulate(
            &w,
            FcfsScheduler::new(),
            FixedRateServer::new(Iops::new(500.0)),
        );
        let last = report
            .records()
            .iter()
            .max_by_key(|r| r.completion)
            .expect("non-empty");
        // Last request arrives at 9 ms; completions at 2,4,..,20 ms.
        assert_eq!(last.completion, ms(20));
        assert_eq!(last.response_time(), dur_ms(11));
    }
}
