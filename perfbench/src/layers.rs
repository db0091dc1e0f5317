//! Timing wrappers around the library's extension traits, used by the
//! traced run's replica lanes. Each forwards to the wrapped value inside
//! a span named after the layer it times; with tracing off they add only
//! the tracer's flag check.

use gqos_sim::{Dispatch, Scheduler, ServerId, ServiceClass, ServiceModel};
use gqos_stream::{ArrivalStream, StreamError};
use gqos_trace::{Request, SimDuration, SimTime};

use crate::span;

pub const SCHED_ARRIVAL: &str = "core.sched.on_arrival";
pub const SCHED_NEXT: &str = "core.sched.next_for";
pub const SCHED_COMPLETION: &str = "core.sched.on_completion";
pub const SERVICE: &str = "sim.service";
pub const SOURCE: &str = "trace.source";

/// A scheduler whose every call is a span.
#[derive(Debug)]
pub struct TimedScheduler<S>(pub S);

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn on_arrival(&mut self, request: Request, now: SimTime) {
        let _g = span::enter(SCHED_ARRIVAL);
        self.0.on_arrival(request, now);
    }

    fn next_for(&mut self, server: ServerId, now: SimTime) -> Dispatch {
        let _g = span::enter(SCHED_NEXT);
        self.0.next_for(server, now)
    }

    fn on_completion(&mut self, request: &Request, class: ServiceClass, now: SimTime) {
        let _g = span::enter(SCHED_COMPLETION);
        self.0.on_completion(request, class, now);
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }
}

/// A service model whose every call is a span.
#[derive(Debug)]
pub struct TimedServer<M>(pub M);

impl<M: ServiceModel> ServiceModel for TimedServer<M> {
    fn service_time(&mut self, request: &Request, now: SimTime) -> SimDuration {
        let _g = span::enter(SERVICE);
        self.0.service_time(request, now)
    }

    fn nominal_rate(&self) -> Option<gqos_trace::Iops> {
        self.0.nominal_rate()
    }
}

/// An arrival stream whose every chunk pull is a span.
#[derive(Debug)]
pub struct TimedSource<A>(pub A);

impl<A: ArrivalStream> ArrivalStream for TimedSource<A> {
    fn chunk_capacity(&self) -> usize {
        self.0.chunk_capacity()
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
        let _g = span::enter(SOURCE);
        self.0.next_chunk(buf)
    }
}
