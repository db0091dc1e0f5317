//! Golden differential test for `closed_loop`: every run of a fixed grid of
//! populations, think times and server rates must reproduce the completion
//! records (digested), the counts and the end time pinned here.
//!
//! The expected values were computed by the original standalone closed-loop
//! event loop, before `closed_loop` became a driver over the shared
//! streaming engine, so this test pins that the two produce the same
//! schedule — tie-breaks, retries and horizon accounting included.

use std::collections::VecDeque;

use gqos_sim::{
    closed_loop, ClosedLoopConfig, Dispatch, FcfsScheduler, FixedRateServer, RunReport, Scheduler,
    ServerId, ServiceClass,
};
use gqos_trace::{Iops, LogicalBlock, Request, SimDuration, SimTime};

/// FCFS with a fixed hold: a request becomes eligible `HOLD` after its
/// arrival, and an idle server is told to retry then. Even clients (by the
/// block their factory stamps) are served as primary, odd ones as overflow,
/// so the class column of the digest varies too.
#[derive(Debug, Default)]
struct HoldScheduler {
    queue: VecDeque<Request>,
}

const HOLD: SimDuration = SimDuration::from_millis(3);

impl Scheduler for HoldScheduler {
    fn on_arrival(&mut self, request: Request, _now: SimTime) {
        self.queue.push_back(request);
    }

    fn next_for(&mut self, _server: ServerId, now: SimTime) -> Dispatch {
        let Some(head) = self.queue.front() else {
            return Dispatch::Idle;
        };
        let eligible = head.arrival + HOLD;
        if now < eligible {
            return Dispatch::After(eligible);
        }
        let request = self.queue.pop_front().expect("head exists");
        let class = if request.block.get().is_multiple_of(2) {
            ServiceClass::PRIMARY
        } else {
            ServiceClass::OVERFLOW
        };
        Dispatch::Serve(request, class)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// FNV-1a over every record's `(id, arrival, dispatched, completion, class)`.
fn digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in report.records() {
        mix(r.id.index());
        mix(r.arrival.as_nanos());
        mix(r.dispatched.as_nanos());
        mix(r.completion.as_nanos());
        mix(u64::from(r.class.index()));
    }
    h
}

fn run(clients: usize, think_ms: u64, iops: u64, hold: bool) -> RunReport {
    let config = ClosedLoopConfig {
        clients,
        think_time: SimDuration::from_millis(think_ms),
        duration: SimDuration::from_secs(2),
    };
    let server = FixedRateServer::new(Iops::new(iops as f64));
    let factory =
        |client: usize, t: SimTime| Request::at(t).with_block(LogicalBlock::new(client as u64));
    if hold {
        closed_loop(config, HoldScheduler::default(), server, factory)
    } else {
        closed_loop(config, FcfsScheduler::new(), server, factory)
    }
}

/// `(clients, think ms, IOPS, hold scheduler, digest, completed,
/// total_requests, end_time ns)`.
type GoldenRun = (usize, u64, u64, bool, u64, usize, usize, u64);

/// One row per grid point, computed by the standalone loop.
#[rustfmt::skip]
const GOLDEN: [GoldenRun; 96] = [
    (1, 0, 50, false, 0x8aec8240010cbe15, 100, 100, 2000000000),
    (1, 0, 100, false, 0x6d809a8859552530, 200, 200, 2000000000),
    (1, 0, 333, false, 0xece9b0fdb507e172, 667, 667, 2003003001),
    (1, 5, 50, false, 0xc407628e39ba2672, 80, 80, 1995000000),
    (1, 5, 100, false, 0xd42032e6bd1bec46, 134, 134, 2005000000),
    (1, 5, 333, false, 0x01b6449b06cb7130, 250, 250, 1995750750),
    (1, 10, 50, false, 0xda942812da6e7391, 67, 67, 2000000000),
    (1, 10, 100, false, 0xc01eea2e84dbf11c, 100, 100, 1990000000),
    (1, 10, 333, false, 0x262317c6c4649b60, 154, 154, 1992462462),
    (1, 70, 50, false, 0xe0483c792abfce50, 23, 23, 2000000000),
    (1, 70, 100, false, 0xcccb78109762fef1, 25, 25, 1930000000),
    (1, 70, 333, false, 0x00e65d0459e87475, 28, 28, 1974084084),
    (3, 0, 50, false, 0xb13e996e3887beb6, 102, 102, 2040000000),
    (3, 0, 100, false, 0x0e4d95c88a411354, 202, 202, 2020000000),
    (3, 0, 333, false, 0x3d0fb9ea8ef02a58, 669, 669, 2009009007),
    (3, 5, 50, false, 0xef0d77308207cbcd, 102, 102, 2040000000),
    (3, 5, 100, false, 0x34ea3c1bbc2d85ee, 202, 202, 2020000000),
    (3, 5, 333, false, 0x0532903413d30752, 667, 667, 2003003001),
    (3, 10, 50, false, 0x001cb60e6bbd8801, 102, 102, 2040000000),
    (3, 10, 100, false, 0xf2b76e478c016a87, 201, 201, 2010000000),
    (3, 10, 333, false, 0x25f1f79485db03a9, 462, 462, 1998468468),
    (3, 70, 50, false, 0x3ceddcc918de085b, 67, 67, 2000000000),
    (3, 70, 100, false, 0xdc2afd10de734ab6, 75, 75, 1950000000),
    (3, 70, 333, false, 0xe59636ebda7db6db, 84, 84, 1980090090),
    (8, 0, 50, false, 0x0665dee7656d646f, 107, 107, 2140000000),
    (8, 0, 100, false, 0xe3d1b3d0bb197888, 207, 207, 2070000000),
    (8, 0, 333, false, 0xe59d63d26a1ad73c, 674, 674, 2024024022),
    (8, 5, 50, false, 0xe368dc1cbeb900fc, 107, 107, 2140000000),
    (8, 5, 100, false, 0x48b7b824da81acfa, 207, 207, 2070000000),
    (8, 5, 333, false, 0xe7558bcecb0cdb88, 672, 672, 2018018016),
    (8, 10, 50, false, 0xb92951838d282e44, 107, 107, 2140000000),
    (8, 10, 100, false, 0x41a8bd65118fbe25, 206, 206, 2060000000),
    (8, 10, 333, false, 0x85c01676681c1066, 670, 670, 2012012010),
    (8, 70, 50, false, 0x49ba93beb9d5ffd1, 104, 104, 2080000000),
    (8, 70, 100, false, 0x4307faa3da76290a, 200, 200, 2000000000),
    (8, 70, 333, false, 0x1300cf051b2377ec, 224, 224, 1995105105),
    (16, 0, 50, false, 0xc92541ec49a6a873, 115, 115, 2300000000),
    (16, 0, 100, false, 0x494fb08de91f18b2, 215, 215, 2150000000),
    (16, 0, 333, false, 0xf23cf0809350f1a4, 682, 682, 2048048046),
    (16, 5, 50, false, 0x5df97ac618eecf4c, 115, 115, 2300000000),
    (16, 5, 100, false, 0x969a8ab6180c83b0, 215, 215, 2150000000),
    (16, 5, 333, false, 0x717ca487fd858988, 680, 680, 2042042040),
    (16, 10, 50, false, 0xaf599dacb020ae0c, 115, 115, 2300000000),
    (16, 10, 100, false, 0xaaa4a7143f1b919e, 214, 214, 2140000000),
    (16, 10, 333, false, 0x7d37641f0e1f7c5b, 678, 678, 2036036034),
    (16, 70, 50, false, 0x99dcddbfb172256a, 112, 112, 2240000000),
    (16, 70, 100, false, 0xde1b196c83fe85b5, 208, 208, 2080000000),
    (16, 70, 333, false, 0x678717200f523500, 442, 442, 2001111111),
    (1, 0, 50, true, 0x56a50266ccdd5ec0, 87, 87, 2001000000),
    (1, 0, 100, true, 0x4372abc3882950dc, 154, 154, 2002000000),
    (1, 0, 333, true, 0x5e69ec6b4d4b9c3d, 334, 334, 2005003002),
    (1, 5, 50, true, 0xbb54dfdbc967e7b0, 72, 72, 2011000000),
    (1, 5, 100, true, 0x32aa98ef784ff5aa, 112, 112, 2011000000),
    (1, 5, 333, true, 0x7d051ee0c1f51fde, 182, 182, 1997546546),
    (1, 10, 50, true, 0xd7649bf34b239b1b, 61, 61, 2003000000),
    (1, 10, 100, true, 0x76335870e803e7e3, 87, 87, 1991000000),
    (1, 10, 333, true, 0xa37bee6600b237b3, 125, 125, 1990375375),
    (1, 70, 50, true, 0x88f660d5f044a8c6, 22, 22, 1976000000),
    (1, 70, 100, true, 0x26caa411c66ee361, 25, 25, 2005000000),
    (1, 70, 333, true, 0x8047ff439bb325b2, 27, 27, 1982081081),
    (3, 0, 50, true, 0x6e8f8d8c2c097562, 102, 102, 2043000000),
    (3, 0, 100, true, 0x7f3a991bb7c6ccc3, 202, 202, 2023000000),
    (3, 0, 333, true, 0x7ffa871a734fe3a1, 668, 668, 2009006004),
    (3, 5, 50, true, 0x1de62ca353826f5e, 102, 102, 2043000000),
    (3, 5, 100, true, 0xb60c3898dbe7c06c, 202, 202, 2023000000),
    (3, 5, 333, true, 0xb1307b8e8a2785d2, 546, 546, 2003552552),
    (3, 10, 50, true, 0x89a66a6e7c448faf, 102, 102, 2043000000),
    (3, 10, 100, true, 0x1fcf2753c44ef87f, 201, 201, 2013000000),
    (3, 10, 333, true, 0x8cf16bf15501da31, 375, 375, 1996381381),
    (3, 70, 50, true, 0x99176bfda0e946f3, 66, 66, 2016000000),
    (3, 70, 100, true, 0x943b5511b1604404, 73, 73, 2005000000),
    (3, 70, 333, true, 0xcea319e50847db1d, 81, 81, 1988087087),
    (8, 0, 50, true, 0xb6ad1696c243e6fe, 107, 107, 2143000000),
    (8, 0, 100, true, 0xf5bc9084fbaafbb6, 207, 207, 2073000000),
    (8, 0, 333, true, 0xec95de714a86ac2f, 673, 673, 2024021019),
    (8, 5, 50, true, 0xf0f9769f0af67c9e, 107, 107, 2143000000),
    (8, 5, 100, true, 0x74aa00a728771af5, 207, 207, 2073000000),
    (8, 5, 333, true, 0x754474b971c7897c, 671, 671, 2018015013),
    (8, 10, 50, true, 0x55a08407f19d1ecb, 107, 107, 2143000000),
    (8, 10, 100, true, 0x98d0abe9143e4ff4, 206, 206, 2063000000),
    (8, 10, 333, true, 0x3ed52a63eb20ee63, 669, 669, 2012009007),
    (8, 70, 50, true, 0x898f09eb21b79015, 104, 104, 2083000000),
    (8, 70, 100, true, 0x5c3bdb19fb7b11d5, 193, 193, 2005000000),
    (8, 70, 333, true, 0x4aad22694e41f2a1, 216, 216, 2003102102),
    (16, 0, 50, true, 0xbdecf00e381083fb, 115, 115, 2303000000),
    (16, 0, 100, true, 0x5cf70905a55cd5cc, 215, 215, 2153000000),
    (16, 0, 333, true, 0x0cf6c3d697f08d32, 681, 681, 2048045043),
    (16, 5, 50, true, 0xaf46ddd85cab3d2f, 115, 115, 2303000000),
    (16, 5, 100, true, 0xf694f9974a8abed3, 215, 215, 2153000000),
    (16, 5, 333, true, 0x1e17ff9cdc45b1a3, 679, 679, 2042039037),
    (16, 10, 50, true, 0xc34122385adbb502, 115, 115, 2303000000),
    (16, 10, 100, true, 0x7312bee2cff2757e, 214, 214, 2143000000),
    (16, 10, 333, true, 0xc20f864fe8fff74e, 677, 677, 2036033031),
    (16, 70, 50, true, 0xb56d1a8612696e8f, 112, 112, 2243000000),
    (16, 70, 100, true, 0x1c502022f4e8beb3, 208, 208, 2083000000),
    (16, 70, 333, true, 0xe761789303ebc9dc, 424, 424, 2003102102),
];

#[test]
fn closed_loop_matches_golden_grid() {
    for &(clients, think, iops, hold, want_digest, completed, total, end_ns) in &GOLDEN {
        let report = run(clients, think, iops, hold);
        let case = format!("clients {clients}, think {think} ms, {iops} IOPS, hold {hold}");
        assert_eq!(digest(&report), want_digest, "record digest, {case}");
        assert_eq!(report.completed(), completed, "completed, {case}");
        assert_eq!(report.total_requests(), total, "total_requests, {case}");
        assert_eq!(report.end_time().as_nanos(), end_ns, "end_time, {case}");
    }
}
