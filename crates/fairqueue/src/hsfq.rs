//! Hierarchical start-time fair queueing.
//!
//! Two-level proportional sharing: the server's capacity is split across
//! *groups* by group weight, and each group's share is split across its
//! *leaves* by leaf weight. A leaf's guaranteed share is therefore
//! `(w_group / Σw_groups) · (w_leaf / Σw_leaves-in-group)` — and crucially,
//! spare capacity redistributes *inside the group first*: an idle leaf's
//! share goes to its siblings, not to other groups. That locality is what
//! flat weighted queueing cannot express, and what a multi-tenant shaper
//! wants: a tenant's idle overflow budget should boost its own primary
//! class before helping anyone else.

use std::fmt;

use gqos_trace::Request;

use crate::flow::{validate_weights, FlowId};
use crate::sfq::Sfq;

/// A leaf address in the hierarchy: `(group, leaf within group)`.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct LeafId {
    /// The group index.
    pub group: usize,
    /// The leaf index within the group.
    pub leaf: usize,
}

impl fmt::Display for LeafId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}/leaf{}", self.group, self.leaf)
    }
}

/// Two-level SFQ: groups scheduled by SFQ over group weights; within each
/// group, leaves scheduled by SFQ over leaf weights.
///
/// # Examples
///
/// ```
/// use gqos_fairqueue::{HierarchicalSfq, LeafId};
/// use gqos_trace::{Request, SimTime};
///
/// // Two tenants at 3:1, each with primary/overflow leaves at 9:1.
/// let mut h = HierarchicalSfq::new(&[
///     (3.0, vec![9.0, 1.0]),
///     (1.0, vec![9.0, 1.0]),
/// ]);
/// h.enqueue_leaf(LeafId { group: 0, leaf: 0 }, Request::at(SimTime::ZERO));
/// h.enqueue_leaf(LeafId { group: 1, leaf: 0 }, Request::at(SimTime::ZERO));
/// let (first, _) = h.dequeue_leaf().unwrap();
/// assert_eq!(first.group, 0); // heavier group goes first
/// ```
#[derive(Clone, Debug)]
pub struct HierarchicalSfq {
    /// Group-level scheduler; it queues *placeholder* requests, one per
    /// enqueued leaf request, to drive the group-share accounting.
    groups: Sfq,
    leaves: Vec<Sfq>,
    len: usize,
}

impl HierarchicalSfq {
    /// Creates a hierarchy from `(group weight, leaf weights)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is empty or any weight vector is empty or contains
    /// non-positive weights.
    pub fn new(spec: &[(f64, Vec<f64>)]) -> Self {
        assert!(!spec.is_empty(), "at least one group is required");
        let group_weights: Vec<f64> = spec.iter().map(|(w, _)| *w).collect();
        validate_weights(&group_weights);
        let leaves = spec.iter().map(|(_, lw)| Sfq::new(lw)).collect();
        HierarchicalSfq {
            groups: Sfq::new(&group_weights),
            leaves,
            len: 0,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.leaves.len()
    }

    /// Number of leaves in `group`.
    pub fn leaves_in(&self, group: usize) -> usize {
        self.leaves[group].flows()
    }

    /// Queues a request on a leaf.
    ///
    /// # Panics
    ///
    /// Panics if the group or leaf index is out of range.
    pub fn enqueue_leaf(&mut self, leaf: LeafId, request: Request) {
        assert!(
            leaf.group < self.leaves.len(),
            "unknown group {}",
            leaf.group
        );
        // Group-level accounting: a placeholder carries the same arrival.
        self.groups.enqueue(FlowId::new(leaf.group), request);
        self.leaves[leaf.group].enqueue(FlowId::new(leaf.leaf), request);
        self.len += 1;
    }

    /// Dequeues the next request with its full leaf address.
    pub fn dequeue_leaf(&mut self) -> Option<(LeafId, Request)> {
        // The group scheduler picks which group is served; the group's own
        // leaf scheduler picks which member request goes.
        let (group_flow, _placeholder) = self.groups.dequeue()?;
        let group = group_flow.index();
        let (leaf_flow, request) = self.leaves[group]
            .dequeue()
            .expect("leaf queues mirror the group queue");
        self.len -= 1;
        Some((
            LeafId {
                group,
                leaf: leaf_flow.index(),
            },
            request,
        ))
    }

    /// Queued requests on one leaf.
    pub fn leaf_len(&self, leaf: LeafId) -> usize {
        self.leaves[leaf.group].flow_len(FlowId::new(leaf.leaf))
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for HierarchicalSfq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "H-SFQ ({} groups, {} queued)",
            self.leaves.len(),
            self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn req(n: u64) -> Request {
        Request::at(SimTime::from_millis(n))
    }

    fn leaf(group: usize, leaf: usize) -> LeafId {
        LeafId { group, leaf }
    }

    #[test]
    fn group_shares_follow_group_weights() {
        // Groups 2:1, one leaf each, both saturated.
        let mut h = HierarchicalSfq::new(&[(2.0, vec![1.0]), (1.0, vec![1.0])]);
        for i in 0..300 {
            h.enqueue_leaf(leaf(0, 0), req(i));
            h.enqueue_leaf(leaf(1, 0), req(i));
        }
        let mut served = [0usize; 2];
        for _ in 0..300 {
            let (l, _) = h.dequeue_leaf().expect("backlogged");
            served[l.group] += 1;
        }
        let share = served[0] as f64 / 300.0;
        assert!((share - 2.0 / 3.0).abs() < 0.05, "share {share}");
    }

    #[test]
    fn leaf_shares_follow_leaf_weights_within_a_group() {
        let mut h = HierarchicalSfq::new(&[(1.0, vec![3.0, 1.0])]);
        for i in 0..200 {
            h.enqueue_leaf(leaf(0, 0), req(i));
            h.enqueue_leaf(leaf(0, 1), req(i));
        }
        let mut served = [0usize; 2];
        for _ in 0..200 {
            let (l, _) = h.dequeue_leaf().expect("backlogged");
            served[l.leaf] += 1;
        }
        let share = served[0] as f64 / 200.0;
        assert!((share - 0.75).abs() < 0.05, "share {share}");
    }

    #[test]
    fn idle_leaf_share_stays_inside_its_group() {
        // Group 0 (weight 1): only its heavy leaf is active; group 1
        // (weight 1) fully active. Group 0's idle-leaf share must flow to
        // its sibling: groups still split 50:50.
        let mut h = HierarchicalSfq::new(&[(1.0, vec![1.0, 9.0]), (1.0, vec![1.0])]);
        for i in 0..200 {
            h.enqueue_leaf(leaf(0, 0), req(i)); // the light leaf only
            h.enqueue_leaf(leaf(1, 0), req(i));
        }
        let mut group0 = 0usize;
        for _ in 0..200 {
            let (l, _) = h.dequeue_leaf().expect("backlogged");
            if l.group == 0 {
                group0 += 1;
            }
        }
        let share = group0 as f64 / 200.0;
        assert!(
            (share - 0.5).abs() < 0.05,
            "group 0 share {share}: sibling idle share leaked across groups"
        );
    }

    #[test]
    fn work_conserving_across_groups() {
        let mut h = HierarchicalSfq::new(&[(5.0, vec![1.0]), (1.0, vec![1.0, 1.0])]);
        for i in 0..10 {
            h.enqueue_leaf(leaf(1, 1), req(i));
        }
        for _ in 0..10 {
            let (l, _) = h.dequeue_leaf().expect("only group 1 backlogged");
            assert_eq!(l, leaf(1, 1));
        }
        assert!(h.dequeue_leaf().is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn per_leaf_fifo() {
        let mut h = HierarchicalSfq::new(&[(1.0, vec![1.0, 1.0])]);
        for i in 0..20 {
            h.enqueue_leaf(leaf(0, i % 2), req(i as u64));
        }
        let mut last = [None::<SimTime>; 2];
        while let Some((l, r)) = h.dequeue_leaf() {
            if let Some(prev) = last[l.leaf] {
                assert!(r.arrival > prev, "leaf FIFO violated");
            }
            last[l.leaf] = Some(r.arrival);
        }
    }

    #[test]
    fn accessors_and_display() {
        let h = HierarchicalSfq::new(&[(1.0, vec![1.0, 2.0]), (3.0, vec![1.0])]);
        assert_eq!(h.groups(), 2);
        assert_eq!(h.leaves_in(0), 2);
        assert_eq!(h.leaves_in(1), 1);
        assert_eq!(h.leaf_len(leaf(0, 1)), 0);
        assert_eq!(h.len(), 0);
        assert!(h.to_string().contains("H-SFQ"));
        assert_eq!(leaf(1, 0).to_string(), "group1/leaf0");
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn empty_spec_rejected() {
        let _ = HierarchicalSfq::new(&[]);
    }

    #[test]
    #[should_panic(expected = "unknown group")]
    fn enqueue_validates_group() {
        let mut h = HierarchicalSfq::new(&[(1.0, vec![1.0])]);
        h.enqueue_leaf(leaf(5, 0), req(0));
    }
}
