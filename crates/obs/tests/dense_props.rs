//! Differential properties: [`LatencySketch`], which stores only its
//! occupied bucket range, must answer every query exactly as the dense
//! 1920-bucket oracle (`dense_oracle`) does, after arbitrary records and
//! arbitrary merge trees — empty operands included.
//!
//! Its stored range is canonical (fixed by the exact min and max), so
//! sketches of one multiset compare `==` however the values were ordered
//! or the shards merged; the last property pins that.

mod dense_oracle;

use gqos_obs::LatencySketch;
use proptest::prelude::*;

use dense_oracle::DenseSketch;

/// Quantiles probed on every comparison, extremes included.
const Q_GRID: [f64; 9] = [0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];

/// Bucket-layout edges: the lossless region's ends, every power of two
/// and its neighbours, and `u64::MAX`.
fn edge_values() -> Vec<u64> {
    let mut edges = vec![0, 1, 31, 32, 33, u64::MAX - 1, u64::MAX];
    for e in 5..64u32 {
        let base = 1u64 << e;
        edges.extend([base - 1, base, base + 1]);
    }
    edges
}

fn value() -> impl Strategy<Value = u64> {
    let edges = edge_values();
    prop_oneof![
        (0..edges.len()).prop_map(move |i| edges[i]),
        0u64..32,
        32u64..1_000_000,
        1_000_000u64..10_000_000_000_000,
        any::<u64>(),
    ]
}

/// Shards of values, each possibly empty.
fn shards() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(value(), 0..40), 1..8)
}

/// Merge picks: each pair names (modulo the operands left) the operand
/// merged into and the one merged away.
fn picks() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((any::<usize>(), any::<usize>()), 0..8)
}

/// Reduces `operands` to one by the merge tree `picks` describes, then
/// folds any operands left over from left to right.
fn merge_tree<S>(mut operands: Vec<S>, picks: &[(usize, usize)], merge: impl Fn(&mut S, &S)) -> S {
    for &(into, away) in picks {
        if operands.len() < 2 {
            break;
        }
        let taken = operands.remove(away % operands.len());
        let into = into % operands.len();
        merge(&mut operands[into], &taken);
    }
    let mut rest = operands.into_iter();
    let mut whole = rest.next().expect("at least one operand");
    for s in rest {
        merge(&mut whole, &s);
    }
    whole
}

/// `values` in a seed-determined order (Fisher–Yates over splitmix64).
fn shuffled(values: &[u64], mut seed: u64) -> Vec<u64> {
    let mut out = values.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

fn sketch_of(values: &[u64]) -> LatencySketch {
    let mut s = LatencySketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

fn dense_of(values: &[u64]) -> DenseSketch {
    let mut s = DenseSketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

/// Every observable of `sketch` equals the oracle's.
fn assert_agrees(sketch: &LatencySketch, dense: &DenseSketch) -> Result<(), TestCaseError> {
    prop_assert_eq!(sketch.count(), dense.count());
    prop_assert_eq!(sketch.is_empty(), dense.is_empty());
    prop_assert_eq!(sketch.min(), dense.min());
    prop_assert_eq!(sketch.max(), dense.max());
    prop_assert_eq!(sketch.mean().to_bits(), dense.mean().to_bits());
    for q in Q_GRID {
        prop_assert_eq!(sketch.quantile(q), dense.quantile(q), "quantile {}", q);
    }
    let buckets = dense.nonzero_buckets();
    prop_assert_eq!(sketch.nonzero_buckets(), buckets.clone());
    // The oracle's own census at the extremes and at every non-empty
    // bucket; at every other upper bound in range, the census its
    // non-empty buckets imply (the dense walk is O(1920) per threshold).
    for t in [0, u64::MAX]
        .into_iter()
        .chain(buckets.iter().map(|&(u, _)| u))
    {
        prop_assert_eq!(
            sketch.count_at_most(t),
            dense.count_at_most(t),
            "threshold {}",
            t
        );
    }
    if !dense.is_empty() {
        let range = DenseSketch::bucket_index(dense.min())..=DenseSketch::bucket_index(dense.max());
        let mut below = 0;
        let mut rest = buckets.iter().peekable();
        for t in range.map(DenseSketch::bucket_upper) {
            while let Some((_, c)) = rest.next_if(|&&(u, _)| u <= t) {
                below += c;
            }
            prop_assert_eq!(sketch.count_at_most(t), below, "threshold {}", t);
        }
    }
    Ok(())
}

proptest! {
    // Each case sweeps `count_at_most` over up to all 1920 buckets, which
    // is quadratic in the range: 64 cases keep the debug-build run short.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording one value at a time agrees with the oracle.
    #[test]
    fn recorded_sketch_matches_dense_oracle(values in prop::collection::vec(value(), 0..400)) {
        assert_agrees(&sketch_of(&values), &dense_of(&values))?;
    }

    /// Any merge tree over any shards, empty ones included, agrees with
    /// the oracle merged by the same tree and with the dense sketch of
    /// the concatenated stream.
    #[test]
    fn merge_trees_match_dense_oracle(shards in shards(), picks in picks()) {
        let merged = merge_tree(
            shards.iter().map(|s| sketch_of(s)).collect(),
            &picks,
            LatencySketch::merge,
        );
        let dense = merge_tree(
            shards.iter().map(|s| dense_of(s)).collect(),
            &picks,
            DenseSketch::merge,
        );
        assert_agrees(&merged, &dense)?;
        prop_assert_eq!(&dense, &dense_of(&shards.concat()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One multiset gives `==` sketches whatever the recording order and
    /// merge tree: the stored range is canonical.
    #[test]
    fn one_multiset_gives_equal_sketches(
        shards in shards(),
        seed in any::<u64>(),
        picks_a in picks(),
        picks_b in picks(),
    ) {
        let flat = shards.concat();
        let reference = sketch_of(&flat);
        let leaves: Vec<LatencySketch> = shards.iter().map(|s| sketch_of(s)).collect();
        prop_assert_eq!(&sketch_of(&shuffled(&flat, seed)), &reference);
        prop_assert_eq!(
            &merge_tree(leaves.clone(), &picks_a, LatencySketch::merge),
            &reference
        );
        prop_assert_eq!(&merge_tree(leaves, &picks_b, LatencySketch::merge), &reference);
    }
}

/// The layout edges, each recorded alone and all together, agree with
/// the oracle: the single-bucket ranges at both ends of the layout and
/// the widest range there is.
#[test]
fn edge_values_match_dense_oracle() {
    let edges = edge_values();
    for &v in &edges {
        assert_agrees(&sketch_of(&[v]), &dense_of(&[v])).unwrap();
    }
    assert_agrees(&sketch_of(&edges), &dense_of(&edges)).unwrap();
    let mut rev = edges.clone();
    rev.reverse();
    assert_eq!(sketch_of(&rev), sketch_of(&edges));
}
