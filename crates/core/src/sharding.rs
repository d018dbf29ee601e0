//! Two-tier shard topology: grouping clusters into shards.
//!
//! At 500–1,000 clusters the flat federation's all-pairs peer scoring and
//! aggregation are quadratic in both bytes and score tasks. The two-tier
//! topology bounds both: clusters are grouped into shards by a seeded
//! balanced assignment, peer scoring and aggregation run *intra-shard*
//! (with the contract sampling at most `k` scorers per release), and
//! shards exchange sealed shard releases on a slower inter-shard cadence
//! (`ShardSealDue`/`ShardExchange` kernel events).
//!
//! A [`ShardConfig`] with `shards = 1` and no scorer cap is the flat
//! federation: the engines schedule no shard events, the contract's shard
//! map is empty, and the run is byte-identical to an unsharded one — the
//! equivalence `tests/sharding_equivalence.rs` pins.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use unifyfl_sim::SeedTree;

/// Operator-facing sharding knobs ([`ExperimentConfig::sharding`](crate::experiment::ExperimentConfig::sharding)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards clusters are grouped into (≥ 1; 1 = flat).
    pub shards: usize,
    /// Scorers sampled per release (the `k` of the O(n·k) bound); `None`
    /// keeps the paper's intra-shard majority (⌊n/2⌋ + 1).
    pub scorers_per_release: Option<usize>,
    /// Inter-shard exchange cadence: seal/exchange every this many rounds
    /// (sync) or nominal round-lengths (async). Must be ≥ 1.
    pub exchange_every: u64,
    /// Dynamic re-clustering cadence: regroup clusters by weight-space
    /// distance every this many rounds (sync) or nominal round-lengths
    /// (async), UnifiedFL-style. `None` (default) keeps the config-time
    /// assignment for the whole run — epoch 0 forever, byte-identical to
    /// the static engines. Must be ≥ 1 when set.
    pub regroup: Option<u64>,
    /// Variance-weighted intra-shard aggregation (Unify-style adaptive
    /// weighting): peers whose releases score *consistently* across
    /// scorers weigh more in merges, high-variance releases weigh less.
    /// Off by default — the equal-weight mean of the paper's Algorithm 1.
    pub adaptive_weighting: bool,
}

impl ShardConfig {
    /// A topology of `shards` shards with the default cadence (every
    /// other round), majority scoring, and static (config-time) grouping.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards,
            scorers_per_release: None,
            exchange_every: 2,
            regroup: None,
            adaptive_weighting: false,
        }
    }

    /// Caps scorers sampled per release at `k`.
    pub fn with_scorers(mut self, k: usize) -> Self {
        self.scorers_per_release = Some(k);
        self
    }

    /// Sets the inter-shard exchange cadence.
    pub fn with_exchange_every(mut self, rounds: u64) -> Self {
        self.exchange_every = rounds;
        self
    }

    /// Enables distance-driven dynamic re-clustering on the given cadence.
    pub fn with_regroup_every(mut self, rounds: u64) -> Self {
        self.regroup = Some(rounds);
        self
    }

    /// Enables variance-weighted (adaptive) intra-shard aggregation.
    pub fn with_adaptive_weighting(mut self) -> Self {
        self.adaptive_weighting = true;
        self
    }
}

/// The concrete shard assignment for one run: a pure function of
/// `(config, seed, n_clusters)`, so every engine (and a mid-run joiner)
/// lands each cluster in the same seeded shard. It holds the
/// [`ShardConfig`] it was derived from, so the scorer cap, the exchange
/// and regroup cadences and the weighting are read there, never copied.
/// A run keeps one live topology, in the
/// [`Federation`](crate::federation::Federation); a regroup replaces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTopology {
    /// Number of shards.
    pub shards: usize,
    /// Cluster index → shard, balanced to within one member.
    pub assignment: Vec<usize>,
    /// The knobs the topology was derived from.
    pub config: ShardConfig,
    /// Capacity bound regrouped shards respect: the config-time (epoch 0)
    /// largest shard size, so the sync engine's phase-window sizing stays
    /// valid across epochs while still letting drifted clusters co-locate.
    pub capacity: usize,
}

impl ShardTopology {
    /// Derives the seeded balanced assignment: cluster indices are
    /// shuffled with the experiment seed's `"sharding"` stream, and the
    /// cluster at shuffled position `p` lands in shard `p % shards` — so
    /// shard sizes differ by at most one, and the assignment covers
    /// not-yet-joined clusters identically on every engine.
    pub fn derive(config: &ShardConfig, seed: u64, n_clusters: usize) -> ShardTopology {
        let shards = config.shards.max(1);
        let mut order: Vec<usize> = (0..n_clusters).collect();
        let mut rng = StdRng::seed_from_u64(SeedTree::new(seed).seed("sharding"));
        order.shuffle(&mut rng);
        let mut assignment = vec![0usize; n_clusters];
        for (pos, cluster) in order.into_iter().enumerate() {
            assignment[cluster] = pos % shards;
        }
        let mut topology = ShardTopology {
            shards,
            assignment,
            config: config.clone(),
            capacity: 0,
        };
        topology.capacity = topology.max_shard_size();
        topology
    }

    /// True when more than one shard exists (shard events fire, views are
    /// filtered). A single-shard topology is behaviorally flat.
    pub fn is_sharded(&self) -> bool {
        self.shards > 1
    }

    /// The shard a cluster belongs to.
    pub fn shard_of(&self, cluster: usize) -> usize {
        self.assignment[cluster]
    }

    /// Members of a shard, in cluster-index order.
    pub fn members(&self, shard: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == shard)
            .map(|(i, _)| i)
            .collect()
    }

    /// Size of the largest shard (the peer-fan-out bound the sync engine
    /// sizes its phase windows from; equals `n` when flat).
    pub fn max_shard_size(&self) -> usize {
        (0..self.shards)
            .map(|s| self.assignment.iter().filter(|a| **a == s).count())
            .max()
            .unwrap_or(0)
    }

    /// Derives the next topology epoch by weight-space distance
    /// (UnifiedFL's dynamic clustering): clusters with nearby weights land
    /// in the same shard, so similar silos sync often and dissimilar ones
    /// exchange only on the slow inter-shard cadence.
    ///
    /// The grouping is a deterministic capacity-constrained greedy
    /// k-means sweep:
    ///
    /// 1. Each current shard nominates the member closest to the shard's
    ///    mean weight (lowest index on ties) as the new group's anchor —
    ///    groups keep their shard identity across epochs, so an unchanged
    ///    population regroups to itself.
    /// 2. Remaining clusters are absorbed greedily: each step assigns the
    ///    globally best `(cluster, group)` pair by squared Euclidean
    ///    distance to the group's running-mean centroid (f64), capped at
    ///    the epoch-0 [`capacity`](ShardTopology::capacity) members per
    ///    group. Exact distance ties prefer the cluster's incumbent shard,
    ///    then fall to a seeded jitter drawn from the experiment
    ///    [`SeedTree`]'s `"regroup"` subtree keyed by epoch — so identical
    ///    weights regroup to exactly the current assignment (a stable
    ///    no-op), and ties never depend on float summation order.
    ///
    /// Pure function of `(self, epoch, weights, seed)`: every engine, a
    /// checkpoint replay, and a mid-run joiner derive the same epoch.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the cluster count.
    pub fn regroup(&self, epoch: u64, weights: &[Vec<f32>], seed: u64) -> ShardTopology {
        let n = self.assignment.len();
        assert_eq!(weights.len(), n, "one weight vector per cluster");
        if !self.is_sharded() || n == 0 {
            return self.clone();
        }
        let w: Vec<Vec<f64>> = weights
            .iter()
            .map(|v| v.iter().map(|x| f64::from(*x)).collect())
            .collect();
        let sqdist =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let centroid = |members: &[usize]| -> Vec<f64> {
            let dim = w.first().map_or(0, Vec::len);
            let mut c = vec![0.0f64; dim];
            for m in members {
                for (acc, x) in c.iter_mut().zip(&w[*m]) {
                    *acc += x;
                }
            }
            let k = members.len().max(1) as f64;
            c.iter_mut().for_each(|x| *x /= k);
            c
        };

        // 1. Anchors: per current shard, the member nearest its centroid.
        let mut members: Vec<Vec<usize>> = Vec::with_capacity(self.shards);
        let mut unassigned: Vec<usize> = Vec::new();
        for shard in 0..self.shards {
            let old = self.members(shard);
            let c = centroid(&old);
            let anchor = old
                .iter()
                .copied()
                .min_by(|a, b| sqdist(&w[*a], &c).total_cmp(&sqdist(&w[*b], &c)))
                .expect("derive() leaves no shard empty at n >= shards");
            unassigned.extend(old.iter().copied().filter(|m| *m != anchor));
            members.push(vec![anchor]);
        }
        unassigned.sort_unstable();

        // 2. Greedy absorption under the epoch-0 capacity bound.
        let stream = SeedTree::new(seed).subtree("regroup");
        let mut rng = stream.rng(&format!("epoch-{epoch}"));
        let mut jitter = vec![vec![0.0f64; self.shards]; n];
        for row in &mut jitter {
            for cell in row.iter_mut() {
                *cell = rng.gen::<f64>();
            }
        }
        let mut centroids: Vec<Vec<f64>> = members.iter().map(|m| centroid(m)).collect();
        while !unassigned.is_empty() {
            let mut best: Option<(f64, f64, f64, usize, usize)> = None;
            for &c in &unassigned {
                for g in 0..self.shards {
                    if members[g].len() >= self.capacity.max(1) {
                        continue;
                    }
                    let incumbent = if self.assignment[c] == g { 0.0 } else { 1.0 };
                    let key = (sqdist(&w[c], &centroids[g]), incumbent, jitter[c][g], c, g);
                    let better = match &best {
                        None => true,
                        Some(b) => (key.0, key.1, key.2)
                            .partial_cmp(&(b.0, b.1, b.2))
                            .expect("distances and jitter are finite")
                            .is_lt(),
                    };
                    if better {
                        best = Some(key);
                    }
                }
            }
            let (_, _, _, c, g) = best.expect("capacity * shards >= n leaves a slot open");
            members[g].push(c);
            unassigned.retain(|x| *x != c);
            centroids[g] = centroid(&members[g]);
        }

        let mut assignment = vec![0usize; n];
        for (g, group) in members.iter().enumerate() {
            for m in group {
                assignment[*m] = g;
            }
        }
        ShardTopology {
            assignment,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_balanced_and_seed_deterministic() {
        let cfg = ShardConfig::new(4);
        let t = ShardTopology::derive(&cfg, 42, 10);
        assert_eq!(t.assignment.len(), 10);
        let sizes: Vec<usize> = (0..4).map(|s| t.members(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|s| *s == 2 || *s == 3), "{sizes:?}");
        assert_eq!(t.max_shard_size(), 3);
        assert_eq!(
            t,
            ShardTopology::derive(&cfg, 42, 10),
            "same seed, same map"
        );
        assert_ne!(
            t.assignment,
            ShardTopology::derive(&cfg, 43, 10).assignment,
            "different seed shuffles differently"
        );
    }

    #[test]
    fn single_shard_is_flat() {
        let t = ShardTopology::derive(&ShardConfig::new(1), 7, 5);
        assert!(!t.is_sharded());
        assert_eq!(t.assignment, vec![0; 5]);
        assert_eq!(t.max_shard_size(), 5);
        assert_eq!(t.members(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn members_are_index_ordered() {
        let t = ShardTopology::derive(&ShardConfig::new(3), 11, 9);
        for s in 0..3 {
            let m = t.members(s);
            assert!(m.windows(2).all(|w| w[0] < w[1]));
            assert!(m.iter().all(|i| t.shard_of(*i) == s));
        }
    }

    #[test]
    fn identical_weights_regroup_is_a_stable_noop() {
        let t = ShardTopology::derive(&ShardConfig::new(3).with_regroup_every(2), 42, 9);
        let weights = vec![vec![0.5f32; 8]; 9];
        let next = t.regroup(1, &weights, 42);
        assert_eq!(next, t, "all-equal weights must keep the assignment");
        // And stays a no-op across epochs and seeds.
        assert_eq!(next.regroup(2, &weights, 42), t);
        assert_eq!(t.regroup(1, &weights, 7), t);
    }

    #[test]
    fn regroup_separates_weight_space_blobs() {
        // Two tight blobs in weight space; whatever the seeded epoch-0
        // assignment, one regroup must co-locate each blob.
        let t = ShardTopology::derive(&ShardConfig::new(2).with_regroup_every(1), 1234, 6);
        let blob = |center: f32| vec![center, center, center];
        let weights: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 10.0 };
                let mut w = blob(c);
                w[0] += i as f32 * 1e-3;
                w
            })
            .collect();
        let next = t.regroup(1, &weights, 1234);
        let even_shard = next.shard_of(0);
        let odd_shard = next.shard_of(1);
        assert_ne!(even_shard, odd_shard);
        for i in 0..6 {
            let expect = if i % 2 == 0 { even_shard } else { odd_shard };
            assert_eq!(next.shard_of(i), expect, "cluster {i} in {next:?}");
        }
        assert_eq!(next.capacity, t.capacity, "capacity is the epoch-0 bound");
        assert_eq!(next.max_shard_size(), 3, "blobs fit the capacity bound");
    }

    #[test]
    fn joiner_regroups_into_the_distance_correct_shard() {
        // A mid-run joiner's seeded epoch-0 slot is arbitrary; once it has
        // trained, the next regroup must co-locate it with the silos its
        // weights actually resemble, wherever the seed first dealt it.
        for seed in [7u64, 42, 1234] {
            let t = ShardTopology::derive(&ShardConfig::new(2).with_regroup_every(1), seed, 6);
            // Founders 0..5 split into two tight blobs; joiner 5 lands
            // next to the 10.0 blob after its first local rounds.
            let weights: Vec<Vec<f32>> = (0..6)
                .map(|i| match i {
                    0..=2 => vec![0.0, 0.1 * i as f32, 0.0],
                    3 | 4 => vec![10.0, 10.0 + 0.1 * i as f32, 10.0],
                    _ => vec![10.2, 10.0, 9.9],
                })
                .collect();
            let next = t.regroup(1, &weights, seed);
            assert_eq!(
                next.shard_of(5),
                next.shard_of(3),
                "seed {seed}: joiner must land with the blob it resembles: {next:?}"
            );
            assert_ne!(next.shard_of(5), next.shard_of(0), "seed {seed}");
        }
    }

    #[test]
    fn regroup_is_deterministic_and_respects_capacity() {
        let t = ShardTopology::derive(&ShardConfig::new(2), 7, 5);
        let weights: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32 * 0.1; 4]).collect();
        let a = t.regroup(3, &weights, 7);
        let b = t.regroup(3, &weights, 7);
        assert_eq!(a, b, "pure function of (self, epoch, weights, seed)");
        assert!(a.max_shard_size() <= t.capacity);
        // A flat topology never regroups.
        let flat = ShardTopology::derive(&ShardConfig::new(1), 7, 5);
        assert_eq!(flat.regroup(1, &weights, 7), flat);
    }
}
