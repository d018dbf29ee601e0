//! Typed validation and assembly failures.

use super::{KNOBS, MAX_NOMINAL_HORIZON};

/// Validation failure for an experiment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// MultiKRUM requires all of a round's submissions (Table 3).
    MultiKrumRequiresSync,
    /// MultiKRUM needs enough clusters for an admissible Byzantine bound:
    /// Krum assumes `n ≥ 2f + 3`, which no `f ≥ 0` satisfies below 3
    /// clusters. Carries the offending cluster count.
    MultiKrumTooFewClusters(usize),
    /// Cross-silo FL needs at least two clusters.
    TooFewClusters(usize),
    /// Elastic membership needs at least two *founding* clusters (a joiner
    /// must have a federation to join). Carries the founder count.
    TooFewFounders(usize),
    /// A knob is outside its domain. `knob` is the name of the
    /// [`KNOBS`] row whose [`Domain`](super::Domain) the value fails or,
    /// for a cross-knob rule, that rule, led by the knob it is about.
    /// `cluster` names the cluster the knob was set on, if any.
    InvalidKnob {
        /// The offending row, or the broken cross-knob rule.
        knob: &'static str,
        /// The cluster whose knob it is (`None` for run-wide ones).
        cluster: Option<String>,
    },
    /// The dataset cannot give every cluster a shard: `samples` remain
    /// after the global test split, for `clusters` clusters.
    TooFewSamples {
        /// Samples left to partition.
        samples: usize,
        /// Clusters to partition them across.
        clusters: usize,
    },
    /// The run's nominal virtual length is past [`MAX_NOMINAL_HORIZON`].
    /// Carries the knob that puts it there — `window_margin`,
    /// `straggle_factor`, `joins_at` or `link.bandwidth_bps`, each finite
    /// and in its own domain — or `workload` when no single one does
    /// (rounds × model × samples), and the cluster it was set on, if any.
    HorizonTooLong {
        /// The offending knob.
        knob: &'static str,
        /// The cluster whose knob it is (`None` for federation-wide ones).
        cluster: Option<String>,
    },
    /// A cluster's shard cannot give each of its clients a training sample
    /// (found at assembly: shard sizes depend on the partition's draws).
    ShardTooSmall {
        /// The cluster's name.
        cluster: String,
        /// Training samples in its shard, after the scorer holdout.
        samples: usize,
        /// Clients configured for it.
        clients: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::MultiKrumRequiresSync => {
                write!(f, "multikrum scoring is only supported in sync mode")
            }
            ExperimentError::MultiKrumTooFewClusters(n) => {
                write!(
                    f,
                    "multikrum scoring needs at least 3 clusters (Krum assumes n >= 2f + 3), got {n}"
                )
            }
            ExperimentError::TooFewClusters(n) => {
                write!(f, "cross-silo FL needs at least 2 clusters, got {n}")
            }
            ExperimentError::TooFewFounders(n) => {
                write!(
                    f,
                    "elastic membership needs at least 2 founding clusters, got {n}"
                )
            }
            ExperimentError::InvalidKnob { knob, cluster } => {
                if let Some(cluster) = cluster {
                    write!(f, "cluster {cluster:?}: ")?;
                }
                write!(f, "{knob}")?;
                match KNOBS.iter().find(|row| row.name == *knob) {
                    Some(row) => write!(f, " must be {}", row.domain),
                    None => Ok(()),
                }
            }
            ExperimentError::TooFewSamples { samples, clusters } => {
                write!(
                    f,
                    "{samples} samples after the global test split cannot be partitioned across {clusters} clusters"
                )
            }
            ExperimentError::HorizonTooLong { knob, cluster } => {
                write!(f, "{knob}")?;
                if let Some(cluster) = cluster {
                    write!(f, " of cluster {cluster:?}")?;
                }
                write!(
                    f,
                    " puts the run's nominal length past {} virtual seconds",
                    MAX_NOMINAL_HORIZON.as_secs_f64()
                )
            }
            ExperimentError::ShardTooSmall {
                cluster,
                samples,
                clients,
            } => {
                write!(
                    f,
                    "shard of cluster {cluster:?} has {samples} training samples for {clients} clients"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}
