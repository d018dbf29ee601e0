//! [`ExperimentConfig::validate`]: every check a run passes before assembly.
//!
//! Each knob's own domain is declared once, as a row of [`KNOBS`];
//! `validate()` loops over the table, and the tests' grid probes every row
//! at its edges. What stays hand-written is what no single row can say:
//! the cross-knob rules, and the run's nominal horizon.

use unifyfl_sim::fault::FaultKind;
use unifyfl_sim::SimDuration;

use super::{ExperimentConfig, ExperimentError, Mode};
use crate::byzantine::{AttackKind, DpConfig};
use crate::cluster::ClusterConfig;
use Domain::*;

/// The longest run [`ExperimentConfig::validate`] admits, measured on the
/// cost models alone: a hundred million virtual seconds, about three
/// years.
///
/// A ceiling has to exist because every time-scaling knob is unbounded in
/// its own domain (any finite margin ≥ 1, any finite positive straggle
/// factor or bandwidth, any join offset), the virtual clock saturates
/// rather than overflows, and the chain seals lazily — one Clique block
/// per five virtual seconds up to whatever instant the next event fires
/// at — so a run's host cost is at least linear in its virtual length:
/// `window_margin = 1e300` used to validate and then seal blocks
/// (practically) forever. It is a constant, not a knob, because nothing
/// the tree can express from its own presets comes within an order of
/// magnitude: the costliest, Tiny ImageNet's 138 M-parameter cost model
/// trained on an edge CPU for 50 rounds, is nominally 7.6 × 10⁶ s on this
/// check's pessimistic terms (3 × 10⁴ s on the GPU profile the paper
/// used; its own runs are hours). At twenty million blocks the ceiling is
/// tens of minutes of sealing — slow, bounded, and nowhere near the clock's
/// last millisecond.
pub const MAX_NOMINAL_HORIZON: SimDuration = SimDuration::from_secs(100_000_000);

/// The shape of one knob's domain, over the knob's value read as `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Finite and > 0.
    Positive,
    /// Finite and ≥ 0.
    NonNegative,
    /// Finite and ≥ 1.
    AtLeastOne,
    /// > 1, infinity included.
    AboveOne,
    /// Finite and ≠ 1.
    NotOne,
    /// [0, 1].
    Probability,
    /// [0, 1).
    BelowCertain,
    /// An integer ≥ 1.
    Count,
    /// An integer in `lo ..= hi`.
    Range(u32, u32),
}

impl Domain {
    /// Whether `v` lies in the domain (NaN never does).
    pub fn contains(self, v: f64) -> bool {
        match self {
            Domain::Positive => v.is_finite() && v > 0.0,
            Domain::NonNegative => v.is_finite() && v >= 0.0,
            Domain::AtLeastOne => v.is_finite() && v >= 1.0,
            Domain::AboveOne => v > 1.0,
            Domain::NotOne => v.is_finite() && v != 1.0,
            Domain::Probability => (0.0..=1.0).contains(&v),
            Domain::BelowCertain => (0.0..1.0).contains(&v),
            Domain::Count => v >= 1.0,
            Domain::Range(lo, hi) => (f64::from(lo)..=f64::from(hi)).contains(&v),
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Domain::Positive => write!(f, "finite and > 0"),
            Domain::NonNegative => write!(f, "finite and >= 0"),
            Domain::AtLeastOne => write!(f, "finite and >= 1"),
            Domain::AboveOne => write!(f, "> 1"),
            Domain::NotOne => write!(f, "finite and != 1"),
            Domain::Probability => write!(f, "in [0, 1]"),
            Domain::BelowCertain => write!(f, "in [0, 1)"),
            Domain::Count => write!(f, "an integer >= 1"),
            Domain::Range(lo, hi) => write!(f, "an integer in {lo}..={hi}"),
        }
    }
}

/// Where a knob lives — once per run, per cluster, or per scripted chaos
/// event — and how to read it: `None` while the subsystem that owns the
/// knob is off.
#[derive(Debug, Clone, Copy)]
enum Reader {
    Run(ReadFn<ExperimentConfig>),
    Cluster(ReadFn<ClusterConfig>),
    Event(ReadFn<FaultKind>),
}

/// One row of [`KNOBS`]: a knob, where to read it, and its domain.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The knob's name, as [`ExperimentError::InvalidKnob`] spells it.
    pub name: &'static str,
    /// The values `validate()` accepts.
    pub domain: Domain,
    read: Reader,
}

impl Knob {
    /// The first value of this knob in `config` outside its domain, as the
    /// error naming it and the cluster it was set on.
    fn check(&self, config: &ExperimentConfig) -> Result<(), ExperimentError> {
        let bad = |v: Option<f64>| v.is_some_and(|v| !self.domain.contains(v));
        let named = |c: &ClusterConfig| Some(c.name.clone());
        let offender = match self.read {
            Reader::Run(read) => bad(read(config)).then_some(None),
            Reader::Cluster(read) => config.clusters.iter().find(|c| bad(read(c))).map(named),
            Reader::Event(read) => config
                .chaos
                .iter()
                .flat_map(|chaos| &chaos.events)
                .find(|e| bad(read(&e.kind)))
                .map(|e| config.clusters.get(e.cluster).and_then(named)),
        };
        let knob = self.name;
        offender.map_or(Ok(()), |cluster| {
            Err(ExperimentError::InvalidKnob { knob, cluster })
        })
    }
}

type ReadFn<T> = fn(&T) -> Option<f64>;

const fn run(name: &'static str, domain: Domain, read: ReadFn<ExperimentConfig>) -> Knob {
    let read = Reader::Run(read);
    Knob { name, domain, read }
}

const fn cluster(name: &'static str, domain: Domain, read: ReadFn<ClusterConfig>) -> Knob {
    let read = Reader::Cluster(read);
    Knob { name, domain, read }
}

const fn event(name: &'static str, domain: Domain, read: ReadFn<FaultKind>) -> Knob {
    let read = Reader::Event(read);
    Knob { name, domain, read }
}

/// Every per-knob domain, declared once. `validate()` refuses a value
/// outside its row's domain as [`ExperimentError::InvalidKnob`] naming
/// the row; the tests' grid and the configuration-coverage test read the
/// same table, so a knob cannot be added without a domain.
///
/// Durations read in milliseconds, the clock's own unit.
#[rustfmt::skip]
pub static KNOBS: &[Knob] = &[
    // Window sizing multiplies by the margin: below 1 a window is shorter
    // than the round it waits for.
    run("window_margin", AtLeastOne, |c| Some(c.window_margin)),
    // Training would panic on the first batch (or, for an infinite rate,
    // train NaNs), and data synthesis deals samples round-robin over the
    // classes. A fit always trains an epoch while the cost model prices
    // `local_epochs` of them: at zero the run would train for free.
    run("learning_rate", Positive, |c| Some(f64::from(c.workload.learning_rate))),
    run("batch_size", Count, |c| Some(c.workload.batch_size as f64)),
    run("local_epochs", Count, |c| Some(c.workload.local_epochs as f64)),
    run("dataset.n_classes", Count, |c| Some(c.workload.dataset.n_classes as f64)),
    run("dataset.n_samples", Count, |c| Some(c.workload.dataset.n_samples as f64)),
    run("dataset.label_noise", Probability, |c| Some(c.workload.dataset.label_noise)),
    // A standard deviation: non-finite features train nothing, and a
    // negative σ is not a σ.
    run("dataset.noise_scale", NonNegative, |c| Some(c.workload.dataset.noise_scale)),
    run("sharding.shards", Count, |c| c.sharding.as_ref().map(|s| s.shards as f64)),
    run("sharding.scorers_per_release", Count, |c| {
        c.sharding.as_ref()?.scorers_per_release.map(|n| n as f64)
    }),
    run("sharding.exchange_every", Count, |c| c.sharding.as_ref().map(|s| s.exchange_every as f64)),
    run("sharding.regroup", Count, |c| c.sharding.as_ref()?.regroup.map(|n| n as f64)),
    run("gossip.degree", Count, |c| c.gossip.map(|g| g.degree as f64)),
    run("gossip.swarm", Count, |c| c.gossip.map(|g| g.swarm as f64)),
    run("chaos.crash_prob", Probability, |c| c.chaos.as_ref().map(|x| x.crash_prob)),
    // A crash that keeps its cluster down for no round is no crash.
    run("chaos.crash_down_rounds", Count, |c| c.chaos.as_ref().map(|x| x.crash_down_rounds as f64)),
    run("chaos.leave_prob", Probability, |c| c.chaos.as_ref().map(|x| x.leave_prob)),
    run("chaos.spike_prob", Probability, |c| c.chaos.as_ref().map(|x| x.spike_prob)),
    // A factor of 1 is an inert spike: it would count as planned yet never
    // fire, so it is refused like any other masquerading fault.
    run("chaos.spike_factor", AboveOne, |c| c.chaos.as_ref().map(|x| x.spike_factor)),
    run("chaos.fetch_failure_prob", Probability, |c| {
        c.chaos.as_ref().map(|x| x.fetch_failure_prob)
    }),
    // Certain chunk loss is allowed (it is retried, then abandoned).
    run("chaos.chunk_loss_prob", Probability, |c| c.chaos.as_ref().map(|x| x.chunk_loss_prob)),
    // A certain miss every slot would halt block production outright.
    run("chaos.missed_seal_prob", BelowCertain, |c| c.chaos.as_ref().map(|x| x.missed_seal_prob)),
    run("chaos.dropped_tx_prob", Probability, |c| c.chaos.as_ref().map(|x| x.dropped_tx_prob)),
    // A scripted fault with an inert payload would silently never fire.
    event("chaos.events.down_rounds", Count, |k| match *k {
        FaultKind::Crash { down_rounds } => Some(down_rounds as f64),
        _ => None,
    }),
    event("chaos.events.factor", AboveOne, |k| match *k {
        FaultKind::LatencySpike { factor } => Some(factor),
        _ => None,
    }),
    event("chaos.events.skew", Count, |k| match *k {
        FaultKind::ClockSkew { skew } => Some(skew.as_millis() as f64),
        _ => None,
    }),
    cluster("n_clients", Count, |c| Some(c.n_clients as f64)),
    // Window sizing divides by the straggle factor; a non-finite quotient
    // collapses to a zero window, and every cluster straggles every round.
    cluster("straggle_factor", Positive, |c| Some(c.straggle_factor)),
    cluster("release_mantissa_bits", Range(1, 23), |c| Some(f64::from(c.release_mantissa_bits))),
    // A zero offset is a founder misconfigured as a joiner.
    cluster("joins_at", Count, |c| c.joins_at.map(|d| d.as_millis() as f64)),
    // Transfer time is bytes over bandwidth: zero, negative and NaN all
    // price a transfer as free (and NaN ranks the silo first among
    // providers).
    cluster("link.bandwidth_bps", Positive, |c| c.link.map(|l| l.bandwidth_bps)),
    // A non-finite clip or multiplier releases NaNs on chain for every
    // peer to merge; a zero or negative clip an all-zero or sign-flipped
    // model. How large a release may get is a cross-knob rule, below.
    cluster("dp.clip_norm", Positive, |c| c.dp.map(|dp| dp.clip_norm)),
    cluster("dp.noise_multiplier", NonNegative, |c| c.dp.map(|dp| dp.noise_multiplier)),
    // The attacker's parameters are finite and not inert (σ = 0 or a
    // factor of 1 attacks nothing), but get no upper bound: a hostile
    // release is the attack itself.
    cluster("attack.sigma", Positive, |c| match c.attack {
        Some(AttackKind::GaussianNoise { sigma }) => Some(sigma),
        _ => None,
    }),
    cluster("attack.factor", NotOne, |c| match c.attack {
        Some(AttackKind::ScaleUp { factor }) => Some(factor),
        _ => None,
    }),
];

/// Whether every weight a cluster's [`DpConfig`], if any, releases is
/// finite in `f32`. A released weight is a clipped weight (|w| ≤
/// `clip_norm`) plus `standard_normal · σ`, with σ ≤ `noise_multiplier ·
/// clip_norm`; and `standard_normal` draws its uniform `u1 ≥
/// f64::MIN_POSITIVE`, so every draw has |N| ≤ √(−2 ln `MIN_POSITIVE`) ≈
/// 37.7. Hence `clip_norm · (1 + 38 · noise_multiplier) ≤ f32::MAX` bounds
/// the release (taken as `clip_norm + 38 · (noise_multiplier · clip_norm)`
/// so that a huge multiplier on a tiny clip does not overflow `f64`
/// first).
fn release_fits_f32(dp: Option<DpConfig>) -> bool {
    dp.is_none_or(|dp| {
        dp.clip_norm + 38.0 * (dp.noise_multiplier * dp.clip_norm) <= f32::MAX.into()
    })
}

impl ExperimentConfig {
    /// Validates the configuration: every [`KNOBS`] row in its domain,
    /// then the cross-knob rules, then the nominal horizon.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExperimentError`] found.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        let n = self.clusters.len();
        if n < 2 {
            return Err(ExperimentError::TooFewClusters(n));
        }
        let krum = self.scorer.requires_full_round();
        if self.mode == Mode::Async && krum {
            return Err(ExperimentError::MultiKrumRequiresSync);
        }
        // MultiKRUM's Byzantine bound f (see `krum_assumed_byzantine`) must
        // satisfy Krum's n ≥ 2f + 3 assumption; below 3 clusters no f does.
        if krum && n < 3 {
            return Err(ExperimentError::MultiKrumTooFewClusters(n));
        }
        for knob in KNOBS {
            knob.check(self)?;
        }
        let invalid = |knob, c: Option<&ClusterConfig>| {
            let cluster = c.map(|c| c.name.clone());
            Err(ExperimentError::InvalidKnob { knob, cluster })
        };
        // The first batch feeds dataset-shaped tensors and labels to the
        // model: a different input shape, or a label past the model's
        // outputs, aborts in the first layer or in the loss.
        let workload = &self.workload;
        if workload.model.input() != workload.dataset.input {
            return invalid("model (input shape differs from the dataset's)", None);
        }
        if workload.model.classes() < workload.dataset.n_classes {
            return invalid("model (fewer outputs than the dataset has classes)", None);
        }
        let founders = self
            .clusters
            .iter()
            .filter(|c| c.joins_at.is_none())
            .count();
        if founders < 2 {
            return Err(ExperimentError::TooFewFounders(founders));
        }
        if let Some(c) = self.clusters.iter().find(|c| !release_fits_f32(c.dp)) {
            return invalid("dp (release past f32 range)", Some(c));
        }
        if let Some(sharding) = &self.sharding {
            if sharding.shards > n {
                return invalid("sharding.shards (more shards than clusters)", None);
            }
            // MultiKRUM scores a whole round at once, so under sharding its
            // round is the *shard's* round: every shard must still satisfy
            // Krum's n ≥ 2f + 3 floor. Balanced assignment makes the
            // smallest shard ⌊n/shards⌋ members.
            if sharding.shards > 1 && krum && n / sharding.shards < 3 {
                return invalid("sharding.shards (multikrum needs 3 per shard)", None);
            }
        }
        // An event outside the round schedule would silently never fire;
        // refuse it so a typo'd fault cannot masquerade as a survived one.
        for e in self.chaos.iter().flat_map(|chaos| &chaos.events) {
            let Some(c) = self.clusters.get(e.cluster) else {
                return invalid("chaos.events.cluster (no such cluster)", None);
            };
            if e.round == 0 || e.round > workload.rounds as u64 {
                return invalid("chaos.events.round (outside the run's rounds)", Some(c));
            }
        }
        // Last, with every knob known to be in its own domain: together
        // they must not describe a run that (practically) never ends.
        self.check_horizon()
    }

    /// Rejects a configuration whose nominal virtual length — the latest
    /// join, plus `rounds × window_margin ×` the slowest cluster's nominal
    /// round — is past [`MAX_NOMINAL_HORIZON`], naming the knob that puts
    /// it there. A `joins_at` past the ceiling is named outright;
    /// otherwise `window_margin`, the slowest cluster's `straggle_factor`
    /// and its `link.bandwidth_bps` are set back to neutral (1, 1, no
    /// explicit link) one after another, and the knob whose turn brings
    /// the run under the ceiling is the one named — `workload` when even
    /// all three do not (rounds × model × samples).
    fn check_horizon(&self) -> Result<(), ExperimentError> {
        let ceiling = MAX_NOMINAL_HORIZON.as_secs_f64();
        let too_long = |knob, cluster: Option<&ClusterConfig>| {
            Err(ExperimentError::HorizonTooLong {
                knob,
                cluster: cluster.map(|c| c.name.clone()),
            })
        };
        let join = |c: &ClusterConfig| c.joins_at.map_or(0.0, |d| d.as_secs_f64());
        let latest = self
            .clusters
            .iter()
            .max_by(|a, b| join(a).total_cmp(&join(b)));
        let latest = latest.expect("validated: at least two clusters");
        if join(latest) > ceiling {
            return too_long("joins_at", Some(latest));
        }
        // The slowest cluster, every knob as configured.
        let round = |c: &ClusterConfig| self.nominal_round_secs(c, c.straggle_factor, true);
        let slowest = self
            .clusters
            .iter()
            .max_by(|a, b| round(a).total_cmp(&round(b)));
        let slowest = slowest.expect("validated: at least two clusters");
        let rounds = self.workload.rounds as f64;
        let horizon = |margin: f64, straggle: f64, link: bool| {
            join(latest) + rounds * margin * self.nominal_round_secs(slowest, straggle, link)
        };
        if horizon(self.window_margin, slowest.straggle_factor, true) <= ceiling {
            Ok(())
        } else if horizon(1.0, slowest.straggle_factor, true) <= ceiling {
            too_long("window_margin", None)
        } else if horizon(1.0, 1.0, true) <= ceiling {
            too_long("straggle_factor", Some(slowest))
        } else if horizon(1.0, 1.0, false) <= ceiling {
            too_long("link.bandwidth_bps", Some(slowest))
        } else {
            too_long("workload", None)
        }
    }

    /// One round of cluster `c` on the cost models, in virtual seconds and
    /// in `f64` (the clock's own arithmetic clamps what it cannot hold):
    /// a full pull of its peers, a local round, a publish and a scoring
    /// pass per peer. Pessimistic where assembly alone could say better —
    /// the whole dataset in this one cluster's shard — and on every fetch
    /// the slower of the device's path and the explicit storage link's
    /// (`link`: whether to count that link at all), whichever the link
    /// model will charge.
    pub(super) fn nominal_round_secs(&self, c: &ClusterConfig, straggle: f64, link: bool) -> f64 {
        let workload = &self.workload;
        let spec = &workload.model;
        let peers = match &self.sharding {
            Some(sharding) => self.clusters.len().div_ceil(sharding.shards),
            None => self.clusters.len(),
        }
        .saturating_sub(1) as f64;
        let samples = workload.dataset.n_samples as f64;
        let flops = spec.flops_per_train_sample() * samples * workload.local_epochs as f64
            + spec.flops_per_eval_sample() * samples * peers;
        let compute = flops * straggle / c.client_device.flops_per_sec();
        let bytes = spec.wire_bytes() as f64;
        let device = &c.client_device;
        let mut fetch = device.net_latency().as_secs_f64() + bytes / device.net_bandwidth_bps();
        if let Some(l) = c.link.filter(|_| link) {
            fetch = fetch.max(l.latency.as_secs_f64() + bytes / l.bandwidth_bps);
        }
        compute + 2.0 * peers * fetch
    }
}
