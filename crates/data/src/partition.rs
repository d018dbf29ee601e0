//! IID and Dirichlet non-IID partitioning.
//!
//! §4.1.2 of the paper partitions the training data either uniformly (IID)
//! or with a Dirichlet label-distribution skew (α ∈ {0.1, 0.5}), following
//! Yurochkin et al. Small α concentrates each partition on few classes —
//! the harsh heterogeneity regime where collaboration matters most.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;
use crate::synthetic::standard_normal;

/// Data-partitioning scheme across clusters/clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partition {
    /// Uniform random split: every part sees every class.
    Iid,
    /// Dirichlet(α) label-distribution skew.
    Dirichlet {
        /// Concentration parameter; smaller = more skewed.
        alpha: f64,
    },
    /// Hard domain split: classes are carved into `domains` contiguous
    /// blocks and part `p` draws *only* from domain `p % domains`. The
    /// severest heterogeneity regime — parts in different domains share no
    /// classes at all — used to stress dynamic re-clustering, which should
    /// discover the domain structure from weight-space distances.
    Domains {
        /// Number of disjoint class-block domains (≥ 1, ≤ class count).
        domains: usize,
    },
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partition::Iid => write!(f, "IID"),
            Partition::Dirichlet { alpha } => write!(f, "NIID α={alpha}"),
            Partition::Domains { domains } => write!(f, "DOMAINS d={domains}"),
        }
    }
}

impl Partition {
    /// Splits `dataset` into `n_parts` disjoint subsets.
    ///
    /// Every sample is assigned to exactly one part. Parts can be empty in
    /// extreme Dirichlet draws, but each part is topped up to at least one
    /// sample when the dataset allows it.
    ///
    /// # Panics
    ///
    /// Panics if `n_parts` is zero or exceeds the sample count.
    pub fn split(&self, dataset: &Dataset, n_parts: usize, rng: &mut StdRng) -> Vec<Dataset> {
        assert!(n_parts > 0, "need at least one part");
        assert!(
            n_parts <= dataset.len(),
            "more parts ({n_parts}) than samples ({})",
            dataset.len()
        );
        let mut parts = match self {
            Partition::Iid => iid_indices(dataset.len(), n_parts, rng),
            Partition::Dirichlet { alpha } => {
                dirichlet_indices(dataset.labels(), dataset.n_classes(), n_parts, *alpha, rng)
            }
            Partition::Domains { domains } => domain_indices(
                dataset.labels(),
                dataset.n_classes(),
                n_parts,
                *domains,
                rng,
            ),
        };
        // An extreme Dirichlet draw or a tiny domain can starve a part: top
        // it up from the largest (stealing may cross domains, but only in
        // degenerate sample-starved configurations). IID never starves one.
        for p in 0..n_parts {
            if parts[p].is_empty() {
                let donor = (0..n_parts)
                    .max_by_key(|&q| parts[q].len())
                    .expect("at least one part");
                if parts[donor].len() > 1 {
                    let moved = parts[donor].pop().expect("donor non-empty");
                    parts[p].push(moved);
                }
            }
        }
        parts.iter().map(|idx| dataset.subset(idx)).collect()
    }
}

fn iid_indices(n: usize, n_parts: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let base = n / n_parts;
    let extra = n % n_parts;
    let mut out = Vec::with_capacity(n_parts);
    let mut cursor = 0;
    for p in 0..n_parts {
        let take = base + usize::from(p < extra);
        out.push(idx[cursor..cursor + take].to_vec());
        cursor += take;
    }
    out
}

fn dirichlet_indices(
    labels: &[usize],
    n_classes: usize,
    n_parts: usize,
    alpha: f64,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n_parts];
    // Per class: draw p ~ Dir(α·1) over parts, deal that class's samples out
    // proportionally.
    for class in 0..n_classes {
        let mut members: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == class)
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue;
        }
        members.shuffle(rng);
        let props = dirichlet(&vec![alpha; n_parts], rng);
        // Convert proportions to cumulative cut points over the members.
        let n = members.len();
        let mut cursor = 0usize;
        let mut acc = 0.0f64;
        for (p, part) in props.iter().zip(parts.iter_mut()) {
            acc += p;
            let end = ((acc * n as f64).round() as usize).min(n);
            part.extend_from_slice(&members[cursor..end]);
            cursor = end;
        }
        // Rounding remainder goes to the last part.
        if cursor < n {
            parts[n_parts - 1].extend_from_slice(&members[cursor..]);
        }
    }
    parts
}

fn domain_indices(
    labels: &[usize],
    n_classes: usize,
    n_parts: usize,
    domains: usize,
    rng: &mut StdRng,
) -> Vec<Vec<usize>> {
    assert!(domains > 0, "need at least one domain");
    assert!(
        domains <= n_classes,
        "more domains ({domains}) than classes ({n_classes})"
    );
    assert!(
        domains <= n_parts,
        "more domains ({domains}) than parts ({n_parts}); a domain would be unowned"
    );
    // Class c belongs to domain ⌊c·domains/n_classes⌋: contiguous blocks,
    // near-equal in class count.
    let domain_of = |class: usize| class * domains / n_classes;
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n_parts];
    for d in 0..domains {
        let mut members: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| domain_of(**l) == d)
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue;
        }
        members.shuffle(rng);
        // Deal the domain's samples evenly among the parts it owns.
        let owners: Vec<usize> = (0..n_parts).filter(|p| p % domains == d).collect();
        let n = members.len();
        let base = n / owners.len();
        let extra = n % owners.len();
        let mut cursor = 0;
        for (k, &p) in owners.iter().enumerate() {
            let take = base + usize::from(k < extra);
            parts[p].extend_from_slice(&members[cursor..cursor + take]);
            cursor += take;
        }
    }
    parts
}

/// Samples from a Dirichlet distribution with concentration `alphas`.
///
/// # Panics
///
/// Panics if `alphas` is empty or any α is not strictly positive.
pub fn dirichlet(alphas: &[f64], rng: &mut StdRng) -> Vec<f64> {
    assert!(!alphas.is_empty(), "need at least one alpha");
    let draws: Vec<f64> = alphas.iter().map(|&a| gamma_sample(a, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        // Numerically degenerate draw; fall back to uniform.
        return vec![1.0 / alphas.len() as f64; alphas.len()];
    }
    draws.iter().map(|d| d / sum).collect()
}

/// Gamma(α, 1) sampling via Marsaglia–Tsang, with the α < 1 boost.
///
/// # Panics
///
/// Panics if `alpha` is not strictly positive and finite.
pub fn gamma_sample(alpha: f64, rng: &mut StdRng) -> f64 {
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
    if alpha < 1.0 {
        // Gamma(α) = Gamma(α+1) · U^{1/α}
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma_sample(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Quantifies label skew of a partition: mean total-variation distance
/// between each part's label distribution and the global one (0 = IID-like,
/// → 1 = each part sees a single class).
pub fn label_skew(parts: &[Dataset]) -> f64 {
    if parts.is_empty() {
        return 0.0;
    }
    let n_classes = parts[0].n_classes();
    let total: usize = parts.iter().map(Dataset::len).sum();
    if total == 0 {
        return 0.0;
    }
    let mut global = vec![0.0f64; n_classes];
    for p in parts {
        for (g, c) in global.iter_mut().zip(p.class_histogram()) {
            *g += c as f64;
        }
    }
    for g in global.iter_mut() {
        *g /= total as f64;
    }
    let mut tv_sum = 0.0;
    for p in parts {
        if p.is_empty() {
            continue;
        }
        let hist = p.class_histogram();
        let n = p.len() as f64;
        let tv: f64 = hist
            .iter()
            .zip(&global)
            .map(|(&h, g)| ((h as f64 / n) - g).abs())
            .sum::<f64>()
            / 2.0;
        tv_sum += tv;
    }
    tv_sum / parts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use rand::SeedableRng;

    fn dataset(n: usize) -> Dataset {
        let mut cfg = SyntheticConfig::cifar10_like(n);
        cfg.label_noise = 0.0;
        cfg.generate(42)
    }

    #[test]
    fn iid_split_is_disjoint_and_complete() {
        let d = dataset(1000);
        let mut rng = StdRng::seed_from_u64(1);
        let parts = Partition::Iid.split(&d, 4, &mut rng);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 1000);
        // Near-equal sizes.
        assert!(parts.iter().all(|p| p.len() == 250));
    }

    #[test]
    fn iid_split_has_low_skew() {
        let d = dataset(2000);
        let mut rng = StdRng::seed_from_u64(2);
        let parts = Partition::Iid.split(&d, 4, &mut rng);
        assert!(label_skew(&parts) < 0.1, "skew = {}", label_skew(&parts));
    }

    #[test]
    fn dirichlet_small_alpha_is_more_skewed_than_large() {
        let d = dataset(3000);
        let parts_01 =
            Partition::Dirichlet { alpha: 0.1 }.split(&d, 4, &mut StdRng::seed_from_u64(3));
        let parts_05 =
            Partition::Dirichlet { alpha: 0.5 }.split(&d, 4, &mut StdRng::seed_from_u64(3));
        let parts_100 =
            Partition::Dirichlet { alpha: 100.0 }.split(&d, 4, &mut StdRng::seed_from_u64(3));
        let (s01, s05, s100) = (
            label_skew(&parts_01),
            label_skew(&parts_05),
            label_skew(&parts_100),
        );
        assert!(s01 > s05, "α=0.1 skew {s01} should exceed α=0.5 skew {s05}");
        assert!(
            s05 > s100,
            "α=0.5 skew {s05} should exceed α=100 skew {s100}"
        );
        assert!(s100 < 0.15, "huge α approaches IID, got {s100}");
    }

    #[test]
    fn dirichlet_split_is_disjoint_and_complete() {
        let d = dataset(1000);
        let mut rng = StdRng::seed_from_u64(4);
        let parts = Partition::Dirichlet { alpha: 0.1 }.split(&d, 3, &mut rng);
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 1000);
        assert!(parts.iter().all(|p| !p.is_empty()), "no empty parts");
    }

    #[test]
    fn domain_split_separates_class_blocks() {
        let d = dataset(2000); // 10 classes
        let mut rng = StdRng::seed_from_u64(8);
        let parts = Partition::Domains { domains: 2 }.split(&d, 6, &mut rng);
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 2000);
        // Even parts see only classes 0..5, odd parts only 5..10 — domains
        // share no classes at all.
        for (p, part) in parts.iter().enumerate() {
            assert!(!part.is_empty());
            if p % 2 == 0 {
                assert!(part.labels().iter().all(|l| *l < 5), "part {p}");
            } else {
                assert!(part.labels().iter().all(|l| *l >= 5), "part {p}");
            }
        }
        // Harder than any Dirichlet draw we test: near-maximal skew.
        assert!(label_skew(&parts) > 0.4, "skew = {}", label_skew(&parts));
    }

    #[test]
    fn single_domain_split_covers_every_class() {
        let d = dataset(1000);
        let mut rng = StdRng::seed_from_u64(9);
        let parts = Partition::Domains { domains: 1 }.split(&d, 4, &mut rng);
        assert_eq!(parts.iter().map(Dataset::len).sum::<usize>(), 1000);
        assert!(label_skew(&parts) < 0.15);
    }

    #[test]
    #[should_panic(expected = "more domains")]
    fn domains_must_not_exceed_parts() {
        let d = dataset(100);
        let mut rng = StdRng::seed_from_u64(10);
        let _ = Partition::Domains { domains: 3 }.split(&d, 2, &mut rng);
    }

    #[test]
    fn gamma_sampler_matches_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        for &alpha in &[0.3, 1.0, 2.5, 10.0] {
            let n = 20_000;
            let samples: Vec<f64> = (0..n).map(|_| gamma_sample(alpha, &mut rng)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            // Gamma(α,1): mean = α, var = α.
            assert!((mean - alpha).abs() < alpha * 0.08, "α={alpha} mean={mean}");
            assert!((var - alpha).abs() < alpha * 0.25, "α={alpha} var={var}");
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(6);
        for &alpha in &[0.1, 0.5, 5.0] {
            let p = dirichlet(&[alpha; 8], &mut rng);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn gamma_rejects_nonpositive_alpha() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = gamma_sample(0.0, &mut rng);
    }

    #[test]
    fn partition_display() {
        assert_eq!(Partition::Iid.to_string(), "IID");
        assert_eq!(
            Partition::Dirichlet { alpha: 0.5 }.to_string(),
            "NIID α=0.5"
        );
        assert_eq!(Partition::Domains { domains: 2 }.to_string(), "DOMAINS d=2");
    }
}
