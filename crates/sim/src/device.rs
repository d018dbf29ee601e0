//! Device profiles modelling the paper's testbed hardware.
//!
//! §4.1 of the paper describes two testbeds:
//!
//! - **GPU cluster** — 4 nodes (i7-12700, NVIDIA RTX A2000, 64 GB RAM), each
//!   hosting one aggregator and 3 clients.
//! - **Edge cluster** — 3 CPU nodes (i7, 8 GB RAM) hosting the aggregators,
//!   with heterogeneous client sets: Raspberry Pi 400 (4 GB), Jetson Nano
//!   (128-core Maxwell, 4 GB), and Docker containers (2 GB).
//!
//! A [`DeviceProfile`] converts abstract work — floating-point operations for
//! training, bytes for network transfer — into virtual time. The absolute
//! flop rates are calibrated so that full-scale runs land near the paper's
//! reported wall-clock numbers (e.g. ~6200 s for Sync Tiny-ImageNet runs);
//! what matters for reproduction is the *ratio* between profiles, which
//! follows the real hardware.

use crate::clock::SimDuration;

/// Compute and network capabilities of a simulated machine.
///
/// ```
/// use unifyfl_sim::DeviceProfile;
/// let gpu = DeviceProfile::gpu_node();
/// let pi = DeviceProfile::raspberry_pi_400();
/// // The GPU node is orders of magnitude faster than a Raspberry Pi.
/// assert!(gpu.compute_time(1e12) < pi.compute_time(1e12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable profile name (e.g. `"gpu-node"`).
    name: String,
    /// Sustained training throughput in flop/s.
    flops_per_sec: f64,
    /// Physical memory in bytes (used by the resource model).
    mem_bytes: u64,
    /// Network bandwidth in bytes/s.
    net_bandwidth_bps: f64,
    /// One-way network latency.
    net_latency: SimDuration,
}

impl DeviceProfile {
    /// Creates a custom profile.
    ///
    /// # Panics
    ///
    /// Panics if `flops_per_sec` or `net_bandwidth_bps` is not strictly
    /// positive and finite.
    pub fn new(
        name: impl Into<String>,
        flops_per_sec: f64,
        mem_bytes: u64,
        net_bandwidth_bps: f64,
        net_latency: SimDuration,
    ) -> Self {
        assert!(
            flops_per_sec.is_finite() && flops_per_sec > 0.0,
            "flops_per_sec must be positive and finite"
        );
        assert!(
            net_bandwidth_bps.is_finite() && net_bandwidth_bps > 0.0,
            "net_bandwidth_bps must be positive and finite"
        );
        DeviceProfile {
            name: name.into(),
            flops_per_sec,
            mem_bytes,
            net_bandwidth_bps,
            net_latency,
        }
    }

    /// GPU-cluster node: i7-12700 + RTX A2000, 64 GB RAM, LAN networking.
    ///
    /// 5e10 flop/s effective ≈ VGG16 training at ~60 images/s, which an
    /// A2000 sustains under PyTorch; using effective rather than peak
    /// throughput is what lands full-scale runs near the paper's ~6200 s
    /// Sync wall clock.
    pub fn gpu_node() -> Self {
        DeviceProfile::new(
            "gpu-node",
            5.0e10,
            64 * GIB,
            125.0e6, // 1 Gbit/s LAN
            SimDuration::from_millis(1),
        )
    }

    /// Edge-cluster aggregator node: desktop i7 CPU, 8 GB RAM.
    pub fn edge_cpu() -> Self {
        DeviceProfile::new(
            "edge-cpu",
            2.0e8,
            8 * GIB,
            125.0e6,
            SimDuration::from_millis(2),
        )
    }

    /// Raspberry Pi 400 client (4 GB RAM).
    ///
    /// Effective throughputs of the three edge client types are calibrated
    /// to the per-aggregator Async runtimes of Table 6 Run C3 (the Docker
    /// containers, pinned to 2 GB on a shared host, are the slowest there).
    pub fn raspberry_pi_400() -> Self {
        DeviceProfile::new(
            "raspberry-pi-400",
            6.6e7,
            4 * GIB,
            12.5e6, // 100 Mbit/s
            SimDuration::from_millis(5),
        )
    }

    /// NVIDIA Jetson Nano client (128-core Maxwell GPU, 4 GB RAM).
    pub fn jetson_nano() -> Self {
        DeviceProfile::new(
            "jetson-nano",
            7.7e7,
            4 * GIB,
            12.5e6,
            SimDuration::from_millis(5),
        )
    }

    /// Automotive-fleet silo: an in-vehicle compute unit training over a
    /// cellular uplink. Compute sits between a Jetson Nano and a desktop
    /// CPU (embedded SoC with a small NPU), but the link is the
    /// bottleneck: ~20 Mbit/s with tens of milliseconds of latency. The
    /// archetypal *drifting* participant — its data distribution follows
    /// where the fleet drives.
    pub fn automotive_fleet() -> Self {
        DeviceProfile::new(
            "automotive-fleet",
            9.0e7,
            4 * GIB,
            2.5e6, // ~20 Mbit/s cellular
            SimDuration::from_millis(40),
        )
    }

    /// Datacenter-silo aggregator: a rack-scale node (A100-class
    /// accelerator, 256 GB RAM) on a 10 Gbit/s fabric — the fast extreme
    /// of a heterogeneous federation, for contrast against
    /// [`DeviceProfile::automotive_fleet`].
    pub fn datacenter_silo() -> Self {
        DeviceProfile::new(
            "datacenter-silo",
            2.0e11,
            256 * GIB,
            1.25e9, // 10 Gbit/s fabric
            SimDuration::from_millis(1),
        )
    }

    /// Docker-container client pinned to 2 GB RAM on a shared host.
    pub fn docker_container() -> Self {
        DeviceProfile::new(
            "docker-container",
            5.0e7,
            2 * GIB,
            125.0e6,
            SimDuration::from_millis(2),
        )
    }

    /// The profile's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sustained compute throughput in flop/s.
    pub fn flops_per_sec(&self) -> f64 {
        self.flops_per_sec
    }

    /// Physical memory in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Network bandwidth in bytes per second.
    pub fn net_bandwidth_bps(&self) -> f64 {
        self.net_bandwidth_bps
    }

    /// One-way network latency.
    pub fn net_latency(&self) -> SimDuration {
        self.net_latency
    }

    /// Virtual time to execute `flops` floating-point operations.
    pub fn compute_time(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops.max(0.0) / self.flops_per_sec)
    }

    /// Virtual time to transfer `bytes` over this device's link (latency +
    /// serialization delay).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.net_latency + SimDuration::from_secs_f64(bytes as f64 / self.net_bandwidth_bps)
    }
}

const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_speed_ordering() {
        // Docker (2 GB shared host) < Pi 400 < Jetson Nano — the ordering
        // implied by Table 6 Run C3's per-aggregator runtimes.
        let profiles = [
            DeviceProfile::docker_container(),
            DeviceProfile::raspberry_pi_400(),
            DeviceProfile::jetson_nano(),
            DeviceProfile::automotive_fleet(),
            DeviceProfile::edge_cpu(),
            DeviceProfile::gpu_node(),
            DeviceProfile::datacenter_silo(),
        ];
        for pair in profiles.windows(2) {
            assert!(
                pair[0].flops_per_sec() < pair[1].flops_per_sec(),
                "{} should be slower than {}",
                pair[0].name(),
                pair[1].name()
            );
        }
    }

    #[test]
    fn heterogeneous_presets_contrast_compute_and_link() {
        let car = DeviceProfile::automotive_fleet();
        let dc = DeviceProfile::datacenter_silo();
        // The datacenter silo is >1000× faster at compute …
        assert!(dc.flops_per_sec() / car.flops_per_sec() > 1e3);
        // … and its link moves a 100 MB model far faster than the
        // cellular uplink, which is transfer-dominated.
        assert!(dc.transfer_time(100_000_000) < car.transfer_time(100_000_000) / 100);
        assert!(car.net_latency() > dc.net_latency());
    }

    #[test]
    fn compute_time_scales_linearly() {
        let d = DeviceProfile::gpu_node();
        let t1 = d.compute_time(1e12);
        let t2 = d.compute_time(2e12);
        assert_eq!(t2.as_millis(), t1.as_millis() * 2);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let d = DeviceProfile::edge_cpu();
        assert_eq!(d.transfer_time(0), d.net_latency());
        assert!(d.transfer_time(10_000_000) > d.net_latency());
    }

    #[test]
    fn negative_flops_clamp_to_zero() {
        let d = DeviceProfile::gpu_node();
        assert_eq!(d.compute_time(-5.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "flops_per_sec must be positive")]
    fn new_rejects_nonpositive_flops() {
        let _ = DeviceProfile::new("bad", 0.0, 1, 1.0, SimDuration::ZERO);
    }
}
