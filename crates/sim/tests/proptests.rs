//! Property-based tests of the simulation kernel's invariants.

use proptest::prelude::*;
use unifyfl_sim::{DeviceProfile, EventQueue, SimDuration, SimTime};

proptest! {
    /// Events always pop in nondecreasing time order, regardless of
    /// scheduling order.
    #[test]
    fn queue_pops_in_time_order(times in proptest::collection::vec(0u64..10_000, 1..128)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "{t} before {last}");
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Equal-time events preserve FIFO scheduling order.
    #[test]
    fn queue_is_fifo_at_equal_times(n in 1usize..200) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_secs(1), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Arbitrary keyed schedules against a reference model: the queue
    /// pops exactly the model's `(time, key, FIFO)` order, with `len()`
    /// exact at every step.
    #[test]
    fn queue_matches_reference_model_under_schedule_and_cancel(
        ops in proptest::collection::vec((0u64..50, 0u64..4), 1..200),
    ) {
        let mut q = EventQueue::new();
        // Model: (time, key, seq) of pending events; the payload is the seq.
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        for (i, &(time, key)) in ops.iter().enumerate() {
            q.schedule_keyed(SimTime::from_millis(time), key, i);
            model.push((time, key, i));
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        model.sort();
        for (expected_idx, &(time, _, payload)) in model.iter().enumerate() {
            let (t, got) = q.pop().expect("model says an event is pending");
            prop_assert_eq!(t, SimTime::from_millis(time));
            prop_assert_eq!(got, payload);
            prop_assert_eq!(q.len(), model.len() - expected_idx - 1);
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(q.is_empty());
    }

    /// Compute time is monotone in work and inversely monotone in speed.
    #[test]
    fn compute_time_monotone(flops_a in 1.0e6f64..1.0e12, flops_b in 1.0e6f64..1.0e12) {
        let fast = DeviceProfile::gpu_node();
        let slow = DeviceProfile::raspberry_pi_400();
        let (lo, hi) = if flops_a <= flops_b { (flops_a, flops_b) } else { (flops_b, flops_a) };
        prop_assert!(fast.compute_time(lo) <= fast.compute_time(hi));
        prop_assert!(fast.compute_time(hi) <= slow.compute_time(hi));
    }

    /// Duration arithmetic never underflows (saturates at zero).
    #[test]
    fn duration_arithmetic_saturates(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let da = SimDuration::from_millis(a);
        let db = SimDuration::from_millis(b);
        let diff = da - db;
        prop_assert_eq!(diff.as_millis(), a.saturating_sub(b));
        let sum = da + db;
        prop_assert_eq!(sum.as_millis(), a + b);
    }
}
