//! The allocation gates, in tier-1: a steady-state training batch performs
//! **zero** heap allocations (quickstart MLP and the paper's CNN), a warm
//! client fit — as a run makes it, through its server — requests no
//! parameter-sized buffer beyond the weights it returns and their
//! aggregate, a window of warm storage fetches requests less than one
//! release's worth of heap bytes, and a round's peak live heap grows with
//! its client count by the clients' fit results and by no model per
//! client.
//!
//! Claims like these are only checkable from outside the allocator, so
//! this target is `harness = false`: its `main` is the whole process, the
//! counting allocator is its global allocator, and no test-harness thread
//! allocates beside the probes.

use unifyfl_bench::alloc;
use unifyfl_bench::speed::{
    measure_fit_alloc_bytes, measure_round_peak_bytes, measure_train_batch_allocs,
    measure_warm_get_alloc_bytes, ALLOC_PROBE_BATCHES, FIT_ALLOC_BUDGET, ROUND_PEAK_SLACK,
    WARM_GETS, WARM_GET_ALLOC_BUDGET,
};
use unifyfl_tensor::zoo::ModelSpec;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

fn main() {
    // With the allocator installed the probes always answer; without it
    // they refuse, so no gate below can pass against a dead counter.
    let installed = "this target installs the counting allocator";
    // The quickstart workload's client shape (flat-16 input, 4 classes),
    // and the paper's edge workload (Table 4: batch 5) — the step that
    // runs the convolution's in-layer scratch.
    for (model, spec, batch) in [
        ("mlp", ModelSpec::mlp(16, vec![32], 4), 16),
        ("cnn", ModelSpec::small_cnn(10), 5),
    ] {
        let allocs = measure_train_batch_allocs(&spec, batch).expect(installed);
        assert_eq!(
            allocs, 0,
            "{ALLOC_PROBE_BATCHES} steady-state {model} training batches performed {allocs} heap \
             allocation(s); the arena path must perform none"
        );
    }
    // A fit runs on its lane's shell — model, velocity and batch buffer
    // are there already — and steps the model in place: beyond the weights
    // it returns and the server's aggregate of them it needs no
    // parameter-sized buffer.
    let fit_bytes = measure_fit_alloc_bytes().expect(installed);
    assert!(
        fit_bytes < FIT_ALLOC_BUDGET,
        "a warm 12-batch CNN fit requested {fit_bytes} heap bytes (budget {FIT_ALLOC_BUDGET}): \
         something parameter-sized is allocated per fit beside the returned weights and their \
         aggregate",
    );
    // A warm fetch hands the resident buffer on, so the whole window of
    // them stays under a fraction of one 150 KB release.
    let bytes = measure_warm_get_alloc_bytes().expect(installed);
    assert!(
        bytes < WARM_GET_ALLOC_BUDGET,
        "{WARM_GETS} warm fetches of a 150 KB release requested {bytes} heap bytes \
         (budget {WARM_GET_ALLOC_BUDGET}): the fetch path is copying resident content",
    );
    // Footprint follows concurrency, not client count: doubling the
    // clients of a warm 3-cluster round (one cluster computing at a time)
    // may add the extra clients' returned weights to the peak, and their
    // bookkeeping — not a model each.
    let (clients, more) = (20, 40);
    let peak = measure_round_peak_bytes(clients).expect(installed);
    let peak_more = measure_round_peak_bytes(more).expect(installed);
    let weights_bytes = 4 * ModelSpec::small_cnn(10).build_zeroed().param_count() as u64;
    let fit_results = (more - clients) as u64 * weights_bytes;
    let budget = fit_results + (fit_results as f64 * ROUND_PEAK_SLACK) as u64;
    let grew = peak_more.saturating_sub(peak);
    assert!(
        grew < budget,
        "a warm round of 3 x {more} CNN clients peaks {grew} live heap bytes above one of \
         3 x {clients} ({peak_more} against {peak}; budget {budget}, of which {fit_results} are the \
         extra fit results): something model-sized is resident per client",
    );
    println!(
        "alloc gates hold: 0 allocations over 2 x {ALLOC_PROBE_BATCHES} training batches, \
         {fit_bytes} bytes over a warm 12-batch fit, {bytes} bytes over {WARM_GETS} warm fetches, \
         a warm round peaks at {:.1} MB live with 3 x {clients} clients and {:.1} MB with 3 x {more}",
        peak as f64 / 1e6,
        peak_more as f64 / 1e6,
    );
}
