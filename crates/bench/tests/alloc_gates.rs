//! The allocation gates, in tier-1: a steady-state training batch performs
//! **zero** heap allocations (quickstart MLP and the paper's CNN), a warm
//! client fit requests no parameter-sized buffer beyond its optimizer
//! state and the weights it returns, and a
//! window of warm storage fetches requests less than one release's worth
//! of heap bytes.
//!
//! Claims like these are only checkable from outside the allocator, so
//! this target is `harness = false`: its `main` is the whole process, the
//! counting allocator is its global allocator, and no test-harness thread
//! allocates beside the probes.

use unifyfl_bench::alloc;
use unifyfl_bench::speed::{
    measure_fit_alloc_bytes, measure_train_batch_allocs, measure_warm_get_alloc_bytes,
    ALLOC_PROBE_BATCHES, FIT_ALLOC_BUDGET, WARM_GETS, WARM_GET_ALLOC_BUDGET,
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
    // A fit steps its model in place: beyond the batches it draws, its
    // optimizer's velocity and the weights it returns it needs no
    // parameter-sized buffer.
    let fit_bytes = measure_fit_alloc_bytes().expect(installed);
    assert!(
        fit_bytes < FIT_ALLOC_BUDGET,
        "a warm 12-batch CNN fit requested {fit_bytes} heap bytes (budget {FIT_ALLOC_BUDGET}): \
         something parameter-sized is allocated per fit beside the velocity and the returned weights",
    );
    // A warm fetch hands the resident buffer on, so the whole window of
    // them stays under a fraction of one 150 KB release.
    let bytes = measure_warm_get_alloc_bytes().expect(installed);
    assert!(
        bytes < WARM_GET_ALLOC_BUDGET,
        "{WARM_GETS} warm fetches of a 150 KB release requested {bytes} heap bytes \
         (budget {WARM_GET_ALLOC_BUDGET}): the fetch path is copying resident content",
    );
    println!(
        "alloc gates hold: 0 allocations over 2 x {ALLOC_PROBE_BATCHES} training batches, \
         {fit_bytes} bytes over a warm 12-batch fit, {bytes} bytes over {WARM_GETS} warm fetches \
         (peak live heap {:.1} MB)",
        alloc::peak_bytes() as f64 / 1e6
    );
}
