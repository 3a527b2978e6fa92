//! Steady-state compiled-plan prediction makes no allocator calls.
//!
//! The plan executor's own flatness check counts only arena
//! allocations; this binary installs a counting global allocator and
//! so also sees thread spawns, per-thread packing buffers and any
//! `Vec` a kernel builds on the way. After two warm calls (thread-local
//! executor, packing buffers and arena registers sized for the shape),
//! `CompiledPlan::predict` must not touch the allocator at all, on
//! every zoo model at both the fast and the paper width.
//!
//! It is its own test binary because the allocator is process-wide.

use occu_core::dataset::make_sample;
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocator calls made by the current thread while armed.
/// Spawning a thread allocates on the spawning thread, so a GEMM that
/// fans out still shows up here.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    // `try_with`: thread-local teardown may still allocate.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record();
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocator_calls(f: impl FnOnce() -> f32) -> (u64, f32) {
    CALLS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (CALLS.with(Cell::get), out)
}

#[test]
fn warm_plan_predict_makes_no_allocator_calls() {
    // Before anything resolves the pool size: a reintroduced fan-out
    // must spawn (and so allocate) even on a one-core host.
    std::env::set_var("RAYON_NUM_THREADS", "4");

    let device = DeviceSpec::a100();
    let mut failures = Vec::new();
    for (name, cfg) in [
        ("fast", DnnOccuConfig::fast()),
        ("paper", DnnOccuConfig::paper()),
    ] {
        let model = DnnOccu::new(cfg, 42);
        for &id in ModelId::ALL {
            let fg = make_sample(id, id.default_config(), &device).features;
            let plan = model.compile_plan_for(&fg);
            plan.predict(&fg);
            let warm = plan.predict(&fg);
            let (calls, steady) = allocator_calls(|| plan.predict(&fg));
            assert_eq!(
                steady.to_bits(),
                warm.to_bits(),
                "{name} {id:?}: answer drifted"
            );
            if calls != 0 {
                failures.push(format!("{name} {id:?}: {calls} allocator calls"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warm CompiledPlan::predict allocated:\n{}",
        failures.join("\n")
    );
}
