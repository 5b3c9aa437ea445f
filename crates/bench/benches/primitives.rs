//! Host-side microbenchmarks of the substrate primitives.
//!
//! These measure *our implementation's* wall-clock cost (nanoseconds on
//! the host), complementing Table 1, which holds the *modelled* costs
//! (cycles on the simulated R3000). They exist to keep the simulator
//! honest: the write path, scans and diffs must stay cheap enough that
//! paper-scale workloads run in seconds.
//!
//! The harness is hand-rolled on `std::time::Instant` (the workspace
//! builds offline, with no external bench framework): each benchmark is
//! warmed up, then timed over enough iterations to fill a ~50 ms window,
//! reporting the mean ns/iter over five such samples.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};
use midway_mem::diff::PageDiff;
use midway_mem::{DirtyBits, LayoutBuilder, LocalStore, MemClass, StoreKind, Template};
use midway_proto::{rt, Binding};
use midway_stats::CostModel;

const SAMPLE_MILLIS: u128 = 50;
const SAMPLES: usize = 5;

/// Times `f` and prints a criterion-style `name ... ns/iter` line.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up and estimate the per-iteration cost.
    let mut iters = 1u64;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed > 5_000_000 {
            break (elapsed / u128::from(iters)).max(1);
        }
        iters = iters.saturating_mul(4);
    };
    let iters = ((SAMPLE_MILLIS * 1_000_000) / per_iter).clamp(1, u128::from(u64::MAX)) as u64;
    let mut best = u128::MAX;
    let mut worst = 0u128;
    let mut total = 0u128;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() / u128::from(iters);
        best = best.min(ns);
        worst = worst.max(ns);
        total += ns;
    }
    println!(
        "{name:<40} {:>10} ns/iter (min {best}, max {worst}, {iters} iters)",
        total / SAMPLES as u128
    );
}

fn bench_dirtybits() {
    let cost = CostModel::r3000_mach();
    let mut lb = LayoutBuilder::new();
    let alloc = lb.alloc("x", 1 << 16, MemClass::Shared, 3);
    let layout = lb.build();
    let desc = layout.region_of(alloc.addr);
    let template = Template::for_region(desc);
    let mut bits = DirtyBits::new(desc.lines());

    let mut i = 0u64;
    bench("template_invoke_doubleword", || {
        let addr = alloc.addr + (i % 8000) * 8;
        i += 1;
        black_box(template.invoke(&mut bits, addr, StoreKind::Doubleword, &cost));
    });

    let mut bits = DirtyBits::new(8192);
    for l in (0..8192).step_by(7) {
        bits.mark(l);
    }
    bench("dirtybit_scan_8k_lines", || {
        black_box(bits.scan(0..8192, 1, 99));
    });
}

fn bench_diff() {
    let twin = vec![0u8; 4096];
    let mut uniform = twin.clone();
    uniform[100] = 1;
    let mut alternating = twin.clone();
    for w in (0..1024).step_by(2) {
        alternating[w * 4] = 0xFF;
    }
    bench("page_diff_uniform", || {
        black_box(PageDiff::compute(&uniform, &twin));
    });
    bench("page_diff_alternating", || {
        black_box(PageDiff::compute(&alternating, &twin));
    });
    let diff = PageDiff::compute(&alternating, &twin);
    let mut page = twin.clone();
    bench("page_diff_apply", || {
        diff.apply(&mut page);
        black_box(&page);
    });
}

fn bench_rt_collect() {
    let mut lb = LayoutBuilder::new();
    let alloc = lb.alloc("x", 1 << 16, MemClass::Shared, 3);
    let layout = lb.build();
    let binding = Binding::new(vec![alloc.range()]);
    let mut store = LocalStore::new(Arc::clone(&layout));
    let mut dirty = rt::DirtyMap::new(&layout);
    for i in (0..8192).step_by(5) {
        rt::mark_write(&mut dirty, &layout, alloc.addr + i * 8, 8);
    }
    let mut now = 10;
    bench("rt_collect_64KB_binding", || {
        now += 1;
        black_box(rt::collect(
            &mut store, &mut dirty, &layout, &binding, 1, now,
        ));
    });
}

fn bench_end_to_end() {
    // A small but complete cluster run: how much host time one simulated
    // lock hand-off costs, per backend.
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        bench(&format!("cluster_100_handoffs_{backend:?}"), || {
            let mut sb = SystemBuilder::new();
            let data = sb.shared_array::<u64>("d", 64, 1);
            let lock = sb.lock(vec![data.full_range()]);
            let spec = sb.build();
            let run = Midway::run(MidwayConfig::new(2, backend), &spec, async |p| {
                for _ in 0..50 {
                    p.acquire(lock).await;
                    let v = p.read(&data, 0);
                    p.write(&data, 0, v + 1);
                    p.release(lock);
                }
            })
            .unwrap();
            black_box(run.finish_time);
        });
    }
}

fn main() {
    bench_dirtybits();
    bench_diff();
    bench_rt_collect();
    bench_end_to_end();
}
