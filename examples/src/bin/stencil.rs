//! A barrier-phased stencil (heat diffusion) — the pattern behind the
//! paper's `sor` workload.
//!
//! Run with: `cargo run -p midway-examples --bin stencil`
//!
//! Each processor owns a stripe of a 1-D rod and keeps its interior in
//! ordinary private memory (the paper's "annotate what is truly shared"
//! discipline). Only the stripe's two edge cells are shared: they are
//! published to arrays bound to the phase barrier, so each barrier ships
//! a handful of doubles no matter how large the rod is.

use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};

const CELLS: usize = 4_096;
const STEPS: usize = 40;
const PROCS: usize = 4;

fn main() {
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        let mut b = SystemBuilder::new();
        // Two published edge cells per processor.
        let edges = b.shared_array::<f64>("edges", PROCS * 2, 1);
        let partitions: Vec<_> = (0..PROCS)
            .map(|q| vec![edges.range(q * 2..q * 2 + 2)])
            .collect();
        let step_done = b.barrier_partitioned(vec![edges.full_range()], partitions);
        let spec = b.build();

        let run = Midway::run(MidwayConfig::new(PROCS, backend), &spec, async |p| {
            let me = p.id();
            let chunk = CELLS / PROCS;
            // Private stripe: hot in the middle of the rod.
            let mut rod: Vec<f64> = (0..chunk)
                .map(|i| {
                    let global = me * chunk + i;
                    // The hot region ends exactly at the first stripe
                    // boundary, so heat crosses it and the exchanged edge
                    // cells change every step.
                    if (CELLS / PROCS - 64..CELLS / PROCS).contains(&global) {
                        100.0
                    } else {
                        0.0
                    }
                })
                .collect();
            p.write(&edges, me * 2, rod[0]);
            p.write(&edges, me * 2 + 1, rod[chunk - 1]);
            p.barrier(step_done).await;

            for _ in 0..STEPS {
                let left = if me > 0 {
                    p.read(&edges, (me - 1) * 2 + 1)
                } else {
                    0.0
                };
                let right = if me + 1 < PROCS {
                    p.read(&edges, (me + 1) * 2)
                } else {
                    0.0
                };
                let prev = rod.clone();
                for i in 0..chunk {
                    let l = if i == 0 { left } else { prev[i - 1] };
                    let r = if i == chunk - 1 { right } else { prev[i + 1] };
                    rod[i] = prev[i] + 0.25 * (l - 2.0 * prev[i] + r);
                }
                p.work(chunk as u64 * 12);
                p.write(&edges, me * 2, rod[0]);
                p.write(&edges, me * 2 + 1, rod[chunk - 1]);
                p.barrier(step_done).await;
            }
            // Position-weighted checksum: sensitive to *where* the heat
            // is, not just how much (heat is conserved by construction).
            rod.iter()
                .enumerate()
                .map(|(i, v)| v * (me * chunk + i) as f64)
                .sum::<f64>()
        })
        .expect("simulation failed");

        let spread: f64 = run.results.iter().sum();
        println!("== {} ==", run.cfg.backend.label());
        println!("heat-position checksum after {STEPS} steps: {spread:.3}");
        println!(
            "simulated time: {:.2} ms, data transferred: {:.1} KB\n",
            run.cfg.cost.cycles_to_millis(run.finish_time.cycles()),
            run.counters.iter().map(|c| c.data_bytes_sent).sum::<u64>() as f64 / 1024.0
        );
    }
}
