//! Fine-grained sharing: where software write detection shines.
//!
//! Run with: `cargo run -p midway-examples --bin fine_grain`
//!
//! Processors update single words scattered across a shared table, each
//! protected by a fine-grained lock, then cross-read each other's cells.
//! All the cells fit in one virtual-memory page, so VM-DSM's coherency
//! unit (the page) keeps being faulted, twinned and diffed for four-byte
//! updates, while RT-DSM's word-size cache lines track exactly what moved
//! — the paper's headline argument rendered in ~60 lines.

use midway_core::{BackendKind, Counters, Midway, MidwayConfig, SystemBuilder};

const CELLS: usize = 64;
const ROUNDS: usize = 30;

fn main() {
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        let mut b = SystemBuilder::new();
        let table = b.shared_array::<u32>("table", CELLS, 1);
        let cell_locks: Vec<_> = (0..CELLS)
            .map(|c| b.lock(vec![table.range(c..c + 1)]))
            .collect();
        let done = b.barrier(vec![]);
        let spec = b.build();

        let run = Midway::run(MidwayConfig::new(4, backend), &spec, async |p| {
            let procs = p.procs();
            let me = p.id();
            let mut sum = 0u64;
            for round in 0..ROUNDS {
                // Update my cells.
                for c in (me..CELLS).step_by(procs) {
                    p.acquire(cell_locks[c]).await;
                    let v = p.read(&table, c);
                    p.write(&table, c, v + c as u32);
                    p.release(cell_locks[c]);
                }
                // Read a neighbour's cells.
                let neighbour = (me + 1 + round % (procs - 1)) % procs;
                for c in (neighbour..CELLS).step_by(procs) {
                    p.acquire_shared(cell_locks[c]).await;
                    sum += p.read(&table, c) as u64;
                    p.release_shared(cell_locks[c]);
                }
            }
            p.barrier(done).await;
            sum
        })
        .expect("simulation failed");

        let avg = Counters::average(&run.counters);
        println!("== {} ==", run.cfg.backend.label());
        println!(
            "simulated time: {:7.2} ms | data {:6.1} KB | dirtybits set {:6} | faults {:5} | pages diffed {:5}",
            run.cfg.cost.cycles_to_millis(run.finish_time.cycles()),
            avg.totals().data_bytes_sent as f64 / 1024.0,
            avg.totals().dirtybits_set,
            avg.totals().write_faults,
            avg.totals().pages_diffed,
        );
        println!();
    }
    println!("The whole table is one 4 KB page: every VM-DSM cross-access pays the");
    println!("fault/twin/diff machinery for a four-byte change, while RT-DSM's");
    println!("word-granularity dirtybits move only the words that changed.");
}
