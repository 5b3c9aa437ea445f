//! Quickstart: a shared counter and a barrier on the Midway DSM.
//!
//! Run with: `cargo run -p midway-examples --bin quickstart`
//!
//! Four simulated processors increment a lock-protected counter and then
//! meet at a barrier; the example prints the counter, per-processor
//! virtual times and the write-detection counters for both detection
//! systems, so you can see RT-DSM's dirtybit economy against VM-DSM's
//! fault-and-diff machinery on the exact same program.

use midway_core::{BackendKind, Counters, Midway, MidwayConfig, SystemBuilder};

fn main() {
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        // 1. Declare the shared memory image: every processor sees the
        //    same layout.
        let mut b = SystemBuilder::new();
        let counter = b.shared_array::<u64>("counter", 1, 1);
        let scratch = b.shared_array::<u64>("scratch", 64, 1);
        let lock = b.lock(vec![counter.full_range()]);
        let done = b.barrier(vec![]);
        let spec = b.build();

        // 2. Run one closure per processor.
        let run = Midway::run(MidwayConfig::new(4, backend), &spec, async |p| {
            for i in 0..25 {
                // Entry consistency: acquire the lock bound to the data,
                // and the data is fresh when the acquire returns.
                p.acquire(lock).await;
                let v = p.read(&counter, 0);
                p.write(&counter, 0, v + 1);
                p.release(lock);
                // Unrelated local work: writes still go through write
                // detection, but nothing is communicated until someone
                // synchronizes on data bound to them.
                p.write(&scratch, (p.id() * 16 + i as usize % 16) % 64, v);
                p.work(10_000);
            }
            p.barrier(done).await;
            p.acquire(lock).await;
            let v = p.read(&counter, 0);
            p.release(lock);
            v
        })
        .expect("simulation failed");

        // 3. Inspect the outcome.
        println!("== {} ==", run.cfg.backend.label());
        println!("final counter everywhere: {:?}", run.results);
        assert!(run.results.iter().all(|v| *v == 100));
        let avg = Counters::average(&run.counters);
        println!(
            "execution: {:.2} ms simulated, {} messages",
            run.cfg.cost.cycles_to_millis(run.finish_time.cycles()),
            run.messages
        );
        println!(
            "write detection: {} dirtybits set, {} faults, {} pages diffed",
            avg.totals().dirtybits_set,
            avg.totals().write_faults,
            avg.totals().pages_diffed
        );
        println!(
            "data transferred: {:.1} KB\n",
            avg.totals().data_bytes_sent as f64 / 1024.0
        );
    }
}
