//! Ablation A5: the false-sharing microbenchmark.
//!
//! Two processors each own one word, and the two words are adjacent —
//! deliberately placed in the same virtual-memory page. Each round, a
//! processor updates its own word (under its own lock) and reads its
//! neighbour's (under the neighbour's lock). Under RT-DSM the coherency
//! unit is a word-sized cache line, so each transfer ships four bytes.
//! Under VM-DSM the page-granularity machinery pays a write fault, a
//! whole-page diff and a protection call per round — the paper's point
//! that "mechanisms to handle false sharing can increase runtime overhead".

use midway_bench::BenchArgs;
use midway_core::{BackendKind, Counters, Midway, MidwayConfig, SystemBuilder};
use midway_stats::{fmt_f64, fmt_u64, TextTable};

fn main() {
    let args = BenchArgs::parse();
    let rounds = 200u32;
    println!("== False-sharing microbenchmark: adjacent words, {rounds} rounds ==\n");
    let mut t = TextTable::new(&[
        "system",
        "exec (ms)",
        "data (KB)",
        "faults",
        "pages diffed",
        "dirtybits set",
        "lines scanned",
    ]);
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        let mut b = SystemBuilder::new();
        // Two adjacent words, word-size cache lines, same page.
        let words = b.shared_array::<u32>("words", 2, 1);
        let locks = [
            b.lock(vec![words.range(0..1)]),
            b.lock(vec![words.range(1..2)]),
        ];
        let done = b.barrier(vec![]);
        let spec = b.build();
        let cfg = MidwayConfig::new(2, backend);
        let run = Midway::run(cfg, &spec, async |p| {
            let me = p.id();
            let other = 1 - me;
            let mut sum = 0u64;
            for round in 0..rounds {
                p.acquire(locks[me]).await;
                p.write(&words, me, round + 1);
                p.release(locks[me]);
                p.acquire_shared(locks[other]).await;
                sum += p.read(&words, other) as u64;
                p.release_shared(locks[other]);
            }
            p.barrier(done).await;
            sum
        })
        .unwrap();
        let avg = Counters::average(&run.counters);
        t.row(&[
            format!("{backend:?}"),
            fmt_f64(run.cfg.cost.cycles_to_millis(run.finish_time.cycles()), 1),
            fmt_f64(avg.avg(|c| c.data_bytes_sent) / 1024.0, 1),
            fmt_u64(avg.totals().write_faults),
            fmt_u64(avg.totals().pages_diffed),
            fmt_u64(avg.totals().dirtybits_set),
            fmt_u64(avg.totals().clean_dirtybits_read + avg.totals().dirty_dirtybits_read),
        ]);
    }
    println!("{t}");
    println!("Reading: RT's per-word lines make the exchange four bytes per round;");
    println!("VM's 4 KB coherency machinery re-faults, re-twins and re-diffs the");
    println!("shared page every round even though a single word changed.");

    args.emit_tables("false_sharing", &[("table", &t)]);
}
