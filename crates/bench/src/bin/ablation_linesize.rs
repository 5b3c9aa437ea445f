//! Ablation A4: the cache-line size trade-off under RT-DSM.
//!
//! "All cache lines in a region are the same size, although different
//! regions may have different cache line sizes" — the unit of coherency
//! "can be set to meet the needs of the application" (§2). This harness
//! sweeps the line size for a lock-protected array that a rotating writer
//! updates either densely or sparsely:
//!
//! * small lines: more dirtybits to set and scan, but transfers ship only
//!   what changed;
//! * large lines: cheaper area traps and scans, but a sparse writer drags
//!   whole lines of unmodified data across the network.
//!
//! Record once, sweep many: the workload is recorded once per writer
//! density at the finest line size, then each other line size is
//! evaluated by replaying the trace against a rebuilt system — the
//! recorded byte stream is independent of the coherency unit.

use midway_bench::{run_cells, BenchArgs, Json};
use midway_core::{BackendKind, Counters, Midway, MidwayConfig, MidwayRun, SystemBuilder};
use midway_replay::{replay_on, verify_replay, Trace};
use midway_stats::{fmt_f64, fmt_u64, TextTable};

const N: usize = 8 * 1024; // 64 KB of f64
const PROCS: usize = 4;
const ROUNDS: usize = 8;

/// Records the rotating-writer workload once, at one-element (8 B) lines.
fn record(stride: usize, label: &str) -> Trace {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<f64>("data", N, 1);
    let lock = b.lock(vec![data.full_range()]);
    let done = b.barrier(vec![]);
    let spec = b.build();
    let cfg = MidwayConfig::new(PROCS, BackendKind::Rt).record(true);
    let run: MidwayRun<()> = Midway::run(cfg, &spec, async |p| {
        // Each round one processor writes every `stride`-th element of
        // its quarter; the next round's writer pulls the lock across.
        for round in 0..ROUNDS {
            if round % PROCS == p.id() {
                p.acquire(lock).await;
                let chunk = N / PROCS;
                let lo = p.id() * chunk;
                for i in (lo..lo + chunk).step_by(stride) {
                    p.write(&data, i, (round * i) as f64);
                }
                p.release(lock);
            }
            p.barrier(done).await;
        }
    })
    .unwrap();
    Trace::from_run(label, "fixed", true, &run)
}

fn measure(trace: &Trace, elems_per_line: usize) -> (f64, f64, u64, u64) {
    let line_shift = 3 + elems_per_line.trailing_zeros(); // 8 B elements
    let run = if elems_per_line == 1 {
        // The recorded line size: take the equivalence-oracle path.
        verify_replay(trace).unwrap_or_else(|d| panic!("linesize replay diverged: {d}"))
    } else {
        let spec = trace.blueprint.with_shared_line_shift(line_shift).build();
        replay_on(trace, trace.recorded_cfg(), &spec)
            .unwrap_or_else(|e| panic!("linesize replay failed: {e}"))
    };
    let avg = Counters::average(&run.counters);
    (
        run.cfg.cost.cycles_to_millis(run.finish_time.cycles()),
        avg.avg(|c| c.data_bytes_sent) / 1024.0,
        avg.totals().dirtybits_set,
        avg.totals().clean_dirtybits_read + avg.totals().dirty_dirtybits_read,
    )
}

fn main() {
    let args = BenchArgs::parse();
    println!("== Ablation: cache-line size sweep (RT-DSM) ==\n");
    let mut tables = Vec::new();
    for (key, label, stride) in [
        ("dense", "dense writer (every element)", 1usize),
        ("sparse", "sparse writer (every 8th)", 8),
    ] {
        println!("-- {label} --");
        let trace = record(stride, key);
        let mut t = TextTable::new(&[
            "line size (B)",
            "exec (ms)",
            "data/proc (KB)",
            "dirtybits set",
            "bits scanned",
        ]);
        // Every line size replays the same in-memory trace read-only: one
        // cell per line size, rows joined in sweep order.
        let rows = run_cells(args.jobs, vec![1usize, 4, 16, 64, 512], |elems_per_line| {
            let (ms, kb, set, scanned) = measure(&trace, elems_per_line);
            [
                fmt_u64(8 * elems_per_line as u64),
                fmt_f64(ms, 1),
                fmt_f64(kb, 1),
                fmt_u64(set),
                fmt_u64(scanned),
            ]
        });
        for row in &rows {
            t.row(row);
        }
        println!("{t}");
        tables.push((key, t));
    }
    println!("Reading: a dense writer favours large lines (fewer bits, same data);");
    println!("a sparse writer pays for them in excess data — the unit of coherency");
    println!("should match the application's write granularity, which is exactly");
    println!("the knob VM-DSM lacks (its unit is pinned to the 4 KB page).");

    let mut pairs = args.meta_json("ablation_linesize");
    for (key, t) in &tables {
        pairs.push(((*key).to_string(), Json::table(t)));
    }
    args.emit("ablation_linesize", &Json::Obj(pairs));
}
