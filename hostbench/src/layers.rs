//! The traced run: splits a workload's host time across the repo's crates
//! by timing calls into their public functions from here. Nothing inside
//! the program is instrumented.
//!
//! | layer    | measured by                                              |
//! |----------|----------------------------------------------------------|
//! | `sim`    | `SchedStats` counts; a token ring through `Cluster::run` |
//! | `core`   | `midway_replay::replay` of each cell's recorded trace    |
//! | `apps`   | recorded-pass time minus `core.replay_s`                 |
//! | `proto`  | Table-2 protocol counters                                |
//! | `mem`    | Table-2 detector counters; `PageDiff::compute`, `DirtyBits::scan`, `LocalStore::digest` |
//! | `replay` | `Trace::encode` / `Trace::decode`                        |
//! | `check`  | replay with `MidwayConfig::check(true)` minus plain replay |
//! | `vt`     | the replay's `ProcReport::breakdown` (virtual time)      |

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use midway_core::Counters;
use midway_mem::diff::PageDiff;
use midway_mem::{DirtyBits, LayoutBuilder, LocalStore, MemClass, PAGE_SIZE};
use midway_replay::Trace;
use midway_sim::{Cluster, ClusterConfig, ProcHandle, CATEGORY_COUNT};

use crate::bench::{pass, timed_passes, Oracle, Pass};
use crate::cells::{Fingerprint, Inputs, Workload};
use crate::host::{median, quartiles};

const MB: f64 = 1024.0 * 1024.0;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sim.dispatches", "count"),
    ("sim.dispatch_ns", "ns"),
    ("sim.dispatch_ns_p8", "ns"),
    ("sim.dispatch_ns_p32", "ns"),
    ("sim.dispatch_ns_spread", "frac"),
    ("sim.handoff_share", "frac"),
    ("sim.offcpu_s", "s"),
    ("sim.far_pop_frac", "frac"),
    ("core.replay_s", "s"),
    ("apps.kernel_s", "s"),
    ("proto.data_mb_received", "MB"),
    ("proto.redundant_frac", "frac"),
    ("proto.lock_transfers", "count"),
    ("proto.barrier_waits", "count"),
    ("mem.pages_diffed", "count"),
    ("mem.diff_ns_per_page", "ns"),
    ("mem.diff_share", "frac"),
    ("mem.write_faults", "count"),
    ("mem.twin_mb", "MB"),
    ("mem.dirtybits_read", "count"),
    ("mem.scan_ns_per_line", "ns"),
    ("mem.scan_share", "frac"),
    ("mem.dirtybits_set", "count"),
    ("mem.pool_hit_frac", "frac"),
    ("mem.digest_ns_per_mb", "ns"),
    ("replay.encode_s", "s"),
    ("replay.decode_s", "s"),
    ("replay.trace_mb", "MB"),
    ("check.overhead_s", "s"),
    ("vt.compute_s", "s"),
    ("vt.trap_s", "s"),
    ("vt.collect_s", "s"),
    ("vt.protocol_s", "s"),
    ("vt.wait_s", "s"),
    ("bench.host_s", "s"),
    ("bench.cpu_s", "s"),
    ("bench.traced_host_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.timed_passes", "count"),
];

/// Replays `trace` under its recorded configuration (with the dynamic
/// checker on when `check` is set), returning the replay's modelled
/// results and its host seconds.
pub fn replay(trace: &Trace, check: bool) -> Result<(Fingerprint, f64), String> {
    let cfg = trace.recorded_cfg().check(check);
    let t0 = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| midway_replay::replay(trace, cfg)))
        .map_err(|_| "replay panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok((Fingerprint::of(&run), t0.elapsed().as_secs_f64()))
}

/// Recorded passes, and replays of each cell's trace with the checker off
/// and on, per traced run; their host times are medians over these.
const TRACED_REPS: usize = 3;

/// What the per-cell replay work of the traced run measured, summed over
/// cells.
#[derive(Default)]
struct ReplaySplit {
    replay_s: f64,
    check_s: f64,
    encode_s: f64,
    decode_s: f64,
    trace_mb: f64,
    /// Virtual seconds per category, summed over processors and cells.
    vt: [f64; CATEGORY_COUNT],
}

impl ReplaySplit {
    /// Round-trips `trace` through the codec, then replays it
    /// [`TRACED_REPS`] times plainly and as many with the checker on,
    /// adding the median host time of each. Returns every replay's
    /// modelled results for the oracle.
    fn add(&mut self, trace: &Trace) -> Result<Vec<Fingerprint>, String> {
        let t0 = Instant::now();
        let bytes = trace.encode();
        self.encode_s += t0.elapsed().as_secs_f64();
        self.trace_mb += bytes.len() as f64 / MB;
        let t0 = Instant::now();
        let decoded = Trace::decode(&bytes).map_err(|e| e.to_string())?;
        self.decode_s += t0.elapsed().as_secs_f64();
        if decoded != *trace {
            return Err("trace changed through encode and decode".to_string());
        }
        let mut fps = Vec::new();
        for check in [false, true] {
            let mut secs = Vec::new();
            for _ in 0..TRACED_REPS {
                let (fp, s) = replay(&decoded, check)?;
                fps.push(fp);
                secs.push(s);
            }
            *(if check {
                &mut self.check_s
            } else {
                &mut self.replay_s
            }) += median(&secs);
        }
        let cost = decoded.recorded_cfg().cost;
        for b in &fps[0].breakdown {
            for (acc, &cycles) in self.vt.iter_mut().zip(b) {
                *acc += cost.cycles_to_secs(cycles);
            }
        }
        Ok(fps)
    }
}

/// Runs the traced measurement of a workload and returns every
/// [`PER_LAYER`] metric.
pub fn traced_run(
    wl: &Workload,
    inputs: &[Inputs],
    seconds: f64,
    oracle: &mut Oracle,
) -> Vec<(&'static str, f64, &'static str)> {
    let reference = pass(wl, inputs, false, oracle);
    // Half the run is untraced passes; the recorded passes, replays and
    // calibrations take about as long again, so a traced run costs about
    // what an untraced one does.
    let timed = timed_passes(wl, inputs, seconds / 2.0, oracle);
    let host_s = median(&timed.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let cpu_s = median(&timed.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    let traced: Vec<Pass> = (0..TRACED_REPS)
        .map(|_| pass(wl, inputs, true, oracle))
        .collect();
    let traced_s = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());

    let mut split = ReplaySplit::default();
    for (i, (cell, run)) in wl.cells.iter().zip(&traced[0].runs).enumerate() {
        let replays = run
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .ok_or_else(|| "no trace was recorded".to_string())
            .and_then(|t| split.add(t));
        match replays {
            Ok(fps) => {
                let c = total(&fps[0].counters);
                eprintln!(
                    "  cell {:<14} live {:.3} s  dispatches {}  pages_diffed {}  dirtybits_read {}",
                    cell.label(),
                    run.as_ref().map_or(0.0, |r| r.wall_s),
                    run.as_ref().map_or(0, |r| r.sched.dispatches),
                    c.pages_diffed,
                    c.clean_dirtybits_read + c.dirty_dirtybits_read,
                );
                for fp in &fps {
                    oracle.check_replay(i, cell, Some(fp));
                }
            }
            Err(why) => {
                eprintln!("  cell {}: {why}", cell.label());
                oracle.check_replay(i, cell, None);
            }
        }
    }

    let mut c = Counters::default();
    for pc in reference.runs.iter().flatten().flat_map(|r| &r.fp.counters) {
        c.add(pc);
    }
    let sched_sum = |f: fn(&midway_core::SchedStats) -> u64| reference.sum(|r| f(&r.sched) as f64);
    let dispatches = sched_sum(|s| s.dispatches);
    let far = sched_sum(|s| s.far_pops);
    let pops = far + sched_sum(|s| s.near_pops);
    let (hits, misses) = (
        reference.sum(|r| r.pool.0 as f64),
        reference.sum(|r| r.pool.1 as f64),
    );

    let ring8 = dispatch_ns(8);
    let ring32 = dispatch_ns(32);
    let ring = if wl.procs == 32 { &ring32 } else { &ring8 };
    let [q1, dispatch, q3] = quartiles(ring);
    let diff_ns = diff_ns_per_page();
    let scan_ns = scan_ns_per_line();
    let pages_diffed = c.pages_diffed as f64;
    let dirtybits_read = (c.clean_dirtybits_read + c.dirty_dirtybits_read) as f64;
    let received = c.data_bytes_received as f64;

    let values = [
        dispatches,
        dispatch,
        median(&ring8),
        median(&ring32),
        (q3 - q1) / dispatch,
        dispatches * dispatch * 1e-9 / host_s,
        host_s - cpu_s,
        ratio(far, pops),
        split.replay_s,
        traced_s - split.replay_s,
        received / MB,
        ratio(c.redundant_bytes_received as f64, received),
        c.lock_transfers_served as f64,
        c.barrier_waits as f64,
        pages_diffed,
        diff_ns,
        pages_diffed * diff_ns * 1e-9 / host_s,
        c.write_faults as f64,
        c.write_faults as f64 * PAGE_SIZE as f64 / MB,
        dirtybits_read,
        scan_ns,
        dirtybits_read * scan_ns * 1e-9 / host_s,
        c.dirtybits_set as f64,
        ratio(hits, hits + misses),
        digest_ns_per_mb(),
        split.encode_s,
        split.decode_s,
        split.trace_mb,
        split.check_s - split.replay_s,
        split.vt[0],
        split.vt[1],
        split.vt[2],
        split.vt[3],
        split.vt[4],
        host_s,
        cpu_s,
        traced_s,
        traced_s / host_s - 1.0,
        timed.len() as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Element-wise sum of per-processor counters.
fn total(counters: &[Counters]) -> Counters {
    let mut sum = Counters::default();
    for c in counters {
        sum.add(c);
    }
    sum
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host nanoseconds per scheduler dispatch at `procs` processors, one
/// sample per repetition: a token circles a ring of simulated processors
/// through `Cluster::run`, so every hop is one blocking handoff between
/// two processor threads.
fn dispatch_ns(procs: usize) -> Vec<f64> {
    const HOPS: u64 = 20_000;
    const REPS: usize = 5;
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let out = Cluster::run(ClusterConfig::new(procs), |h: &mut ProcHandle<u64>| {
                let (me, n) = (h.id(), h.procs() as u64);
                let next = (me + 1) % h.procs();
                if me == 0 {
                    h.send(next, 1, 8);
                }
                // Hop values count up; past HOPS the token visits each
                // processor once more so every thread sees the end.
                loop {
                    let (_, _, hop) = h.recv();
                    if hop < HOPS + n - 1 {
                        h.send(next, hop + 1, 8);
                    }
                    if hop >= HOPS {
                        return;
                    }
                }
            })
            .expect("token ring runs");
            t0.elapsed().as_secs_f64() * 1e9 / out.sched.dispatches.max(1) as f64
        })
        .collect()
}

/// Host nanoseconds for `f`, per call, over `iters` calls after one
/// warm-up call.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Mean host ns of `PageDiff::compute` on a densely written page (every
/// byte changed) and a sparsely written one (one byte per 64).
fn diff_ns_per_page() -> f64 {
    let twin = vec![0u8; PAGE_SIZE];
    let dense: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8 + 1).collect();
    let sparse: Vec<u8> = (0..PAGE_SIZE)
        .map(|i| if i % 64 == 0 { 0xab } else { 0 })
        .collect();
    let per = |cur: &[u8]| {
        ns_per_call(4_000, || {
            black_box(PageDiff::compute(black_box(cur), black_box(&twin)));
        })
    };
    (per(&dense) + per(&sparse)) / 2.0
}

/// Host ns per line of `DirtyBits::scan` over a mostly clean array with
/// a sprinkling of dirty and stamped lines, the shape a collection scan
/// sees. After the warm-up call every dirty line carries a stamp, so
/// each timed scan does the same work.
fn scan_ns_per_line() -> f64 {
    const LINES: usize = 65_536;
    let mut bits = DirtyBits::new(LINES);
    for line in (0..LINES).step_by(97) {
        bits.mark(line);
    }
    for line in (1..LINES).step_by(193) {
        bits.stamp(line, 50);
    }
    ns_per_call(400, || {
        black_box(bits.scan(0..LINES, 10, 99));
    }) / LINES as f64
}

/// Host ns per MB of `LocalStore::digest` over three 8 MB regions: one
/// written densely, one sparsely and one never touched.
fn digest_ns_per_mb() -> f64 {
    const REGION: usize = 8 << 20;
    let mut b = LayoutBuilder::new();
    let dense = b.alloc("dense", REGION, MemClass::Shared, 6);
    let sparse = b.alloc("sparse", REGION, MemClass::Shared, 6);
    b.alloc("untouched", REGION, MemClass::Shared, 6);
    let mut store = LocalStore::new(b.build());
    for off in (0..REGION as u64).step_by(8) {
        store.write_u64(dense.addr + off, off | 1);
    }
    for off in (0..REGION as u64).step_by(PAGE_SIZE) {
        store.write_u64(sparse.addr + off, 7);
    }
    ns_per_call(10, || {
        black_box(store.digest());
    }) / (3.0 * REGION as f64 / MB)
}
