//! Red-black successive over-relaxation (paper §4).
//!
//! "The program iteratively computes new values for each element in a
//! 1000×1000 matrix of floating point values... Only data at the edges of
//! each partition are shared between processors. The interior elements are
//! initialized to random values to maximize the changed elements per
//! iteration. The program runs for 25 iterations and exhibits medium-grain
//! sharing."
//!
//! The grid is partitioned into row stripes. Interior rows are private
//! (annotated so, as the paper's programmer would): they live in ordinary
//! local memory and their writes are not instrumented. Each stripe's first
//! and last rows are shared: after updating them, the owner publishes the
//! changed elements to per-processor edge arrays bound to the phase
//! barrier, and neighbours read them from there.

use std::sync::Arc;

use midway_core::{
    BarrierId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RealError, SharedArray,
    SystemBuilder, SystemSpec, Transport,
};
use midway_sim::SplitMix64;

/// Cycles charged per element update (4 loads, multiply, adds, store).
pub const CYCLES_PER_UPDATE: u64 = 20;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid rows (paper: 1000).
    pub rows: usize,
    /// Grid columns (paper: 1000).
    pub cols: usize,
    /// Iterations (paper: 25); each has a red and a black phase.
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Params {
        Params {
            rows: 1000,
            cols: 1000,
            iters: 25,
            seed: 7,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Params {
        Params {
            rows: 40,
            cols: 32,
            iters: 6,
            seed: 7,
        }
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Checksum of this processor's stripe: the parallel decomposition
    /// performs identical per-element arithmetic, so totals agree across
    /// processor counts up to summation order.
    pub stripe_checksum: f64,
    /// Sum of |update| in the final iteration (a convergence proxy).
    pub final_residual: f64,
    /// Sum of |update| in the first iteration.
    pub initial_residual: f64,
}

struct Handles {
    /// `edges[p*2]` = proc p's first stripe row; `edges[p*2+1]` = its last.
    edges: SharedArray<f64>,
    /// Misclassified per-processor marker (see quicksort).
    scratch: SharedArray<f64>,
    phase_done: BarrierId,
}

fn stripe_of(rows: usize, procs: usize, p: usize) -> std::ops::Range<usize> {
    // Balanced partition: the first `rows % procs` stripes get one extra
    // row. Unlike ceiling division this never strands trailing processors
    // with empty stripes (e.g. 400 rows over 64 processors), and it is
    // identical whenever `procs` divides `rows` — which covers every
    // recorded-trace configuration.
    let base = rows / procs;
    let extra = rows % procs;
    let start = base * p + p.min(extra);
    start..start + base + usize::from(p < extra)
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let mut b = SystemBuilder::new();
    // One published row per stripe edge: 2 per processor.
    let edges = b.shared_array::<f64>("edges", procs * 2 * p.cols, 1);
    let partitions: Vec<_> = (0..procs)
        .map(|q| vec![edges.range(q * 2 * p.cols..(q * 2 + 2) * p.cols)])
        .collect();
    let phase_done = b.barrier_partitioned(vec![edges.full_range()], partitions);
    let scratch = b.private_array::<f64>("progress", 16);
    (
        b.build(),
        Handles {
            edges,
            scratch,
            phase_done,
        },
    )
}

fn initial(seed: u64, i: usize, j: usize, rows: usize, cols: usize) -> f64 {
    if i == 0 || j == 0 || i == rows - 1 || j == cols - 1 {
        // Fixed edge temperature.
        100.0
    } else {
        let mut r = SplitMix64::new(seed ^ ((i * cols + j) as u64).wrapping_mul(0x5851));
        r.next_range_f64(0.0, 50.0)
    }
}

/// Runs red-black SOR under `cfg` and verifies convergence.
///
/// # Panics
///
/// Panics if the simulation fails, or if the grid is too small for the
/// processor count (each stripe needs at least two rows).
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, async |proc| session(proc, p, &h).await).expect("sor simulation failed")
}

/// Runs red-black SOR over real sockets (`Midway::run_real`); same
/// decomposition and verification as [`run`].
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RealError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, async |proc| session(proc, p, &h).await)
}

async fn session<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    p: Params,
    h: &Handles,
) -> Outcome {
    let cols = p.cols;
    {
        let me = proc.id();
        let procs = proc.procs();
        let stripe = stripe_of(p.rows, procs, me);
        assert!(
            stripe.len() >= 2,
            "stripe too small: grid {} rows / {procs} procs",
            p.rows
        );
        let local_rows = stripe.len();

        // Private stripe storage (annotated private: not instrumented).
        let mut grid = vec![0.0f64; local_rows * cols];
        for (li, gi) in stripe.clone().enumerate() {
            for j in 0..cols {
                grid[li * cols + j] = initial(p.seed, gi, j, p.rows, cols);
            }
        }
        // Publish initial edge rows.
        let publish = |proc: &mut Proc<'_, T>, grid: &Vec<f64>, li: usize, slot: usize| {
            for j in 0..cols {
                proc.write(&h.edges, slot * cols + j, grid[li * cols + j]);
            }
        };
        publish(proc, &grid, 0, me * 2);
        publish(proc, &grid, local_rows - 1, me * 2 + 1);
        // One misclassified private write per run (6-cycle penalty).
        proc.write(&h.scratch, me % 16, 1.0);
        proc.barrier(h.phase_done).await;

        let mut initial_residual = 0.0f64;
        let mut final_residual;
        let omega = 0.9;
        let mut residual = 0.0f64;
        for iter in 0..p.iters {
            residual = 0.0;
            for color in 0..2usize {
                // Fetch ghost rows from the neighbours' published edges.
                let above: Option<Vec<f64>> = (me > 0).then(|| {
                    proc.read_vec(
                        &h.edges,
                        ((me - 1) * 2 + 1) * cols..((me - 1) * 2 + 2) * cols,
                    )
                });
                let below: Option<Vec<f64>> = (me + 1 < procs).then(|| {
                    proc.read_vec(&h.edges, (me + 1) * 2 * cols..((me + 1) * 2 + 1) * cols)
                });

                for li in 0..local_rows {
                    let gi = stripe.start + li;
                    if gi == 0 || gi == p.rows - 1 {
                        continue; // fixed boundary row
                    }
                    for j in 1..cols - 1 {
                        if (gi + j) % 2 != color {
                            continue;
                        }
                        let up = if li == 0 {
                            above.as_ref().expect("interior row has a neighbour")[j]
                        } else {
                            grid[(li - 1) * cols + j]
                        };
                        let down = if li == local_rows - 1 {
                            below.as_ref().expect("interior row has a neighbour")[j]
                        } else {
                            grid[(li + 1) * cols + j]
                        };
                        let idx = li * cols + j;
                        let old = grid[idx];
                        let avg = 0.25 * (up + down + grid[idx - 1] + grid[idx + 1]);
                        let new = old + omega * (avg - old);
                        grid[idx] = new;
                        residual += (new - old).abs();
                    }
                    proc.work(cols as u64 / 2 * CYCLES_PER_UPDATE);
                }

                // Publish the edge rows' updated elements (only the colour
                // just computed changed).
                for (li, slot) in [(0usize, me * 2), (local_rows - 1, me * 2 + 1)] {
                    let gi = stripe.start + li;
                    if gi == 0 || gi == p.rows - 1 {
                        continue;
                    }
                    for j in 1..cols - 1 {
                        if (gi + j) % 2 == color {
                            proc.write(&h.edges, slot * cols + j, grid[li * cols + j]);
                        }
                    }
                }
                proc.barrier(h.phase_done).await;
            }
            if iter == 0 {
                initial_residual = residual;
            }
        }
        final_residual = residual;
        if p.iters == 0 {
            final_residual = 0.0;
        }

        // Weight by global coordinates so the checksum is independent of
        // the stripe decomposition.
        let stripe_checksum = grid
            .iter()
            .enumerate()
            .map(|(k, v)| {
                let global = stripe.start * cols + k;
                v * ((global % 13) as f64 + 1.0)
            })
            .sum::<f64>();
        Outcome {
            stripe_checksum,
            final_residual,
            initial_residual,
        }
    }
}

/// Aggregate verification: SOR must make progress toward the steady state.
pub fn verified(outcomes: &[Outcome]) -> bool {
    let initial: f64 = outcomes.iter().map(|o| o.initial_residual).sum();
    let fin: f64 = outcomes.iter().map(|o| o.final_residual).sum();
    fin < initial
}

/// Total grid checksum (bitwise-stable across backends and processor
/// counts).
pub fn checksum(outcomes: &[Outcome]) -> f64 {
    outcomes.iter().map(|o| o.stripe_checksum).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn converges_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(4, backend), Params::small());
            assert!(verified(&run.results), "{backend:?}");
        }
    }

    #[test]
    fn parallel_decomposition_is_exact() {
        // Identical per-element arithmetic; only the checksum's summation
        // association differs across stripe decompositions.
        let solo = run(MidwayConfig::standalone(), Params::small());
        let rt = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        let vm = run(MidwayConfig::new(5, BackendKind::Vm), Params::small());
        let c0 = checksum(&solo.results);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(1.0);
        assert!(close(c0, checksum(&rt.results)), "{c0} vs RT");
        assert!(close(c0, checksum(&vm.results)), "{c0} vs VM");
    }

    #[test]
    fn only_edge_rows_generate_detection_work() {
        let p = Params::small();
        let run = run(MidwayConfig::new(4, BackendKind::Rt), p);
        // Interior updates are private: per phase a processor publishes at
        // most one row's colour per edge (≤ cols writes per iteration),
        // plus the initial publication.
        let per_proc_bound = (2 * p.cols + p.iters * 2 * p.cols) as u64 + 16;
        for c in &run.counters {
            assert!(
                c.dirtybits_set <= per_proc_bound,
                "interior writes leaked into the shared path: {} > {per_proc_bound}",
                c.dirtybits_set
            );
        }
    }
}
