//! The three workloads, their cells, the seeded inputs of each cell, and
//! the fingerprint of a cell's result that the correctness oracle
//! compares between passes and against the replay of the cell's trace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use midway_apps::{cholesky, kvstore, quicksort, sor, water, AppKind, Scale};
use midway_core::{BackendKind, Counters, MidwayConfig, MidwayRun, SchedStats};
use midway_sim::CATEGORY_COUNT;

/// Shard seed of `scale_sweep`'s sharded-home configuration
/// (`0x5ca1ab1e`), reused so `sor-scale` cells match that harness.
const SHARD_SEED: u64 = 0x5ca1_ab1e;
/// Combining-tree arity of `scale_sweep`'s default configuration.
const TREE_ARITY: u32 = 4;

/// One live application run of a workload: an app under one backend.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub app: AppKind,
    pub backend: BackendKind,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.label(), self.backend.cli_name())
    }
}

/// A named workload: its cells and the cluster they run on.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub cells: Vec<Cell>,
    pub procs: usize,
    pub scale: Scale,
    /// Tree barriers plus sharded homes (`MidwayConfig::scale_out`).
    pub scale_out: bool,
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["rt-locks", "vm-locks", "sor-scale"];

/// The lock-arbitrated applications of the `*-locks` workloads.
const LOCK_APPS: [AppKind; 4] = [
    AppKind::Water,
    AppKind::Quicksort,
    AppKind::Cholesky,
    AppKind::KvStore,
];

impl Workload {
    /// The workload called `name`, at its own input scale, or at `Small`
    /// when `small` is set (the self-test's scale).
    pub fn by_name(name: &str, small: bool) -> Option<Workload> {
        let locks = |backend| Workload {
            name: if backend == BackendKind::Rt {
                "rt-locks"
            } else {
                "vm-locks"
            },
            cells: LOCK_APPS.map(|app| Cell { app, backend }).to_vec(),
            procs: 8,
            scale: if small { Scale::Small } else { Scale::Paper },
            scale_out: false,
        };
        match name {
            "rt-locks" => Some(locks(BackendKind::Rt)),
            "vm-locks" => Some(locks(BackendKind::Vm)),
            "sor-scale" => Some(Workload {
                name: "sor-scale",
                cells: [BackendKind::Rt, BackendKind::Vm]
                    .map(|backend| Cell {
                        app: AppKind::Sor,
                        backend,
                    })
                    .to_vec(),
                procs: 32,
                scale: if small { Scale::Small } else { Scale::Medium },
                scale_out: true,
            }),
            _ => None,
        }
    }

    /// The configuration every cell of this workload runs under.
    pub fn config(&self, backend: BackendKind) -> MidwayConfig {
        let cfg = MidwayConfig::new(self.procs, backend);
        if self.scale_out {
            cfg.scale_out(TREE_ARITY, SHARD_SEED)
        } else {
            cfg
        }
    }
}

/// What the oracle compares: every modelled result of a cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub store_digests: Vec<u64>,
    pub counters: Vec<Counters>,
    pub finish_cycles: u64,
    pub messages: u64,
    /// Per-processor virtual-time breakdown (`ProcReport::breakdown`).
    pub breakdown: Vec<[u64; CATEGORY_COUNT]>,
}

impl Fingerprint {
    /// A hash of every field, for comparing results across processes of
    /// this same binary.
    pub fn hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&format!("{self:?}"), &mut h);
        std::hash::Hasher::finish(&h)
    }

    pub fn of<R>(run: &MidwayRun<R>) -> Fingerprint {
        Fingerprint {
            store_digests: run.store_digests.clone(),
            counters: run.counters.clone(),
            finish_cycles: run.finish_time.cycles(),
            messages: run.messages,
            breakdown: run.reports.iter().map(|r| r.breakdown).collect(),
        }
    }
}

/// One live run of a cell.
pub struct CellRun {
    pub verified: bool,
    pub wall_s: f64,
    pub fp: Fingerprint,
    /// Modelled execution time, in seconds.
    pub sim_s: f64,
    /// Modelled application data transferred, in MB.
    pub data_mb: f64,
    pub sched: SchedStats,
    /// Detector buffer-pool `(hits, misses)`, summed over processors.
    pub pool: (u64, u64),
    /// The recorded run's trace, when the run was recorded.
    pub trace: Option<midway_replay::Trace>,
}

/// The seeded inputs of a cell. Seed 0 reproduces `run_app`'s inputs at
/// the same scale: each seeded application's default seed is offset by
/// the benchmark seed. Water and cholesky take no seed — water places
/// its molecules on a lattice and cholesky factors a fixed grid
/// Laplacian — so their inputs are the same for every seed.
#[derive(Clone, Copy, Debug)]
pub enum Inputs {
    Water(water::Params),
    Quicksort(quicksort::Params),
    Cholesky(cholesky::Params),
    KvStore(kvstore::Params),
    Sor(sor::Params),
}

impl Inputs {
    pub fn new(app: AppKind, scale: Scale, seed: u64) -> Inputs {
        let small = scale == Scale::Small;
        match app {
            AppKind::Water => Inputs::Water(if small {
                water::Params::small()
            } else {
                water::Params::paper()
            }),
            AppKind::Quicksort => {
                let p = if small {
                    quicksort::Params::small()
                } else {
                    quicksort::Params::paper()
                };
                Inputs::Quicksort(quicksort::Params {
                    seed: p.seed.wrapping_add(seed),
                    ..p
                })
            }
            AppKind::Cholesky => Inputs::Cholesky(if small {
                cholesky::Params::small()
            } else {
                cholesky::Params::paper()
            }),
            AppKind::KvStore => {
                let mut p = if small {
                    kvstore::Params::small()
                } else {
                    kvstore::Params::paper()
                };
                p.svc.seed = p.svc.seed.wrapping_add(seed);
                Inputs::KvStore(p)
            }
            AppKind::Sor => {
                let p = match scale {
                    Scale::Paper => sor::Params::paper(),
                    // 32 processors need two rows each: the small grid
                    // grows from 40 to 64 rows.
                    Scale::Small => sor::Params {
                        rows: 64,
                        ..sor::Params::small()
                    },
                    // `run_app`'s medium sor.
                    _ => sor::Params {
                        rows: 400,
                        cols: 400,
                        iters: 10,
                        seed: 7,
                    },
                };
                Inputs::Sor(sor::Params {
                    seed: p.seed.wrapping_add(seed),
                    ..p
                })
            }
            other => panic!("no workload runs {other:?}"),
        }
    }
}

/// Runs one cell live under `cfg`. A simulation failure (deadlock,
/// processor panic) is caught and returned as `None`, a failed cell.
pub fn run_cell(inputs: Inputs, cfg: MidwayConfig, scale: Scale) -> Option<CellRun> {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match inputs {
        Inputs::Water(p) => {
            let run = water::run(cfg, p);
            let ok = water::verified(&run.results);
            package(run, ok, AppKind::Water, scale)
        }
        Inputs::Quicksort(p) => {
            let run = quicksort::run(cfg, p);
            let ok = run.results[0].sorted_ok == Some(true);
            package(run, ok, AppKind::Quicksort, scale)
        }
        Inputs::Cholesky(p) => {
            let run = cholesky::run(cfg, p);
            let ok = cholesky::verified(&run.results);
            package(run, ok, AppKind::Cholesky, scale)
        }
        Inputs::KvStore(p) => {
            let run = kvstore::run(cfg, p);
            let ok = kvstore::verified(&run.results);
            package(run, ok, AppKind::KvStore, scale)
        }
        Inputs::Sor(p) => {
            let run = sor::run(cfg, p);
            let ok = sor::verified(&run.results);
            package(run, ok, AppKind::Sor, scale)
        }
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    result.ok().map(|mut r| {
        r.wall_s = wall_s;
        r
    })
}

fn package<R>(run: MidwayRun<R>, verified: bool, app: AppKind, scale: Scale) -> CellRun {
    let trace = (!run.traces.is_empty())
        .then(|| midway_replay::Trace::from_run(app.label(), scale.label(), verified, &run));
    CellRun {
        verified,
        wall_s: 0.0,
        fp: Fingerprint::of(&run),
        sim_s: run.exec_secs(),
        data_mb: run.data_mb_total(),
        sched: run.sched,
        pool: run
            .alloc
            .iter()
            .fold((0, 0), |(h, m), &(hh, mm)| (h + hh, m + mm)),
        trace,
    }
}
