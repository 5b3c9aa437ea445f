//! Host-performance baseline: how fast does the *simulator itself* run?
//!
//! Every other harness reports virtual-time results; this one times the
//! host. It runs a fixed basket of live application runs (the standard
//! eight-processor cluster, paper scale) and a set of memory hot-path
//! microbenchmarks (page diff, dirtybit scan, store digest), reporting
//! wall-clock seconds, events delivered per second, and diffed bytes per
//! second — the perf trajectory the repo tracks across PRs.
//!
//! Flags beyond the standard [`BenchArgs`] set:
//!
//! * `--emit-baseline` — also write `results/hostperf_baseline.txt`, a
//!   flat `key value` file capturing this build's numbers as the baseline
//!   for later runs;
//! * `--baseline FILE` — read a previously emitted baseline (default
//!   `results/hostperf_baseline.txt` when it exists) and include per-cell
//!   speedups in the output;
//! * `--reps N` — repetitions per cell, minimum taken (default 3);
//! * `--smoke` — small scale, one rep, reduced micro sizes: the CI gate
//!   that the harness itself works;
//! * `--gate FILE` — regression gate: read a previously committed
//!   `BENCH_hostperf.json`, compute the geometric-mean speedup of this
//!   run's cells over its recorded `host_secs`, and exit non-zero if the
//!   geomean drops below [`GATE_THRESHOLD`]. The committed numbers are
//!   min-of-several-reps on a quiet host while the gate typically runs at
//!   one rep mid-CI, so the threshold must absorb genuine host drift
//!   (~15% observed within a session, more across sessions) and is set
//!   to catch structural hot-path regressions, not noise.
//!
//! Besides wall-clock numbers, every cell reports *attribution counters*
//! from the engine itself: scheduler rendezvous (one per delivered event)
//! and detector buffer-pool hits/misses.
//!
//! The default output path is `BENCH_hostperf.json` at the repository
//! root (override with `--out`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use midway_apps::{run_app, AppKind, Scale};
use midway_bench::{BenchArgs, Json};
use midway_core::{BackendKind, MidwayConfig};
use midway_mem::diff::PageDiff;
use midway_mem::{DirtyBits, LayoutBuilder, LocalStore, MemClass, PAGE_SIZE};
use midway_stats::{fmt_f64, TextTable};

/// The fixed basket: every cell is a standard harness configuration
/// (live run, eight processors at the default `--procs`). Water and
/// quicksort are the lock-heavy applications; sor and matrix are
/// barrier-partitioned; cholesky mixes both.
const BASKET: [(AppKind, BackendKind); 8] = [
    (AppKind::Water, BackendKind::Rt),
    (AppKind::Water, BackendKind::Vm),
    (AppKind::Quicksort, BackendKind::Rt),
    (AppKind::Quicksort, BackendKind::Vm),
    (AppKind::Sor, BackendKind::Rt),
    (AppKind::Sor, BackendKind::Vm),
    (AppKind::Cholesky, BackendKind::Rt),
    (AppKind::Matmul, BackendKind::Vm),
];

struct Cell {
    app: AppKind,
    backend: BackendKind,
    host_secs: f64,
    events: u64,
    diffed_bytes: u64,
    sim_secs: f64,
    sched: midway_core::SchedStats,
    pool_hits: u64,
    pool_misses: u64,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}-{}", self.app.label(), self.backend.cli_name())
    }
}

/// One micro measurement: a label and a throughput in bytes/second
/// (lines/second for the scan rows).
struct Micro {
    label: &'static str,
    per_sec: f64,
    unit: &'static str,
}

fn time_cell(app: AppKind, backend: BackendKind, procs: usize, scale: Scale, reps: usize) -> Cell {
    let mut best = f64::INFINITY;
    let mut events = 0;
    let mut diffed_bytes = 0;
    let mut sim_secs = 0.0;
    let mut sched = midway_core::SchedStats::default();
    let mut pool_hits = 0;
    let mut pool_misses = 0;
    for _ in 0..reps.max(1) {
        let cfg = MidwayConfig::new(procs, backend);
        let t0 = Instant::now();
        let out = run_app(app, cfg, scale);
        let secs = t0.elapsed().as_secs_f64();
        assert!(
            out.verified,
            "{app:?} under {backend:?} failed verification"
        );
        best = best.min(secs);
        events = out.messages;
        sim_secs = out.exec_secs;
        diffed_bytes = out
            .counters
            .iter()
            .map(|c| c.pages_diffed * PAGE_SIZE as u64)
            .sum();
        // Attribution counters are deterministic per configuration, so any
        // rep's snapshot is the run's snapshot.
        sched = out.sched;
        pool_hits = out.alloc.iter().map(|&(h, _)| h).sum();
        pool_misses = out.alloc.iter().map(|&(_, m)| m).sum();
    }
    Cell {
        app,
        backend,
        host_secs: best,
        events,
        diffed_bytes,
        sim_secs,
        sched,
        pool_hits,
        pool_misses,
    }
}

/// Times `f` over `iters` calls and returns units-per-second given the
/// per-call unit count.
fn throughput(iters: usize, units_per_call: f64, mut f: impl FnMut()) -> f64 {
    // One warmup call keeps lazy allocation out of the timed region.
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    units_per_call * iters as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

fn micro_suite(smoke: bool) -> Vec<Micro> {
    let iters = if smoke { 50 } else { 2_000 };
    let page = PAGE_SIZE;
    let mut out = Vec::new();

    // Page diffing: identical pages (the fast path collection hits on
    // clean data), a dense writer (every word changed) and a sparse one
    // (every 16th word) — the fragmentation endpoints of Table 1.
    let twin = vec![0u8; page];
    let identical = twin.clone();
    let mut dense = twin.clone();
    for (i, b) in dense.iter_mut().enumerate() {
        *b = (i % 251) as u8 + 1;
    }
    let mut sparse = twin.clone();
    for i in (0..page).step_by(64) {
        sparse[i] = 0xAB;
    }
    for (label, cur) in [
        ("diff_identical", &identical),
        ("diff_dense", &dense),
        ("diff_sparse", &sparse),
    ] {
        out.push(Micro {
            label,
            per_sec: throughput(iters, page as f64, || {
                std::hint::black_box(PageDiff::compute(std::hint::black_box(cur), &twin));
            }),
            unit: "bytes",
        });
    }
    out.push(Micro {
        label: "diff_reference_dense",
        per_sec: throughput(iters, page as f64, || {
            std::hint::black_box(PageDiff::compute_reference(
                std::hint::black_box(&dense),
                &twin,
            ));
        }),
        unit: "bytes",
    });

    // Dirtybit scan: a mostly-clean array with a sprinkling of dirty and
    // freshly-stamped lines, the shape a barrier-partition scan sees.
    let lines = if smoke { 4_096 } else { 65_536 };
    let mut bits = DirtyBits::new(lines);
    for line in (0..lines).step_by(97) {
        bits.mark(line);
    }
    for line in (1..lines).step_by(193) {
        bits.stamp(line, 50);
    }
    let snapshot = bits.clone();
    out.push(Micro {
        label: "dirtybit_scan",
        per_sec: throughput(iters, lines as f64, || {
            bits.clone_from(&snapshot);
            std::hint::black_box(bits.scan(0..lines, 10, 99));
        }),
        unit: "lines",
    });
    out.push(Micro {
        label: "dirtybit_scan_reference",
        per_sec: throughput(iters, lines as f64, || {
            bits.clone_from(&snapshot);
            std::hint::black_box(bits.scan_reference(0..lines, 10, 99));
        }),
        unit: "lines",
    });

    // Store digest: a few regions, one written densely, one sparsely,
    // one untouched (the unmaterialized fast path).
    let mb = if smoke { 1usize } else { 8 };
    let mut b = LayoutBuilder::new();
    let dense_r = b.alloc("dense", mb << 20, MemClass::Shared, 6);
    let sparse_r = b.alloc("sparse", mb << 20, MemClass::Shared, 6);
    b.alloc("untouched", mb << 20, MemClass::Shared, 6);
    let layout = b.build();
    let mut store = LocalStore::new(layout);
    for off in (0..(mb << 20)).step_by(8) {
        store.write_u64(dense_r.addr + off as u64, off as u64 | 1);
    }
    for off in (0..(mb << 20)).step_by(4096) {
        store.write_u64(sparse_r.addr + off as u64, 7);
    }
    let digest_iters = if smoke { 4 } else { 40 };
    out.push(Micro {
        label: "store_digest",
        per_sec: throughput(digest_iters, (3 * (mb << 20)) as f64, || {
            std::hint::black_box(store.digest());
        }),
        unit: "bytes",
    });
    out
}

/// Parses a previously emitted flat baseline file: `key value` lines.
fn load_baseline(path: &PathBuf) -> Option<HashMap<String, f64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut map = HashMap::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if let (Some(k), Some(v)) = (it.next(), it.next()) {
            if let Ok(v) = v.parse::<f64>() {
                map.insert(k.to_string(), v);
            }
        }
    }
    Some(map)
}

fn main() {
    let mut args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    if smoke {
        args.scale = Scale::Small;
    }
    let reps: usize = args
        .value("--reps")
        .map(|s| s.parse().expect("--reps takes a number"))
        .unwrap_or(if smoke { 1 } else { 3 });
    let baseline_path = args
        .value("--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/hostperf_baseline.txt"));
    println!("== Host performance: wall-clock cost of the simulator ==");
    println!(
        "scale: {:?}, processors: {}, reps: {reps}\n",
        args.scale, args.procs
    );

    let mut t = TextTable::new(&[
        "app",
        "backend",
        "host (s)",
        "events/s",
        "diffed MB/s",
        "sim (s)",
    ]);
    let mut cells = Vec::new();
    for (app, backend) in BASKET {
        eprintln!("timing {} under {} ...", app.label(), backend.label());
        let cell = time_cell(app, backend, args.procs, args.scale, reps);
        t.row(&[
            cell.app.label().to_string(),
            cell.backend.cli_name().to_string(),
            fmt_f64(cell.host_secs, 3),
            fmt_f64(cell.events as f64 / cell.host_secs.max(1e-12), 0),
            fmt_f64(
                cell.diffed_bytes as f64 / cell.host_secs.max(1e-12) / 1e6,
                1,
            ),
            fmt_f64(cell.sim_secs, 1),
        ]);
        cells.push(cell);
    }
    println!("{t}");

    // Per-layer attribution: what the event engine and the allocation
    // discipline actually did during each cell.
    let mut at = TextTable::new(&["cell", "dispatches", "pool hit %"]);
    for cell in &cells {
        let pool_total = cell.pool_hits + cell.pool_misses;
        at.row(&[
            cell.key(),
            cell.sched.dispatches.to_string(),
            if pool_total == 0 {
                "-".to_string()
            } else {
                fmt_f64(100.0 * cell.pool_hits as f64 / pool_total as f64, 1)
            },
        ]);
    }
    println!("{at}");

    let micro = micro_suite(smoke);
    let mut mt = TextTable::new(&["micro", "throughput"]);
    for m in &micro {
        let scaled = match m.unit {
            "bytes" => format!("{} MB/s", fmt_f64(m.per_sec / 1e6, 1)),
            _ => format!("{} Mlines/s", fmt_f64(m.per_sec / 1e6, 1)),
        };
        mt.row(&[m.label.to_string(), scaled]);
    }
    println!("{mt}");

    // The baseline is recorded at paper scale; comparing a smoke run
    // against it would manufacture absurd "speedups".
    let baseline = if smoke {
        None
    } else {
        load_baseline(&baseline_path)
    };
    let mut best_speedup: Option<(String, f64)> = None;
    let mut speedups = Vec::new();
    let mut cells_json = Vec::new();
    for cell in &cells {
        let mut pairs = vec![
            ("app".to_string(), Json::str(cell.app.label())),
            ("backend".to_string(), Json::str(cell.backend.cli_name())),
            ("host_secs".to_string(), Json::F64(cell.host_secs)),
            ("events".to_string(), Json::U64(cell.events)),
            (
                "events_per_sec".to_string(),
                Json::F64(cell.events as f64 / cell.host_secs.max(1e-12)),
            ),
            ("diffed_bytes".to_string(), Json::U64(cell.diffed_bytes)),
            (
                "diffed_bytes_per_sec".to_string(),
                Json::F64(cell.diffed_bytes as f64 / cell.host_secs.max(1e-12)),
            ),
            ("sim_secs".to_string(), Json::F64(cell.sim_secs)),
            (
                "attribution".to_string(),
                Json::obj([
                    ("dispatches", Json::U64(cell.sched.dispatches)),
                    ("pool_hits", Json::U64(cell.pool_hits)),
                    ("pool_misses", Json::U64(cell.pool_misses)),
                ]),
            ),
        ];
        if let Some(base) = baseline
            .as_ref()
            .and_then(|b| b.get(&format!("cell.{}.host_secs", cell.key())))
        {
            let speedup = base / cell.host_secs.max(1e-12);
            pairs.push(("baseline_host_secs".to_string(), Json::F64(*base)));
            pairs.push(("speedup".to_string(), Json::F64(speedup)));
            speedups.push(speedup);
            if best_speedup.as_ref().is_none_or(|(_, s)| speedup > *s) {
                best_speedup = Some((cell.key(), speedup));
            }
        }
        cells_json.push(Json::Obj(pairs));
    }
    let mut micro_json = Vec::new();
    for m in &micro {
        let mut pairs = vec![
            ("name".to_string(), Json::str(m.label)),
            (
                format!("{}_per_sec", m.unit.trim_end_matches('s')),
                Json::F64(m.per_sec),
            ),
        ];
        if let Some(base) = baseline
            .as_ref()
            .and_then(|b| b.get(&format!("micro.{}.per_sec", m.label)))
        {
            pairs.push(("baseline_per_sec".to_string(), Json::F64(*base)));
            pairs.push(("speedup".to_string(), Json::F64(m.per_sec / base)));
        }
        micro_json.push(Json::Obj(pairs));
    }

    let geomean = (!speedups.is_empty())
        .then(|| (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp());
    if let Some((key, speedup)) = &best_speedup {
        println!(
            "best end-to-end speedup vs baseline: {key} at {}x",
            fmt_f64(*speedup, 2)
        );
        if let Some(g) = geomean {
            println!(
                "geomean end-to-end speedup vs baseline: {}x over {} cells",
                fmt_f64(g, 3),
                speedups.len()
            );
        }
    } else if smoke {
        println!("(smoke run — baseline comparison skipped)");
    } else {
        println!(
            "(no baseline at {} — raw numbers only)",
            baseline_path.display()
        );
    }

    if args.flag("--emit-baseline") {
        let mut text = String::new();
        for cell in &cells {
            text.push_str(&format!(
                "cell.{}.host_secs {}\n",
                cell.key(),
                cell.host_secs
            ));
        }
        for m in &micro {
            text.push_str(&format!("micro.{}.per_sec {}\n", m.label, m.per_sec));
        }
        std::fs::create_dir_all("results").expect("creating results dir");
        std::fs::write(&baseline_path, text)
            .unwrap_or_else(|e| panic!("writing {}: {e}", baseline_path.display()));
        println!("baseline written to {}", baseline_path.display());
    }

    let mut pairs = args.meta_json("hostperf");
    pairs.push(("reps".to_string(), Json::U64(reps as u64)));
    pairs.push(("cells".to_string(), Json::Arr(cells_json)));
    pairs.push(("micro".to_string(), Json::Arr(micro_json)));
    if let Some((key, speedup)) = best_speedup {
        pairs.push((
            "best_speedup".to_string(),
            Json::obj([("cell", Json::str(key)), ("factor", Json::F64(speedup))]),
        ));
    }
    if let Some(g) = geomean {
        pairs.push(("geomean_speedup".to_string(), Json::F64(g)));
    }
    if args.out.is_none() {
        args.out = Some(PathBuf::from("BENCH_hostperf.json"));
    }
    let gate = args.value("--gate").map(PathBuf::from);
    args.emit("hostperf", &Json::Obj(pairs));

    if let Some(gate_path) = gate {
        assert!(
            !smoke,
            "--gate compares against full-scale committed numbers; do not combine with --smoke"
        );
        run_gate(&gate_path, &cells);
    }
}

/// Minimum acceptable geomean speedup over the committed numbers. A real
/// event-engine or hot-path regression costs 2-5x on the event-dense
/// cells; host drift between a quiet min-of-reps measurement and a
/// one-rep mid-CI run is ~15% (verified via the untouched byte-reference
/// micros moving in lockstep). 0.7 separates the two cleanly.
const GATE_THRESHOLD: f64 = 0.7;

/// Regression gate: compares this run's cells against the `host_secs`
/// recorded in a previously committed `BENCH_hostperf.json` and exits
/// non-zero if the geometric-mean speedup has dropped below
/// [`GATE_THRESHOLD`].
fn run_gate(gate_path: &PathBuf, cells: &[Cell]) {
    let text = std::fs::read_to_string(gate_path)
        .unwrap_or_else(|e| panic!("reading gate file {}: {e}", gate_path.display()));
    let json = Json::parse(&text)
        .unwrap_or_else(|e| panic!("parsing gate file {}: {e}", gate_path.display()));
    let mut committed = HashMap::new();
    for c in json.get("cells").map(Json::items).unwrap_or_default() {
        if let (Some(app), Some(backend), Some(secs)) = (
            c.get("app").and_then(Json::as_str),
            c.get("backend").and_then(Json::as_str),
            c.get("host_secs").and_then(Json::as_f64),
        ) {
            committed.insert(format!("{app}-{backend}"), secs);
        }
    }
    let mut ratios = Vec::new();
    for cell in cells {
        if let Some(base) = committed.get(&cell.key()) {
            ratios.push(base / cell.host_secs.max(1e-12));
        }
    }
    assert!(
        !ratios.is_empty(),
        "gate file {} shares no cells with this run",
        gate_path.display()
    );
    let geomean = (ratios.iter().map(|s| s.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!(
        "gate: geomean speedup vs {} = {}x over {} cells (threshold {GATE_THRESHOLD})",
        gate_path.display(),
        fmt_f64(geomean, 3),
        ratios.len()
    );
    if geomean < GATE_THRESHOLD {
        eprintln!("gate FAILED: this build is far slower than the committed hostperf numbers");
        std::process::exit(1);
    }
}
