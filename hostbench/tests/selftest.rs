//! The benchmark's self-test: every workload's cells at `Scale::Small`
//! through the full metric pipeline.
//!
//! ```text
//! cargo test --release --manifest-path hostbench/Cargo.toml
//! ```

use std::path::Path;

use hostbench::bench::{self, pass, Oracle};
use hostbench::cells::{run_cell, Fingerprint, Inputs, Workload, WORKLOADS};
use hostbench::layers::{replay, PER_LAYER};
use midway_apps::{run_app, AppKind, Scale};
use midway_core::{BackendKind, MidwayConfig};

/// The `"name"` values of one top-level list of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_program_emits() {
    assert_eq!(names_in("workloads"), WORKLOADS);
    let e2e: Vec<&str> = bench::END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names_in("per_layer"), layers);
}

#[test]
fn every_workload_emits_every_metric_and_verifies() {
    for name in WORKLOADS {
        let wl = Workload::by_name(name, true).expect("known workload");
        for trace in [false, true] {
            let exe = Path::new(env!("CARGO_BIN_EXE_hostbench"));
            let report = bench::run(&wl, 3, 0.0, trace, exe);
            assert_eq!(report.failed, 0, "{name} trace={trace}");
            assert!(report.attempted >= 4 * wl.cells.len() as u64);
            let want = if trace {
                names_in("per_layer")
            } else {
                names_in("end_to_end")
            };
            let got: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(got, want, "{name} trace={trace}");
            assert!(report.json().starts_with("{\"correct\": true, "));
            if !trace {
                for (metric, value, _) in &report.metrics {
                    assert!(*value > 0.0, "{name}: {metric} = {value}");
                }
            }
        }
    }
}

/// Two passes agree on every modelled result, and so does the replay of
/// the second pass's trace: finish time and so `sim_s`, data and
/// messages, counters, digests and the `vt.*` breakdown.
#[test]
fn modelled_results_agree_between_passes_and_with_the_replay() {
    for name in WORKLOADS {
        let wl = Workload::by_name(name, true).expect("known workload");
        let inputs: Vec<Inputs> = wl
            .cells
            .iter()
            .map(|c| Inputs::new(c.app, wl.scale, 5))
            .collect();
        let mut oracle = Oracle::new(wl.cells.len());
        let a = pass(&wl, &inputs, false, &mut oracle);
        let b = pass(&wl, &inputs, true, &mut oracle);
        assert_eq!(oracle.failed, 0, "{name}");
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            let (ra, rb) = (ra.as_ref().expect("ran"), rb.as_ref().expect("ran"));
            assert_eq!(ra.fp, rb.fp);
            assert_eq!(ra.sim_s, rb.sim_s);
            assert_eq!(ra.data_mb, rb.data_mb);
            let trace = rb.trace.as_ref().expect("recorded");
            let (fp, _) = replay(trace, false).expect("replays");
            assert_eq!(fp, ra.fp, "{name}: replay differs from the live run");
            let (fp, _) = replay(trace, true).expect("replays with the checker");
            assert_eq!(fp, ra.fp, "{name}: checked replay differs");
        }
    }
}

#[test]
fn oracle_fails_a_divergent_run() {
    let wl = Workload::by_name("rt-locks", true).expect("known workload");
    let cell = wl.cells[0];
    let mut oracle = Oracle::new(1);
    let fp = Fingerprint {
        store_digests: vec![1, 2],
        counters: vec![Default::default(); 2],
        finish_cycles: 10,
        messages: 4,
        breakdown: vec![[0; midway_sim::CATEGORY_COUNT]; 2],
    };
    assert!(oracle.check_replay(0, &cell, Some(&fp)));
    assert!(oracle.check_replay(0, &cell, Some(&fp)));
    let moved = Fingerprint {
        messages: 5,
        ..fp.clone()
    };
    assert!(!oracle.check_replay(0, &cell, Some(&moved)));
    assert!(!oracle.check_replay(0, &cell, None));
    assert_eq!((oracle.attempted, oracle.failed), (4, 2));
}

/// Seed 0 gives `run_app`'s inputs (same final memory and counters);
/// another seed gives other inputs.
#[test]
fn seed_zero_reproduces_run_app_inputs() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt);
    let live = |app, seed| {
        run_cell(Inputs::new(app, Scale::Small, seed), cfg, Scale::Small).expect("cell runs")
    };
    for app in [
        AppKind::Water,
        AppKind::Quicksort,
        AppKind::Cholesky,
        AppKind::KvStore,
    ] {
        let ours = live(app, 0);
        let theirs = run_app(app, cfg, Scale::Small);
        assert_eq!(ours.fp.store_digests, theirs.store_digests, "{app:?}");
        assert_eq!(ours.fp.counters, theirs.counters, "{app:?}");
    }
    for app in [AppKind::Quicksort, AppKind::KvStore] {
        assert_ne!(live(app, 0).fp, live(app, 1).fp, "{app:?}");
    }
    // run_app's medium sor inputs are private to it; these are its values.
    match Inputs::new(AppKind::Sor, Scale::Medium, 0) {
        Inputs::Sor(p) => assert_eq!((p.rows, p.cols, p.iters, p.seed), (400, 400, 10, 7)),
        other => panic!("{other:?}"),
    }
}
