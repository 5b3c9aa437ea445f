//! End-to-end tests of the real transport: the same protocol engine that
//! runs on the virtual-time simulator, driven over actual loopback
//! sockets by OS threads, with the simulator as the correctness oracle.
//!
//! The oracle argument: a run on real sockets records its per-processor
//! shared-memory operation streams; replaying those streams through the
//! deterministic simulator independently re-executes the protocol, and
//! for lock-order-independent workloads the two executions — kernel
//! scheduler vs. virtual time, sockets vs. simulated delivery — must
//! agree on every byte of final shared memory.

use std::time::Duration;

use midway_apps::{run_app_real, sor, AppKind, Scale};
use midway_core::{BackendKind, FaultPlan, MidwayConfig, RealConfig};
use midway_replay::{verify_real_trace, Trace};

const PROCS: usize = 4;

/// A watchdog long enough for debug-build CI machines, short enough that
/// a genuine hang fails the suite rather than timing it out.
fn tcp() -> RealConfig {
    RealConfig::tcp().watchdog(Some(Duration::from_secs(60)))
}

/// Every application completes and self-verifies on the real transport,
/// under every data-moving backend.
#[test]
fn every_app_completes_on_tcp_under_every_backend() {
    for kind in AppKind::all() {
        for backend in BackendKind::DATA {
            let cfg = MidwayConfig::new(PROCS, backend);
            let out = run_app_real(kind, cfg, &tcp(), Scale::Small).unwrap_or_else(|e| {
                panic!(
                    "{} under {} failed on the real transport: {e}",
                    kind.label(),
                    backend.label()
                )
            });
            assert!(
                out.verified,
                "{} failed its own verification under {} on the real transport",
                kind.label(),
                backend.label()
            );
        }
    }
}

/// A trace recorded on the real transport replays through the simulator
/// with bit-identical final memory — for every backend, after a round
/// trip through the trace file format.
#[test]
fn real_traces_replay_through_the_simulator_oracle() {
    for backend in BackendKind::DATA {
        let cfg = MidwayConfig::new(PROCS, backend).record(true);
        let out = run_app_real(AppKind::Sor, cfg, &tcp(), Scale::Small)
            .unwrap_or_else(|e| panic!("sor under {} failed: {e}", backend.label()));
        assert!(out.verified);

        let trace = Trace::from_outcome(&out, Scale::Small);
        let decoded = Trace::decode(&trace.encode()).expect("trace round-trips");
        let check = verify_real_trace(&decoded, &out.store_digests, true).unwrap_or_else(|d| {
            panic!(
                "simulator oracle rejected the {} real run: {d}",
                backend.label()
            )
        });
        assert!(check.digests_checked);
        assert!(check.total_ops > 0, "the trace must record the run");
    }
}

/// Repeated real-transport runs always converge to the same final memory
/// as each other and as the simulator — wall-clock scheduling jitter
/// changes timings, never bytes.
#[test]
fn repeated_real_runs_agree_on_final_memory() {
    let mut baseline: Option<Vec<u64>> = None;
    for round in 0..5 {
        let cfg = MidwayConfig::new(PROCS, BackendKind::Rt).record(true);
        let out = run_app_real(AppKind::Sor, cfg, &tcp(), Scale::Small)
            .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
        assert!(out.verified, "round {round} failed verification");

        let trace = Trace::from_outcome(&out, Scale::Small);
        verify_real_trace(&trace, &out.store_digests, true)
            .unwrap_or_else(|d| panic!("round {round}: oracle rejected the run: {d}"));

        match &baseline {
            None => baseline = Some(out.store_digests),
            Some(first) => assert_eq!(
                &out.store_digests, first,
                "round {round} reached different final memory than round 0"
            ),
        }
    }
}

/// Over lossy UDP the reliable channel masks injected drops and
/// duplicates: the run still completes, verifies, and satisfies the
/// simulator oracle, and the injection demonstrably happened.
#[test]
fn lossy_udp_run_completes_and_still_satisfies_the_oracle() {
    // 5% drop + 5% duplication, deterministic schedule.
    let plan = FaultPlan::seeded(7).drop_ppm(50_000).dup_ppm(50_000);
    let real = RealConfig::udp(plan).watchdog(Some(Duration::from_secs(60)));
    let cfg = MidwayConfig::new(PROCS, BackendKind::Rt).record(true);

    let run = sor::run_real(cfg, &real, sor::Params::small()).expect("lossy sor run failed");
    assert!(sor::verified(&run.results));

    let injected: u64 = run.reports.iter().map(|r| r.fault_stats.total()).sum();
    assert!(injected > 0, "the loss plan must actually inject faults");
    let link = run.link_totals();
    assert!(
        link.data_frames_sent > 0,
        "UDP mode must frame messages reliably"
    );
    assert!(
        link.retransmits > 0 || link.dup_frames_dropped > 0,
        "masking 5% loss must leave reliable-channel evidence \
         (stats: {link:?})"
    );

    let trace = Trace::from_run("sor", Scale::Small.label(), true, &run);
    verify_real_trace(&trace, &run.store_digests, true)
        .unwrap_or_else(|d| panic!("oracle rejected the lossy UDP run: {d}"));
}

/// The watchdog aborts a hung run with per-processor state dumps instead
/// of letting the suite hang: a two-processor barrier only one processor
/// ever reaches cannot finish.
#[test]
fn watchdog_aborts_a_stuck_run_with_dumps() {
    use midway_core::{Midway, RealError, SystemBuilder};

    let mut b = SystemBuilder::new();
    let cell = b.shared_array::<u64>("cell", 1, 1);
    let bar = b.barrier(vec![cell.full_range()]);
    let spec = b.build();

    let real = RealConfig::tcp().watchdog(Some(Duration::from_millis(300)));
    let cfg = MidwayConfig::new(2, BackendKind::Rt);
    let err = Midway::run_real(cfg, &real, &spec, async |p| {
        if p.id() == 0 {
            p.barrier(bar).await; // processor 1 never arrives
        }
    })
    .expect_err("a one-sided barrier must trip the watchdog");
    match err {
        RealError::Watchdog { dumps, .. } => {
            assert_eq!(dumps.len(), 2, "one state dump per processor");
        }
        other => panic!("expected a watchdog abort, got: {other}"),
    }
}
