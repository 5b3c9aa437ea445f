//! Randomized tests for the deterministic scheduler.
//!
//! These are property tests driven by the internal [`SplitMix64`]
//! generator (the workspace builds offline, so no external property
//! testing framework): each case is derived from a fixed seed, making
//! failures exactly reproducible from the printed case number. Every
//! program runs under both drivers, which must agree on everything.

use std::fmt::Debug;
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use midway_sim::{
    Cluster, ClusterConfig, NetModel, ProcHandle, RunOutcome, SplitMix64, VirtualTime,
};

/// Polls `fut` once: under the threaded driver `recv_async` blocks.
fn block_on<T>(fut: impl Future<Output = T>) -> T {
    let Poll::Ready(v) = pin!(fut).poll(&mut Context::from_waker(Waker::noop())) else {
        panic!("a threaded processor's future pended");
    };
    v
}

/// Runs `program` under both drivers, asserts they agree, and returns the
/// single-thread outcome.
fn both_drivers<M, R>(
    cfg: ClusterConfig,
    program: impl AsyncFn(&mut ProcHandle<M>) -> R + Sync,
) -> RunOutcome<R>
where
    M: Send + Clone + 'static,
    R: Send + PartialEq + Debug,
{
    let threaded = Cluster::run(cfg, |p| block_on(program(p))).expect("threaded run failed");
    let single = Cluster::run_async(cfg, &program).expect("single-thread run failed");
    assert_eq!(threaded.results, single.results);
    assert_eq!(threaded.reports, single.reports);
    assert_eq!(threaded.messages_delivered, single.messages_delivered);
    assert_eq!(threaded.sched, single.sched);
    single
}

/// Every sent message is delivered exactly once, at a time no earlier
/// than its send time plus the wire cost, and per-receiver delivery
/// times never decrease.
#[test]
fn delivery_is_exact_and_monotonic() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for case in 0..32 {
        let procs = 2 + rng.next_below(4) as usize;
        let fanout = 1 + rng.next_below(5) as usize;
        let work: Vec<u64> = (0..5).map(|_| rng.next_below(10_000)).collect();

        let cfg = ClusterConfig::new(procs).net(NetModel {
            latency_cycles: 100,
            per_byte_millicycles: 1000,
            send_overhead_cycles: 50,
            recv_overhead_cycles: 50,
        });
        let out = both_drivers(cfg, async |p: &mut ProcHandle<(usize, u64)>| {
            let me = p.id();
            let n = p.procs();
            p.work(work[me % work.len()]);
            // Everyone sends `fanout` messages to the next processor.
            for _ in 0..fanout {
                let sent_at = p.now();
                p.send((me + 1) % n, (me, sent_at.cycles()), 16);
            }
            // And receives `fanout` messages from the previous one.
            let mut arrivals = Vec::new();
            for _ in 0..fanout {
                let (at, src, (claimed_src, sent_at)) = p.recv_async().await;
                arrivals.push((at, src, claimed_src, sent_at));
            }
            arrivals
        });

        let mut delivered = 0usize;
        for (pid, arrivals) in out.results.iter().enumerate() {
            let mut prev = VirtualTime::ZERO;
            for &(at, src, claimed_src, sent_at) in arrivals {
                delivered += 1;
                assert_eq!(src, claimed_src, "case {case}");
                assert_eq!(src, (pid + out.results.len() - 1) % out.results.len());
                // Wire cost: 100 latency + 16 bytes at 1 cycle/byte.
                assert!(at.cycles() >= sent_at + 116, "delivered before arrival");
                assert!(at >= prev, "per-receiver delivery went backwards");
                prev = at;
            }
        }
        assert_eq!(delivered as u64, out.messages_delivered, "case {case}");
        assert_eq!(delivered, procs * fanout, "case {case}");
    }
}

/// Finish time equals the maximum processor clock and is itself
/// deterministic across runs.
#[test]
fn finish_time_is_max_and_stable() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for case in 0..32 {
        let procs = 1 + rng.next_below(4) as usize;
        let work: Vec<u64> = (0..4).map(|_| 1 + rng.next_below(100_000)).collect();
        let run = || {
            both_drivers(ClusterConfig::new(procs), async |p: &mut ProcHandle<u8>| {
                p.work(work[p.id() % work.len()]);
                p.now()
            })
        };
        let a = run();
        let max = a.results.iter().copied().max().expect("non-empty");
        assert_eq!(a.finish_time, max, "case {case}");
        let b = run();
        assert_eq!(a.finish_time, b.finish_time, "case {case}");
    }
}
