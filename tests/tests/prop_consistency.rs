//! Randomized consistency tests: random entry-consistency programs
//! must preserve counting invariants on every backend. Driven by the
//! internal [`SplitMix64`] generator so the workspace tests offline;
//! every case derives from a fixed seed and is exactly reproducible.

use std::sync::Arc;

use midway_core::{
    BackendKind, Midway, MidwayConfig, NetModel, SplitMix64, SystemBuilder, SystemSpec,
};

const BACKENDS: [BackendKind; 5] = [
    BackendKind::Rt,
    BackendKind::Vm,
    BackendKind::Blast,
    BackendKind::TwinAll,
    BackendKind::Hybrid,
];

/// A randomly generated lock-counter program: `plan[p][r] = (lock, slot,
/// delta)` — processor `p`'s r-th action increments `slot` of `lock`'s
/// region by `delta`.
#[derive(Clone, Debug)]
struct Plan {
    procs: usize,
    locks: usize,
    slots_per_lock: usize,
    actions: Vec<Vec<(usize, usize, u64)>>,
}

fn random_plan(rng: &mut SplitMix64) -> Plan {
    let procs = 2 + rng.next_below(3) as usize;
    let locks = 1 + rng.next_below(3) as usize;
    let slots_per_lock = 1 + rng.next_below(3) as usize;
    let rounds = 1 + rng.next_below(8) as usize;
    let actions = (0..procs)
        .map(|_| {
            (0..rounds)
                .map(|_| {
                    (
                        rng.next_below(locks as u64) as usize,
                        rng.next_below(slots_per_lock as u64) as usize,
                        1 + rng.next_below(99),
                    )
                })
                .collect()
        })
        .collect();
    Plan {
        procs,
        locks,
        slots_per_lock,
        actions,
    }
}

fn build_spec(
    plan: &Plan,
) -> (
    Arc<SystemSpec>,
    Vec<midway_core::LockId>,
    midway_core::SharedArray<u64>,
) {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", plan.locks * plan.slots_per_lock, 1);
    let locks: Vec<_> = (0..plan.locks)
        .map(|l| {
            b.lock(vec![
                data.range(l * plan.slots_per_lock..(l + 1) * plan.slots_per_lock)
            ])
        })
        .collect();
    (b.build(), locks, data)
}

fn run_plan(plan: &Plan, backend: BackendKind) -> Vec<u64> {
    let (spec, locks, data) = build_spec(plan);
    let plan = plan.clone();
    let slots = plan.slots_per_lock;
    let run = Midway::run(
        MidwayConfig::new(plan.procs, backend).net(NetModel::atm_cluster()),
        &spec,
        async move |p| {
            for &(lock, slot, delta) in &plan.actions[p.id()] {
                p.acquire(locks[lock]).await;
                let idx = lock * slots + slot;
                let v = p.read(&data, idx);
                p.write(&data, idx, v + delta);
                p.release(locks[lock]);
            }
            // Final global read under every lock.
            let mut finals = Vec::new();
            for (l, lk) in locks.iter().enumerate() {
                p.acquire_shared(*lk).await;
                for s in 0..slots {
                    finals.push(p.read(&data, l * slots + s));
                }
                p.release_shared(*lk);
            }
            finals
        },
    )
    .expect("simulation failed");
    // The last reader on each slot has seen every increment; take the max
    // per slot over all processors' final reads.
    let n = plan.locks * plan.slots_per_lock;
    (0..n)
        .map(|i| run.results.iter().map(|r| r[i]).max().unwrap())
        .collect()
}

/// No increment is ever lost on any backend: the final value of every
/// slot equals the sum of the deltas applied to it.
#[test]
fn no_lost_updates_on_any_backend() {
    let mut rng = SplitMix64::new(0xc0_0001);
    for case in 0..24 {
        let plan = random_plan(&mut rng);
        let mut expect = vec![0u64; plan.locks * plan.slots_per_lock];
        for proc_actions in &plan.actions {
            for &(lock, slot, delta) in proc_actions {
                expect[lock * plan.slots_per_lock + slot] += delta;
            }
        }
        for backend in BACKENDS {
            let got = run_plan(&plan, backend);
            assert_eq!(got, expect, "{backend:?} case {case}");
        }
    }
}

/// The simulation is a pure function of the program: every counter and
/// the finish time are identical across repeated runs.
#[test]
fn runs_are_bit_for_bit_deterministic() {
    let mut rng = SplitMix64::new(0xc0_0002);
    for case in 0..24 {
        let plan = random_plan(&mut rng);
        let fingerprint = |backend| {
            let (spec, locks, data) = build_spec(&plan);
            let plan = plan.clone();
            let slots = plan.slots_per_lock;
            let run = Midway::run(
                MidwayConfig::new(plan.procs, backend),
                &spec,
                async move |p| {
                    for &(lock, slot, delta) in &plan.actions[p.id()] {
                        p.acquire(locks[lock]).await;
                        let idx = lock * slots + slot;
                        let v = p.read(&data, idx);
                        p.write(&data, idx, v + delta);
                        p.release(locks[lock]);
                    }
                },
            )
            .expect("simulation failed");
            (
                run.finish_time,
                run.messages,
                run.counters
                    .iter()
                    .map(|c| (c.dirtybits_set, c.write_faults, c.data_bytes_sent))
                    .collect::<Vec<_>>(),
            )
        };
        for backend in [BackendKind::Rt, BackendKind::Vm] {
            let a = fingerprint(backend);
            let b = fingerprint(backend);
            assert_eq!(a, b, "{backend:?} diverged between runs (case {case})");
        }
    }
}

/// Barrier-partitioned writes propagate exactly: after the barrier
/// every processor sees every partition's latest values.
#[test]
fn barriers_propagate_partitioned_writes() {
    let mut rng = SplitMix64::new(0xc0_0003);
    for case in 0..16 {
        let procs = 2 + rng.next_below(3) as usize;
        let per_proc = 1 + rng.next_below(6) as usize;
        let rounds = 1 + rng.next_below(4) as usize;
        let seed = rng.next_u64();
        for backend in BACKENDS {
            let n = procs * per_proc;
            let mut b = SystemBuilder::new();
            let data = b.shared_array::<u64>("data", n, 1);
            let partitions: Vec<_> = (0..procs)
                .map(|q| vec![data.range(q * per_proc..(q + 1) * per_proc)])
                .collect();
            let bar = b.barrier_partitioned(vec![data.full_range()], partitions);
            let spec = b.build();
            let run = Midway::run(MidwayConfig::new(procs, backend), &spec, async |p| {
                let me = p.id();
                let mut rng = SplitMix64::new(seed ^ me as u64);
                for round in 1..=rounds as u64 {
                    for i in me * per_proc..(me + 1) * per_proc {
                        p.write(&data, i, round * 1000 + i as u64 + rng.next_below(7));
                    }
                    p.barrier(bar).await;
                    // Everyone reads a full snapshot after each round.
                    let snap: Vec<u64> = (0..n).map(|i| p.read(&data, i)).collect();
                    p.barrier(bar).await;
                    let _ = snap;
                }
                (0..n).map(|i| p.read(&data, i)).collect::<Vec<u64>>()
            })
            .expect("simulation failed");
            let first = &run.results[0];
            for (pid, got) in run.results.iter().enumerate() {
                assert_eq!(got, first, "{backend:?}: proc {pid} diverged (case {case})");
            }
        }
    }
}
