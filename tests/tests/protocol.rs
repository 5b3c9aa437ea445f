//! Cross-backend protocol integration tests.
//!
//! Every backend must provide the same entry-consistency semantics; they
//! differ only in cost and traffic. These tests run identical programs on
//! all backends and check the memory semantics.

use std::sync::Arc;

use midway_core::{BackendKind, Midway, MidwayConfig, NetModel, SystemBuilder, SystemSpec};

const DATA_BACKENDS: [BackendKind; 5] = [
    BackendKind::Rt,
    BackendKind::Vm,
    BackendKind::Blast,
    BackendKind::TwinAll,
    BackendKind::Hybrid,
];

fn counter_spec() -> (
    Arc<SystemSpec>,
    midway_core::LockId,
    midway_core::SharedArray<u64>,
) {
    let mut b = SystemBuilder::new();
    let counter = b.shared_array::<u64>("counter", 4, 1);
    let lock = b.lock(vec![counter.full_range()]);
    (b.build(), lock, counter)
}

#[test]
fn lock_protected_counter_is_sequentially_consistent_on_all_backends() {
    for backend in DATA_BACKENDS {
        let (spec, lock, counter) = counter_spec();
        let rounds = 25u64;
        let run = Midway::run(MidwayConfig::new(4, backend), &spec, async |p| {
            for _ in 0..rounds {
                p.acquire(lock).await;
                let v = p.read(&counter, 0);
                p.write(&counter, 0, v + 1);
                p.release(lock);
            }
            p.acquire(lock).await;
            let v = p.read(&counter, 0);
            p.release(lock);
            v
        })
        .unwrap();
        let max = *run.results.iter().max().unwrap();
        assert_eq!(max, 4 * rounds, "{backend:?}: lost updates");
    }
}

#[test]
fn barrier_makes_partitioned_writes_visible_everywhere() {
    for backend in DATA_BACKENDS {
        let mut b = SystemBuilder::new();
        let procs = 4;
        let n = 64;
        let data = b.shared_array::<u64>("data", n, 1);
        let chunk = n / procs;
        let partitions: Vec<_> = (0..procs)
            .map(|p| vec![data.range(p * chunk..(p + 1) * chunk)])
            .collect();
        let bar = b.barrier_partitioned(vec![data.full_range()], partitions);
        let spec = b.build();

        let run = Midway::run(MidwayConfig::new(procs, backend), &spec, async |p| {
            let me = p.id();
            for i in me * chunk..(me + 1) * chunk {
                p.write(&data, i, (i * 10 + 1) as u64);
            }
            p.barrier(bar).await;
            // Every processor must now see every write.
            (0..n).map(|i| p.read(&data, i)).collect::<Vec<u64>>()
        })
        .unwrap();
        let expect: Vec<u64> = (0..n).map(|i| (i * 10 + 1) as u64).collect();
        for (pid, got) in run.results.iter().enumerate() {
            assert_eq!(got, &expect, "{backend:?}: proc {pid} has stale data");
        }
    }
}

#[test]
fn repeated_barriers_propagate_fresh_values() {
    for backend in DATA_BACKENDS {
        let mut b = SystemBuilder::new();
        let procs = 3;
        let data = b.shared_array::<u64>("data", procs, 1);
        let partitions: Vec<_> = (0..procs).map(|p| vec![data.range(p..p + 1)]).collect();
        let bar = b.barrier_partitioned(vec![data.full_range()], partitions);
        let spec = b.build();

        let run = Midway::run(MidwayConfig::new(procs, backend), &spec, async |p| {
            let me = p.id();
            let mut sums = Vec::new();
            for round in 1..=5u64 {
                p.write(&data, me, round * (me as u64 + 1));
                p.barrier(bar).await;
                let sum: u64 = (0..procs).map(|i| p.read(&data, i)).sum();
                sums.push(sum);
                p.barrier(bar).await;
            }
            sums
        })
        .unwrap();
        // After round r, data[i] == r*(i+1), so the sum is r*(1+2+3).
        let expect: Vec<u64> = (1..=5u64).map(|r| r * 6).collect();
        for (pid, got) in run.results.iter().enumerate() {
            assert_eq!(got, &expect, "{backend:?}: proc {pid}");
        }
    }
}

#[test]
fn shared_mode_readers_see_the_last_exclusive_write() {
    for backend in DATA_BACKENDS {
        let (spec, lock, counter) = counter_spec();
        let run = Midway::run(MidwayConfig::new(4, backend), &spec, async |p| {
            if p.id() == 0 {
                p.acquire(lock).await;
                p.write(&counter, 0, 777);
                p.write(&counter, 3, 888);
                p.release(lock);
                (777, 888)
            } else {
                // Readers acquire non-exclusively; they must observe the
                // writer's values once the writer has released.
                loop {
                    p.acquire_shared(lock).await;
                    let a = p.read(&counter, 0);
                    let b = p.read(&counter, 3);
                    p.release_shared(lock);
                    if a != 0 {
                        return (a, b);
                    }
                    p.idle(10_000).await;
                }
            }
        })
        .unwrap();
        for (pid, got) in run.results.iter().enumerate() {
            assert_eq!(*got, (777, 888), "{backend:?}: proc {pid}");
        }
    }
}

#[test]
fn rebinding_moves_the_protected_range() {
    // quicksort's pattern: a lock is rebound to a new slice of the array
    // for every task. RT and VM must both track the new ranges.
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 64, 1);
        let task = b.lock(vec![data.range(0..8)]);
        let spec = b.build();

        let run = Midway::run(MidwayConfig::new(2, backend), &spec, async |p| {
            if p.id() == 0 {
                p.acquire(task).await;
                for i in 0..8 {
                    p.write(&data, i, 100 + i as u64);
                }
                // Hand the lock over to a new range for the next task.
                p.rebind(task, vec![data.range(8..16)]);
                for i in 8..16 {
                    p.write(&data, i, 200 + i as u64);
                }
                p.release(task);
                0
            } else {
                loop {
                    p.acquire(task).await;
                    let probe = p.read(&data, 8);
                    if probe == 0 {
                        p.release(task);
                        p.idle(10_000).await;
                        continue;
                    }
                    // The rebound range must be consistent.
                    let sum: u64 = (8..16).map(|i| p.read(&data, i)).sum();
                    p.release(task);
                    return sum;
                }
            }
        })
        .unwrap();
        let expect: u64 = (8..16).map(|i| 200 + i as u64).sum();
        assert_eq!(run.results[1], expect, "{backend:?}");
    }
}

#[test]
fn standalone_single_proc_runs_without_any_traffic() {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", 16, 1);
    let lock = b.lock(vec![data.full_range()]);
    let bar = b.barrier(vec![]);
    let spec = b.build();
    let run = Midway::run(MidwayConfig::standalone(), &spec, async |p| {
        p.acquire(lock).await;
        for i in 0..16 {
            p.write(&data, i, i as u64);
        }
        p.release(lock);
        p.barrier(bar).await;
        (0..16).map(|i| p.read(&data, i)).sum::<u64>()
    })
    .unwrap();
    assert_eq!(run.results[0], 120);
    assert_eq!(run.messages, 0, "standalone must not touch the network");
    let c = &run.counters[0];
    assert_eq!(c.dirtybits_set, 0);
    assert_eq!(c.write_faults, 0);
}

#[test]
fn uniprocessor_rt_pays_trapping_but_never_collects() {
    // Paper §4: "The execution time for the uniprocessor RT-DSM version is
    // highest since it pays the entire cost for write detection"; there is
    // no collection because data never transfers.
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", 16, 1);
    let lock = b.lock(vec![data.full_range()]);
    let spec = b.build();
    let run = Midway::run(MidwayConfig::new(1, BackendKind::Rt), &spec, async |p| {
        for round in 0..4 {
            p.acquire(lock).await;
            for i in 0..16 {
                p.write(&data, i, round + i as u64);
            }
            p.release(lock);
        }
    })
    .unwrap();
    let c = &run.counters[0];
    assert_eq!(c.dirtybits_set, 64);
    assert_eq!(c.clean_dirtybits_read + c.dirty_dirtybits_read, 0);
    assert_eq!(c.data_bytes_sent, 0);
    assert_eq!(run.messages, 0);
}

#[test]
fn uniprocessor_vm_faults_once_per_page_and_never_diffs() {
    // Paper §4: "The VM-DSM version pays for a single write fault on each
    // shared page. It never diffs or write protects a page, since the data
    // is never transferred."
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", 2048, 1); // 16 KB = 4 pages
    let lock = b.lock(vec![data.full_range()]);
    let spec = b.build();
    let run = Midway::run(MidwayConfig::new(1, BackendKind::Vm), &spec, async |p| {
        for round in 0..3 {
            p.acquire(lock).await;
            for i in 0..2048 {
                p.write(&data, i, round + i as u64);
            }
            p.release(lock);
        }
    })
    .unwrap();
    let c = &run.counters[0];
    assert_eq!(c.write_faults, 4, "one fault per page, amortized after");
    assert_eq!(c.pages_diffed, 0);
    assert_eq!(c.pages_write_protected, 0);
}

#[test]
fn runs_are_deterministic() {
    let run_once = |backend| {
        let (spec, lock, counter) = counter_spec();
        let run = Midway::run(MidwayConfig::new(4, backend), &spec, async |p| {
            for _ in 0..10 {
                p.acquire(lock).await;
                let v = p.read(&counter, 0);
                p.write(&counter, 0, v + 1);
                p.release(lock);
                p.work(1_000);
            }
        })
        .unwrap();
        (
            run.finish_time,
            run.messages,
            run.counters
                .iter()
                .map(|c| (c.dirtybits_set, c.write_faults, c.data_bytes_sent))
                .collect::<Vec<_>>(),
        )
    };
    for backend in DATA_BACKENDS {
        let first = run_once(backend);
        for _ in 0..3 {
            assert_eq!(run_once(backend), first, "{backend:?} is nondeterministic");
        }
    }
}

#[test]
fn application_lock_cycle_is_reported_as_deadlock() {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", 2, 1);
    let l0 = b.lock(vec![data.range(0..1)]);
    let l1 = b.lock(vec![data.range(1..2)]);
    let spec = b.build();
    let err = Midway::run(
        MidwayConfig::new(2, BackendKind::Rt).net(NetModel::ideal()),
        &spec,
        async |p| {
            if p.id() == 0 {
                p.acquire(l0).await;
                p.acquire(l1).await;
            } else {
                p.acquire(l1).await;
                p.acquire(l0).await;
            }
        },
    )
    .unwrap_err();
    assert!(matches!(err, midway_core::SimError::Deadlock { .. }));
}

#[test]
fn rt_transfers_only_modified_lines_while_blast_ships_everything() {
    // The paper's central data-transfer claim: an exact update history
    // minimizes traffic; blast is the upper bound.
    let run_with = |backend| {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 512, 1); // 4 KB bound
        let lock = b.lock(vec![data.full_range()]);
        let bar = b.barrier(vec![]);
        let spec = b.build();
        let run = Midway::run(MidwayConfig::new(2, backend), &spec, async |p| {
            for round in 0..4 {
                p.acquire(lock).await;
                // Sparse: one line touched per round.
                p.write(&data, round * 2 + p.id(), u64::MAX - round as u64);
                p.release(lock);
                // Force the lock to bounce between processors each round.
                p.barrier(bar).await;
            }
        })
        .unwrap();
        run.counters.iter().map(|c| c.data_bytes_sent).sum::<u64>()
    };
    let rt = run_with(BackendKind::Rt);
    let blast = run_with(BackendKind::Blast);
    assert!(rt < 1024, "RT ships only touched lines, got {rt}");
    assert!(
        blast >= 4 * 4096,
        "blast ships 4 KB on every transfer, got {blast}"
    );
}
