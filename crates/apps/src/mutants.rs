//! Seeded entry-consistency bugs: the checker's true-positive suite.
//!
//! Each mutant is a compact variant of one benchmark application with one
//! deliberate violation of the entry-consistency contract planted in it —
//! the kind of bug the paper's programming model makes possible (bind the
//! wrong data, forget an acquire, read ahead of a barrier) and that the
//! write-detection machinery silently mis-executes rather than reports.
//! [`run_mutant`] runs one with the dynamic checker attached and returns
//! the run alongside the [`MutantExpectation`] describing the finding the
//! planted bug must produce; the racecheck harness and tests assert the
//! checker reports it with exactly that provenance, on every data-moving
//! backend.

use std::sync::Arc;

use midway_core::{
    FindingKind, Midway, MidwayConfig, MidwayRun, SimError, SystemBuilder, SystemSpec,
};

/// Which seeded bug to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutantKind {
    /// A matmul variant where processor 0 writes its slice of the
    /// lock-bound output without acquiring the lock.
    DropAcquire,
    /// A quicksort variant where a processor narrows a lock's binding
    /// with `rebind`, then keeps writing the range it just retired.
    RogueRebind,
    /// An sor variant where a processor reads a neighbour's edge slot
    /// before crossing the phase barrier that publishes it.
    ReadAhead,
}

impl MutantKind {
    /// All mutants, in presentation order.
    pub const ALL: [MutantKind; 3] = [
        MutantKind::DropAcquire,
        MutantKind::RogueRebind,
        MutantKind::ReadAhead,
    ];

    /// A short label for reports and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            MutantKind::DropAcquire => "matmul-drop-acquire",
            MutantKind::RogueRebind => "quicksort-rogue-rebind",
            MutantKind::ReadAhead => "sor-read-ahead",
        }
    }
}

/// The finding a mutant's planted bug must produce.
#[derive(Clone, Copy, Debug)]
pub struct MutantExpectation {
    /// The kind of violation planted.
    pub kind: FindingKind,
    /// The processor that commits it.
    pub proc: usize,
    /// The allocation the offending access falls in.
    pub alloc: &'static str,
}

/// Runs `kind` with the dynamic checker attached (`cfg.check` is forced
/// on) and returns the run plus the expectation its planted bug must
/// meet. Mutants do not verify an output — the checker's report *is*
/// their result.
///
/// # Panics
///
/// Panics if `cfg.procs < 2` (every mutant needs a victim and an
/// offender) or if the simulation itself fails.
pub fn run_mutant(kind: MutantKind, cfg: MidwayConfig) -> (MidwayRun<()>, MutantExpectation) {
    assert!(cfg.procs >= 2, "mutants need at least two processors");
    let cfg = cfg.check(true);
    let (run, expect) = match kind {
        MutantKind::DropAcquire => drop_acquire(cfg),
        MutantKind::RogueRebind => rogue_rebind(cfg),
        MutantKind::ReadAhead => read_ahead(cfg),
    };
    (run.expect("mutant simulation failed"), expect)
}

/// Matmul's discipline is "initialize the lock-bound input under the
/// lock"; this variant has processor 0 skip the acquire around its slice.
fn drop_acquire(cfg: MidwayConfig) -> (Result<MidwayRun<()>, SimError>, MutantExpectation) {
    const SLICE: usize = 8;
    let procs = cfg.procs;
    let mut b = SystemBuilder::new();
    let matrix = b.shared_array::<f64>("b", procs * SLICE, 1);
    let lock = b.lock(vec![matrix.full_range()]);
    let done = b.barrier(vec![]);
    let spec: Arc<SystemSpec> = b.build();

    let run = Midway::run(cfg, &spec, async move |p| {
        let me = p.id();
        let vals: Vec<f64> = (0..SLICE).map(|k| (me * SLICE + k) as f64).collect();
        if me == 0 {
            // The bug: the slice store lands outside any held lock.
            p.write_slice(&matrix, me * SLICE, &vals);
        } else {
            p.acquire(lock).await;
            p.write_slice(&matrix, me * SLICE, &vals);
            p.release(lock);
        }
        p.barrier(done).await;
    });
    (
        run,
        MutantExpectation {
            kind: FindingKind::UnguardedWrite,
            proc: 0,
            alloc: "b",
        },
    )
}

/// Quicksort rebinds task locks to ever-narrower subranges; this variant
/// keeps writing the half of the range the rebind just retired.
fn rogue_rebind(cfg: MidwayConfig) -> (Result<MidwayRun<()>, SimError>, MutantExpectation) {
    const N: usize = 16;
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<f64>("data", N, 1);
    let lock = b.lock(vec![data.full_range()]);
    let done = b.barrier(vec![]);
    let spec: Arc<SystemSpec> = b.build();

    let run = Midway::run(cfg, &spec, async move |p| {
        if p.id() == 0 {
            p.acquire(lock).await;
            p.rebind(lock, vec![data.range(0..N / 2)]);
            p.write(&data, 0, 1.0); // inside the narrowed binding: fine
            p.write(&data, N - 1, 2.0); // the bug: the retired half
            p.release(lock);
        } else {
            p.acquire(lock).await;
            p.write(&data, 1, 3.0);
            p.release(lock);
        }
        p.barrier(done).await;
    });
    (
        run,
        MutantExpectation {
            kind: FindingKind::BindingViolation,
            proc: 0,
            alloc: "data",
        },
    )
}

/// Sor publishes partition edges at a phase barrier; this variant has
/// processor 1 read its neighbour's edge slot before crossing it. The
/// long compute charge makes the premature read land after the
/// neighbour's write in virtual time on every backend, so the race is
/// deterministically a *stale* read, not a benign early one.
fn read_ahead(cfg: MidwayConfig) -> (Result<MidwayRun<()>, SimError>, MutantExpectation) {
    let procs = cfg.procs;
    let mut b = SystemBuilder::new();
    let edges = b.shared_array::<f64>("edges", procs, 1);
    let partitions = (0..procs).map(|q| vec![edges.range(q..q + 1)]).collect();
    let phase = b.barrier_partitioned(vec![edges.full_range()], partitions);
    let spec: Arc<SystemSpec> = b.build();

    let run = Midway::run(cfg, &spec, async move |p| {
        let me = p.id();
        p.write(&edges, me, me as f64 + 0.5);
        if me == 1 {
            p.work(10_000_000);
            // The bug: the neighbour's slot is not published yet.
            let _ = p.read(&edges, 0);
        }
        p.barrier(phase).await;
        let left = me.checked_sub(1).unwrap_or(procs - 1);
        let _ = p.read(&edges, left);
    });
    (
        run,
        MutantExpectation {
            kind: FindingKind::StaleRead,
            proc: 1,
            alloc: "edges",
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn every_mutant_is_detected_with_its_provenance_on_rt() {
        for kind in MutantKind::ALL {
            let (run, expect) = run_mutant(kind, MidwayConfig::new(4, BackendKind::Rt));
            let report = run.check.expect("checker ran");
            let f = report
                .first_of(expect.kind)
                .unwrap_or_else(|| panic!("{}: no {:?} finding", kind.label(), expect.kind));
            assert_eq!(f.proc, expect.proc, "{}", kind.label());
            assert_eq!(f.alloc.as_deref(), Some(expect.alloc), "{}", kind.label());
        }
    }
}
