//! The conservative virtual-time scheduler.
//!
//! Invariant: a pending event is delivered only when no processor thread is
//! `Running`, and the event chosen is the global minimum under
//! `(delivery time, src, seq)`. Because a woken processor first advances its
//! clock to the delivery time, every event it subsequently posts is later
//! than anything already delivered, so deliveries are nondecreasing in
//! virtual time and the execution is deterministic.
//!
//! Pending events live in one `BinaryHeap`, and each dispatch hands exactly
//! one event to its destination's slot. Blocked and draining processors are
//! tracked in indexed sets ([`ProcSet`]: swap-remove vector plus position
//! map, O(1) each way), so deadlock detection is an `is_empty` check, the
//! deadlock report is built lazily from the index only after a deadlock has
//! been detected, and quiescence walks exactly the drainers instead of
//! scanning every processor's state. [`SchedStats`] counts what the
//! scheduler did, purely for host-side perf attribution — none of it feeds
//! virtual time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::event::Event;
use crate::time::VirtualTime;

/// Host-side scheduler counters for performance attribution. Purely
/// observational: nothing here affects delivery order or virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events delivered to destination slots.
    pub delivered: u64,
    /// Scheduler rendezvous: one per delivered event.
    pub dispatches: u64,
    /// Every pop from the pending-event heap. This field and `far_pops`
    /// remain only because hostbench's `sim.far_pop_frac` reads them.
    pub near_pops: u64,
    /// Always 0: the one heap has no far tier. Kept only for hostbench's
    /// `sim.far_pop_frac`.
    pub far_pops: u64,
}

/// Lifecycle state of a simulated processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProcState {
    /// The processor's thread is executing (compute or sends).
    Running,
    /// Blocked in `recv`: it must receive a message to make progress.
    Blocked,
    /// Blocked in `drain_recv`: it accepts messages but may also be released
    /// when the whole cluster quiesces.
    Draining,
    /// The processor's thread has finished.
    Done,
}

/// An indexed set of processor ids: O(1) insert, O(1) remove, O(members)
/// iteration. `pos[p]` is `p`'s index in `members`, or `usize::MAX` when
/// absent; removal swap-removes, so iteration order is arbitrary.
pub(crate) struct ProcSet {
    members: Vec<usize>,
    pos: Vec<usize>,
}

impl ProcSet {
    const ABSENT: usize = usize::MAX;

    fn new(procs: usize) -> ProcSet {
        ProcSet {
            members: Vec::with_capacity(procs),
            pos: vec![Self::ABSENT; procs],
        }
    }

    fn insert(&mut self, p: usize) {
        debug_assert_eq!(self.pos[p], Self::ABSENT, "proc {p} already in set");
        self.pos[p] = self.members.len();
        self.members.push(p);
    }

    fn remove(&mut self, p: usize) {
        let at = self.pos[p];
        debug_assert_ne!(at, Self::ABSENT, "proc {p} not in set");
        self.pos[p] = Self::ABSENT;
        self.members.swap_remove(at);
        if let Some(&moved) = self.members.get(at) {
            self.pos[moved] = at;
        }
    }

    fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in ascending order (sorted on demand: this is the
    /// report path, not the hot path).
    fn sorted(&self) -> Vec<usize> {
        let mut v = self.members.clone();
        v.sort_unstable();
        v
    }
}

/// What the scheduler left in a processor's mailbox.
pub(crate) enum Slot<M> {
    Empty,
    /// One delivery: `(time, src, msg)`.
    Msg(VirtualTime, usize, M),
    /// The cluster has quiesced; a draining processor may finish.
    Quiesce,
}

impl<M> Slot<M> {
    /// Takes the delivery out of the slot, leaving it `Empty`; any other
    /// slot state is left untouched.
    fn take_msg(&mut self) -> Option<(VirtualTime, usize, M)> {
        match std::mem::replace(self, Slot::Empty) {
            Slot::Msg(at, src, msg) => Some((at, src, msg)),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// Why the simulation was aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Poison {
    /// No processor can make progress: `blocked` lists those stuck in `recv`.
    Deadlock { blocked: Vec<usize> },
    /// A message was addressed to a processor that had already finished.
    MessageToFinished { src: usize, dst: usize },
    /// An application closure panicked.
    Panic { proc: usize, message: String },
    /// A protocol layer detected an invariant violation (e.g. a message
    /// routed to a processor that does not own the addressed resource) and
    /// aborted deliberately instead of panicking.
    Protocol { proc: usize, message: String },
    /// The runtime detected an application-level misuse of the DSM API
    /// (e.g. an out-of-bounds shared write) and aborted deliberately.
    App { proc: usize, message: String },
}

pub(crate) struct SchedInner<M> {
    pub procs: Vec<ProcState>,
    pub running: usize,
    pub queue: BinaryHeap<Reverse<Event<M>>>,
    pub slots: Vec<Slot<M>>,
    pub poison: Option<Poison>,
    pub delivered: u64,
    /// Events popped from `queue`.
    pops: u64,
    /// Processors currently in [`ProcState::Blocked`].
    blocked: ProcSet,
    /// Processors currently in [`ProcState::Draining`].
    draining: ProcSet,
}

/// The scheduler: one shared state mutex plus **one condvar per
/// processor**. Exactly one thread ever waits on `cvs[i]` — processor
/// `i`'s own — so delivering an event wakes only its destination
/// (`notify_one` on that slot) instead of storming every blocked thread
/// through a global condvar. On a host with fewer cores than simulated
/// processors the global-notify design made every delivery pay `procs`
/// wakeups and `procs` mutex reacquisitions; the per-processor slots cut
/// that to one.
pub(crate) struct Scheduler<M> {
    pub inner: Mutex<SchedInner<M>>,
    cvs: Vec<Condvar>,
}

impl<M> Scheduler<M> {
    /// Locks the shared state. An application panic unwinds through
    /// `catch_unwind` without holding this mutex (the guard is released
    /// before the closure runs), so std's poison flag carries no
    /// information here — application failures are reported through
    /// [`Poison`] instead, and a poisoned guard is simply recovered.
    fn lock(&self) -> MutexGuard<'_, SchedInner<M>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the abort condition, if any (for the driver thread).
    pub fn poison(&self) -> Option<Poison> {
        self.lock().poison.clone()
    }

    pub fn new(procs: usize) -> Scheduler<M> {
        Scheduler {
            inner: Mutex::new(SchedInner {
                procs: vec![ProcState::Running; procs],
                running: procs,
                queue: BinaryHeap::new(),
                slots: (0..procs).map(|_| Slot::Empty).collect(),
                poison: None,
                delivered: 0,
                pops: 0,
                blocked: ProcSet::new(procs),
                draining: ProcSet::new(procs),
            }),
            cvs: (0..procs).map(|_| Condvar::new()).collect(),
        }
    }

    /// Queues an in-flight message. Called only by a `Running` thread, so no
    /// dispatch can be due yet.
    pub fn post(&self, ev: Event<M>) {
        let mut inner = self.lock();
        inner.queue.push(Reverse(ev));
    }

    /// Blocks processor `me` until a message arrives (or, when `draining`,
    /// until the cluster quiesces). Returns `Ok(None)` only on quiescence.
    pub fn block_recv(
        &self,
        me: usize,
        draining: bool,
    ) -> Result<Option<(VirtualTime, usize, M)>, Poison> {
        let mut inner = self.lock();
        debug_assert_eq!(inner.procs[me], ProcState::Running);
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        inner.running -= 1;
        if draining {
            inner.procs[me] = ProcState::Draining;
            inner.draining.insert(me);
        } else {
            inner.procs[me] = ProcState::Blocked;
            inner.blocked.insert(me);
        }
        if inner.running == 0 {
            self.dispatch(&mut inner);
        }
        loop {
            if let Some(p) = &inner.poison {
                return Err(p.clone());
            }
            if let Slot::Quiesce = inner.slots[me] {
                debug_assert!(draining);
                inner.slots[me] = Slot::Empty;
                return Ok(None);
            }
            if let Some(m) = inner.slots[me].take_msg() {
                debug_assert_eq!(inner.procs[me], ProcState::Running);
                return Ok(Some(m));
            }
            // Waiting on this processor's own slot: only a delivery
            // addressed here (or poison/quiesce) wakes this thread.
            inner = self.cvs[me]
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks `me` finished. Valid from `Running` (closure returned without
    /// draining) or `Draining` (released by quiescence).
    pub fn finish(&self, me: usize) {
        let mut inner = self.lock();
        match inner.procs[me] {
            ProcState::Running => {
                inner.running -= 1;
                inner.procs[me] = ProcState::Done;
                if inner.running == 0 {
                    self.dispatch(&mut inner);
                }
            }
            ProcState::Draining => {
                // Already excluded from `running` by `block_recv`. The
                // quiescence decision does not need re-evaluation: it fires
                // only once all drainers are released together.
                inner.draining.remove(me);
                inner.procs[me] = ProcState::Done;
            }
            s => panic!("finish() from invalid state {s:?}"),
        }
    }

    /// Records a fatal condition and wakes every waiter.
    pub fn set_poison(&self, p: Poison) {
        let mut inner = self.lock();
        self.poison_locked(&mut inner, p);
    }

    /// Marks `me` dead after a panic and poisons the cluster.
    pub fn abandon(&self, me: usize, message: String) {
        let mut inner = self.lock();
        match inner.procs[me] {
            ProcState::Running => inner.running -= 1,
            ProcState::Blocked => inner.blocked.remove(me),
            ProcState::Draining => inner.draining.remove(me),
            ProcState::Done => {}
        }
        inner.procs[me] = ProcState::Done;
        self.poison_locked(&mut inner, Poison::Panic { proc: me, message });
    }

    pub fn delivered(&self) -> u64 {
        self.lock().delivered
    }

    /// Snapshot of the host-side attribution counters.
    pub fn stats(&self) -> SchedStats {
        let inner = self.lock();
        SchedStats {
            delivered: inner.delivered,
            dispatches: inner.delivered,
            near_pops: inner.pops,
            far_pops: 0,
        }
    }

    /// Records a fatal condition (first poison wins) and wakes every
    /// waiter — each processor's condvar is notified exactly once, not
    /// `procs` redundant broadcasts.
    fn poison_locked(&self, inner: &mut SchedInner<M>, p: Poison) {
        if inner.poison.is_none() {
            inner.poison = Some(p);
        }
        for cv in &self.cvs {
            cv.notify_one();
        }
    }

    /// Delivers the minimal pending event, or detects deadlock or
    /// quiescence. Must be called with `running == 0`.
    ///
    /// The hot path — an event delivered to a blocked destination — wakes
    /// exactly one thread. The deadlock report (which allocates and sorts)
    /// is built from the blocked index only in the empty-queue arm, after
    /// the deadlock has actually been detected.
    fn dispatch(&self, inner: &mut SchedInner<M>) {
        debug_assert_eq!(inner.running, 0);
        if inner.poison.is_some() {
            for cv in &self.cvs {
                cv.notify_one();
            }
            return;
        }
        let Some(Reverse(ev)) = inner.queue.pop() else {
            if !inner.blocked.is_empty() {
                // Stuck: build the report lazily, off the index.
                let blocked = inner.blocked.sorted();
                self.poison_locked(inner, Poison::Deadlock { blocked });
            } else {
                // Everyone is Draining or Done and nothing is in flight:
                // release the drainers — and wake only them.
                for i in 0..inner.draining.members.len() {
                    let p = inner.draining.members[i];
                    inner.slots[p] = Slot::Quiesce;
                    self.cvs[p].notify_one();
                }
            }
            return;
        };
        inner.pops += 1;
        let dst = ev.dst;
        match inner.procs[dst] {
            ProcState::Blocked => inner.blocked.remove(dst),
            ProcState::Draining => inner.draining.remove(dst),
            ProcState::Done => {
                let src = ev.src;
                self.poison_locked(inner, Poison::MessageToFinished { src, dst });
                return;
            }
            // `running == 0` rules this out.
            ProcState::Running => unreachable!("running proc while dispatching"),
        }
        inner.slots[dst] = Slot::Msg(ev.deliver_at, ev.src, ev.msg);
        inner.delivered += 1;
        inner.procs[dst] = ProcState::Running;
        inner.running = 1;
        // Targeted wakeup: only the destination has anything to do. If the
        // destination is the caller itself it has not started waiting yet;
        // it re-checks its slot before sleeping, so the notify is not
        // needed there.
        self.cvs[dst].notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;

    fn ev(src: usize, dst: usize, at: u64, seq: u64, msg: u32) -> Event<u32> {
        Event {
            deliver_at: VirtualTime::ZERO + at,
            src,
            seq,
            dst,
            msg,
        }
    }

    /// Deadlock through the per-proc wakeup path: the report lists only
    /// the processors stuck in `recv`, not the drainers, and *every*
    /// waiter — blocked and draining alike — is woken with the poison.
    #[test]
    fn deadlock_wakes_blocked_and_draining_and_lists_only_blocked() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        std::thread::scope(|s| {
            let blocked = s.spawn(|| sched.block_recv(0, false));
            let draining = s.spawn(|| sched.block_recv(1, true));
            // Proc 2 finishes last: its transition to running == 0 with an
            // empty queue is what detects the deadlock.
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.finish(2);
            let b = blocked.join().unwrap();
            let d = draining.join().unwrap();
            assert_eq!(b, Err(Poison::Deadlock { blocked: vec![0] }));
            assert_eq!(d, Err(Poison::Deadlock { blocked: vec![0] }));
        });
    }

    /// The deadlock report is sorted ascending no matter the order the
    /// processors blocked in (the waiter index swap-removes, so its raw
    /// order is arbitrary).
    #[test]
    fn deadlock_report_is_sorted() {
        let sched: Scheduler<u32> = Scheduler::new(4);
        std::thread::scope(|s| {
            // Block in descending order so the raw index is reversed.
            let w2 = s.spawn(|| sched.block_recv(2, false));
            std::thread::sleep(std::time::Duration::from_millis(10));
            let w0 = s.spawn(|| sched.block_recv(0, false));
            std::thread::sleep(std::time::Duration::from_millis(10));
            let w1 = s.spawn(|| sched.block_recv(1, false));
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.finish(3);
            for w in [w0, w1, w2] {
                assert_eq!(
                    w.join().unwrap(),
                    Err(Poison::Deadlock {
                        blocked: vec![0, 1, 2]
                    })
                );
            }
        });
    }

    /// Quiescence through the per-proc wakeup path: when every processor
    /// is draining or done and nothing is in flight, the drainers are
    /// released with `Ok(None)`.
    #[test]
    fn quiesce_releases_all_drainers() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        std::thread::scope(|s| {
            let a = s.spawn(|| sched.block_recv(0, true));
            let b = s.spawn(|| sched.block_recv(1, true));
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.finish(2);
            assert_eq!(a.join().unwrap(), Ok(None));
            assert_eq!(b.join().unwrap(), Ok(None));
        });
    }

    /// A delivery wakes only its destination: the other blocked processor
    /// keeps waiting until its own message arrives, and delivery order
    /// follows the `(time, src, seq)` queue order.
    #[test]
    fn delivery_targets_the_destination_slot() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        sched.post(ev(2, 0, 100, 0, 7));
        sched.post(ev(2, 1, 200, 1, 8));
        std::thread::scope(|s| {
            let p0 = s.spawn(|| {
                let got = sched.block_recv(0, false);
                sched.finish(0);
                got
            });
            let p1 = s.spawn(|| {
                let got = sched.block_recv(1, false);
                sched.finish(1);
                got
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.finish(2);
            let (at0, src0, msg0) = p0.join().unwrap().unwrap().unwrap();
            let (at1, src1, msg1) = p1.join().unwrap().unwrap().unwrap();
            assert_eq!((at0.cycles(), src0, msg0), (100, 2, 7));
            assert_eq!((at1.cycles(), src1, msg1), (200, 2, 8));
        });
    }

    /// Events for one destination at one instant are delivered one per
    /// dispatch, in `(src, seq)` order regardless of posting order.
    #[test]
    fn same_key_fields_break_ties_by_src_then_seq() {
        let sched: Scheduler<u32> = Scheduler::new(4);
        // The message carries the sequence number, to identify it.
        for (src, seq) in [(2, 0), (0, 5), (0, 3), (1, 1)] {
            sched.post(ev(src, 3, 100, seq, seq as u32));
        }
        std::thread::scope(|s| {
            let p3 = s.spawn(|| {
                let mut got = Vec::new();
                for _ in 0..4 {
                    let (at, src, msg) = sched.block_recv(3, false).unwrap().unwrap();
                    got.push((at.cycles(), src, msg));
                }
                sched.finish(3);
                got
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            for p in 0..3 {
                sched.finish(p);
            }
            let got = p3.join().unwrap();
            assert_eq!(
                got,
                vec![(100, 0, 3), (100, 0, 5), (100, 1, 1), (100, 2, 0)]
            );
            let stats = sched.stats();
            assert_eq!(stats.delivered, 4);
            assert_eq!(stats.dispatches, 4, "one rendezvous per event");
            assert_eq!((stats.near_pops, stats.far_pops), (4, 0));
        });
    }

    /// Same-instant events for one destination, a self-post among them,
    /// are drained one rendezvous each, in `(time, src, seq)` order.
    #[test]
    fn same_instant_events_drain_one_per_dispatch() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        sched.post(ev(1, 2, 100, 0, 10));
        sched.post(ev(0, 2, 100, 1, 20));
        sched.post(ev(2, 2, 100, 2, 30)); // self-post: src == dst
        std::thread::scope(|s| {
            let p2 = s.spawn(|| {
                let mut got = Vec::new();
                for _ in 0..3 {
                    let (at, src, msg) = sched.block_recv(2, false).unwrap().unwrap();
                    got.push((at.cycles(), src, msg));
                }
                sched.finish(2);
                got
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.finish(0);
            sched.finish(1);
            let got = p2.join().unwrap();
            assert_eq!(got, vec![(100, 0, 20), (100, 1, 10), (100, 2, 30)]);
            assert_eq!(sched.delivered(), 3);
            let stats = sched.stats();
            assert_eq!((stats.delivered, stats.dispatches), (3, 3));
        });
    }

    /// Poison set while waiters sit on their per-proc condvars reaches
    /// every one of them (the no-notify-storm replacement for the old
    /// global broadcast).
    #[test]
    fn poison_wakes_every_waiter_once() {
        let sched: Scheduler<u32> = Scheduler::new(4);
        std::thread::scope(|s| {
            let sched = &sched;
            let waiters: Vec<_> = (0..3)
                .map(|me| s.spawn(move || sched.block_recv(me, me == 2)))
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.abandon(3, "unit-test poison".to_string());
            for w in waiters {
                match w.join().unwrap() {
                    Err(Poison::Panic { proc: 3, message }) => {
                        assert!(message.contains("unit-test poison"));
                    }
                    other => panic!("expected panic poison, got {other:?}"),
                }
            }
        });
    }

    /// The indexed waiter set stays consistent through arbitrary
    /// insert/remove interleavings (swap-remove bookkeeping).
    #[test]
    fn proc_set_tracks_membership() {
        let mut s = ProcSet::new(8);
        for p in [3, 1, 7, 0, 5] {
            s.insert(p);
        }
        s.remove(1);
        s.remove(5);
        s.insert(2);
        s.remove(3);
        assert_eq!(s.sorted(), vec![0, 2, 7]);
        assert!(!s.is_empty());
        for p in [0, 2, 7] {
            s.remove(p);
        }
        assert!(s.is_empty());
    }
}
