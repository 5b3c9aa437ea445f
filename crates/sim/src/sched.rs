//! The conservative virtual-time scheduler.
//!
//! Invariant: a pending event is delivered only when no processor is
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
//! scanning every processor's state. That decision is
//! [`SchedInner::dispatch`], written once and shared by both drivers: the
//! single-thread poll loop and the thread-per-processor condvar wrapper.
//! [`SchedStats`] counts what the
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
    /// Scheduler dispatches: one per delivered event — one future poll
    /// under the single-thread driver, one condvar handoff under the
    /// threaded one.
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
    /// The processor is executing (compute or sends).
    Running,
    /// Blocked in `recv`: it must receive a message to make progress.
    Blocked,
    /// Blocked in `drain_recv`: it accepts messages but may also be released
    /// when the whole cluster quiesces.
    Draining,
    /// The processor has finished.
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

/// What a receive returns: a delivery `(time, src, msg)`, `None` on
/// quiescence, or the poison that aborted the run.
pub(crate) type Received<M> = Result<Option<(VirtualTime, usize, M)>, Poison>;

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
    procs: Vec<ProcState>,
    running: usize,
    queue: BinaryHeap<Reverse<Event<M>>>,
    slots: Vec<Slot<M>>,
    poison: Option<Poison>,
    delivered: u64,
    /// Events popped from `queue`.
    pops: u64,
    /// Processors currently in [`ProcState::Blocked`].
    blocked: ProcSet,
    /// Processors currently in [`ProcState::Draining`].
    draining: ProcSet,
}

/// What one [`SchedInner::dispatch`] decided.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// The minimal event is in this processor's slot and it is running.
    Deliver(usize),
    /// The cluster quiesced: these drainers hold [`Slot::Quiesce`] and are
    /// running again (empty once every processor has finished).
    Release(Vec<usize>),
    /// The run is poisoned (deadlock, message to a finished processor, or
    /// an earlier abort).
    Stop,
}

impl<M> SchedInner<M> {
    /// Parks running processor `me` in `recv` (or `drain_recv`).
    pub(crate) fn park(&mut self, me: usize, draining: bool) {
        debug_assert_eq!(self.procs[me], ProcState::Running);
        self.running -= 1;
        if draining {
            self.procs[me] = ProcState::Draining;
            self.draining.insert(me);
        } else {
            self.procs[me] = ProcState::Blocked;
            self.blocked.insert(me);
        }
    }

    /// What `me`'s pending receive returns, once the dispatch has filled
    /// its slot (or the run is poisoned).
    pub(crate) fn take(&mut self, me: usize) -> Option<Received<M>> {
        if let Some(p) = &self.poison {
            return Some(Err(p.clone()));
        }
        match std::mem::replace(&mut self.slots[me], Slot::Empty) {
            Slot::Msg(at, src, msg) => Some(Ok(Some((at, src, msg)))),
            Slot::Quiesce => Some(Ok(None)),
            Slot::Empty => None,
        }
    }

    /// Whether `me` is parked in a receive.
    pub(crate) fn parked(&self, me: usize) -> bool {
        matches!(self.procs[me], ProcState::Blocked | ProcState::Draining)
    }

    /// Marks running processor `me` finished.
    fn finish(&mut self, me: usize) {
        debug_assert_eq!(self.procs[me], ProcState::Running);
        self.running -= 1;
        self.procs[me] = ProcState::Done;
    }

    /// Records a fatal condition; the first one wins.
    fn poison(&mut self, p: Poison) {
        self.poison.get_or_insert(p);
    }

    /// Delivers the minimal pending event, or detects deadlock or
    /// quiescence. Must be called with `running == 0`: this is the one
    /// place either driver decides what runs next.
    ///
    /// The deadlock report (which allocates and sorts) is built from the
    /// blocked index only after the deadlock has been detected.
    pub(crate) fn dispatch(&mut self) -> Next {
        debug_assert_eq!(self.running, 0);
        if self.poison.is_some() {
            return Next::Stop;
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            if !self.blocked.is_empty() {
                let blocked = self.blocked.sorted();
                self.poison(Poison::Deadlock { blocked });
                return Next::Stop;
            }
            // Everyone is Draining or Done and nothing is in flight:
            // release the drainers.
            let drainers = self.draining.sorted();
            for &p in &drainers {
                self.draining.remove(p);
                self.slots[p] = Slot::Quiesce;
                self.procs[p] = ProcState::Running;
            }
            self.running = drainers.len();
            return Next::Release(drainers);
        };
        self.pops += 1;
        let dst = ev.dst;
        match self.procs[dst] {
            ProcState::Blocked => self.blocked.remove(dst),
            ProcState::Draining => self.draining.remove(dst),
            ProcState::Done => {
                let src = ev.src;
                self.poison(Poison::MessageToFinished { src, dst });
                return Next::Stop;
            }
            // `running == 0` rules this out.
            ProcState::Running => unreachable!("running proc while dispatching"),
        }
        self.slots[dst] = Slot::Msg(ev.deliver_at, ev.src, ev.msg);
        self.delivered += 1;
        self.procs[dst] = ProcState::Running;
        self.running = 1;
        Next::Deliver(dst)
    }
}

/// The scheduler: the [`SchedInner`] core behind one mutex. The threaded
/// driver adds **one condvar per processor**, waited on only by that
/// processor's thread, so a delivery wakes only its destination; under
/// the single-thread driver `cvs` is empty and nothing waits.
pub(crate) struct Scheduler<M> {
    inner: Mutex<SchedInner<M>>,
    cvs: Vec<Condvar>,
}

impl<M> Scheduler<M> {
    /// Locks the shared state; the single-thread driver calls the
    /// [`SchedInner`] steps through this. Application code never runs
    /// under the guard — its failures are reported through [`Poison`] —
    /// so std's poison flag carries no information and is ignored.
    pub fn lock(&self) -> MutexGuard<'_, SchedInner<M>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the abort condition, if any (for the driver).
    pub fn poison(&self) -> Option<Poison> {
        self.lock().poison.clone()
    }

    /// A scheduler for `procs` processors, with per-processor condvars
    /// when `threaded`.
    pub fn new(procs: usize, threaded: bool) -> Scheduler<M> {
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
            cvs: if threaded {
                (0..procs).map(|_| Condvar::new()).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Whether processors run on their own threads (so `recv` may block).
    pub fn threaded(&self) -> bool {
        !self.cvs.is_empty()
    }

    /// Queues an in-flight message. Called only by a `Running` processor,
    /// so no dispatch can be due yet.
    pub fn post(&self, ev: Event<M>) {
        self.lock().queue.push(Reverse(ev));
    }

    /// Blocks processor `me`'s thread until a message arrives (or, when
    /// `draining`, until the cluster quiesces). Returns `Ok(None)` only on
    /// quiescence.
    ///
    /// # Panics
    ///
    /// Panics under the single-thread driver, where waiting would hang
    /// the only thread: processors there must await `recv_async`.
    pub fn block_recv(&self, me: usize, draining: bool) -> Received<M> {
        assert!(
            self.threaded(),
            "blocking recv under the single-thread driver: await recv_async instead"
        );
        let mut inner = self.lock();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        inner.park(me, draining);
        self.settle(&mut inner);
        loop {
            if let Some(got) = inner.take(me) {
                return got;
            }
            // Waiting on this processor's own slot: only a delivery
            // addressed here (or poison/quiesce) wakes this thread.
            inner = self.cvs[me]
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks running processor `me` finished.
    pub fn finish(&self, me: usize) {
        let mut inner = self.lock();
        inner.finish(me);
        self.settle(&mut inner);
    }

    /// Records a fatal condition (first poison wins) and wakes every
    /// waiter — each processor's condvar is notified exactly once.
    pub fn set_poison(&self, p: Poison) {
        self.lock().poison(p);
        for cv in &self.cvs {
            cv.notify_one();
        }
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

    /// Threaded driver only: once no processor is running, dispatches and
    /// wakes exactly the threads the decision concerns. The hot path — an
    /// event delivered to a blocked destination — wakes one thread; if
    /// that is the caller itself, it re-checks its slot before sleeping.
    fn settle(&self, inner: &mut SchedInner<M>) {
        if !self.threaded() || inner.running > 0 {
            return;
        }
        match inner.dispatch() {
            Next::Deliver(dst) => self.cvs[dst].notify_one(),
            Next::Release(drainers) => drainers.iter().for_each(|&p| self.cvs[p].notify_one()),
            Next::Stop => self.cvs.iter().for_each(Condvar::notify_one),
        }
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

    /// Parks `dst` `n` times, the others done; returns each delivery.
    fn receive_all(sched: &Scheduler<u32>, dst: usize, n: usize) -> Vec<(u64, usize, u32)> {
        (0..n)
            .map(|_| {
                let mut inner = sched.lock();
                inner.park(dst, false);
                assert_eq!(inner.dispatch(), Next::Deliver(dst));
                let (at, src, msg) = inner.take(dst).unwrap().unwrap().unwrap();
                (at.cycles(), src, msg)
            })
            .collect()
    }

    /// Deadlock through the per-proc wakeup path: the report lists only
    /// the processors stuck in `recv`, not the drainers, and *every*
    /// waiter — blocked and draining alike — is woken with the poison.
    #[test]
    fn deadlock_wakes_blocked_and_draining_and_lists_only_blocked() {
        let sched: Scheduler<u32> = Scheduler::new(3, true);
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
    /// order is arbitrary), and it leaves the drainer out.
    #[test]
    fn deadlock_report_is_sorted() {
        let sched: Scheduler<u32> = Scheduler::new(5, false);
        for p in [2, 0, 1] {
            sched.lock().park(p, false);
        }
        sched.lock().park(3, true);
        sched.finish(4);
        assert_eq!(sched.lock().dispatch(), Next::Stop);
        let deadlock = Poison::Deadlock {
            blocked: vec![0, 1, 2],
        };
        assert_eq!(sched.poison(), Some(deadlock.clone()));
        assert_eq!(sched.lock().take(3), Some(Err(deadlock)));
    }

    /// Quiescence: when every processor is draining or done and nothing
    /// is in flight, every drainer is released with `Ok(None)` and runs
    /// again; once they finish, the next dispatch releases nobody.
    #[test]
    fn quiesce_releases_all_drainers() {
        let sched: Scheduler<u32> = Scheduler::new(4, false);
        for p in [2, 0, 1] {
            sched.lock().park(p, true);
        }
        sched.finish(3);
        assert_eq!(sched.lock().dispatch(), Next::Release(vec![0, 1, 2]));
        for p in 0..3 {
            assert_eq!(sched.lock().take(p), Some(Ok(None)));
            sched.finish(p);
        }
        assert_eq!(sched.lock().dispatch(), Next::Release(Vec::new()));
        assert_eq!(sched.poison(), None);
    }

    /// A delivery wakes only its destination: the other blocked processor
    /// keeps waiting until its own message arrives, and delivery order
    /// follows the `(time, src, seq)` queue order.
    #[test]
    fn delivery_targets_the_destination_slot() {
        let sched: Scheduler<u32> = Scheduler::new(3, true);
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
        let sched: Scheduler<u32> = Scheduler::new(4, false);
        // The message carries the sequence number, to identify it.
        for (src, seq) in [(2, 0), (0, 5), (0, 3), (1, 1)] {
            sched.post(ev(src, 3, 100, seq, seq as u32));
        }
        for p in 0..3 {
            sched.finish(p);
        }
        assert_eq!(
            receive_all(&sched, 3, 4),
            vec![(100, 0, 3), (100, 0, 5), (100, 1, 1), (100, 2, 0)]
        );
        let stats = sched.stats();
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.dispatches, 4, "one dispatch per event");
        assert_eq!((stats.near_pops, stats.far_pops), (4, 0));
    }

    /// Same-instant events for one destination, a self-post among them,
    /// are drained one dispatch each, in `(time, src, seq)` order; a later
    /// event to a finished processor is reported, not dropped.
    #[test]
    fn same_instant_events_drain_one_per_dispatch() {
        let sched: Scheduler<u32> = Scheduler::new(3, false);
        sched.post(ev(1, 2, 100, 0, 10));
        sched.post(ev(0, 2, 100, 1, 20));
        sched.post(ev(2, 2, 100, 2, 30)); // self-post: src == dst
        sched.post(ev(2, 1, 200, 3, 40));
        sched.finish(0);
        sched.finish(1);
        let got = receive_all(&sched, 2, 3);
        assert_eq!(got, vec![(100, 0, 20), (100, 1, 10), (100, 2, 30)]);
        let stats = sched.stats();
        assert_eq!((stats.delivered, stats.dispatches), (3, 3));
        sched.finish(2);
        assert_eq!(sched.lock().dispatch(), Next::Stop);
        let to_finished = Poison::MessageToFinished { src: 2, dst: 1 };
        assert_eq!(sched.poison(), Some(to_finished));
    }

    /// Poison set while waiters sit on their per-proc condvars reaches
    /// every one of them (the no-notify-storm replacement for the old
    /// global broadcast).
    #[test]
    fn poison_wakes_every_waiter_once() {
        let sched: Scheduler<u32> = Scheduler::new(4, true);
        std::thread::scope(|s| {
            let sched = &sched;
            let waiters: Vec<_> = (0..3)
                .map(|me| s.spawn(move || sched.block_recv(me, me == 2)))
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(20));
            sched.set_poison(Poison::Panic {
                proc: 3,
                message: "unit-test poison".to_string(),
            });
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
