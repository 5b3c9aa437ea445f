//! Public cluster API: configuration, processor handles, run outcomes.

use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};

use crate::clock::{Category, CpuClock, CATEGORY_COUNT};
use crate::event::Event;
use crate::fault::{FaultDecision, FaultPlan, FaultStats};
use crate::net::NetModel;
use crate::sched::{Next, Poison, Received, Scheduler};
use crate::time::VirtualTime;

/// Configuration for a simulated cluster run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of simulated processors.
    pub procs: usize,
    /// Interconnect cost model.
    pub net: NetModel,
    /// Deterministic network fault schedule (default: perfect network).
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// A cluster of `procs` processors with the default ATM network model.
    pub fn new(procs: usize) -> ClusterConfig {
        ClusterConfig {
            procs,
            net: NetModel::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the network model.
    pub fn net(mut self, net: NetModel) -> ClusterConfig {
        self.net = net;
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> ClusterConfig {
        self.faults = faults;
        self
    }
}

/// Why a simulation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Every processor is blocked in `recv` and no message is in flight.
    Deadlock {
        /// Processors stuck in `recv`.
        blocked: Vec<usize>,
    },
    /// A message was sent to a processor that had already finished.
    MessageToFinished {
        /// Sender.
        src: usize,
        /// Finished destination.
        dst: usize,
    },
    /// An application closure panicked on some processor.
    ProcPanicked {
        /// The processor whose closure panicked.
        proc: usize,
        /// The panic payload, rendered as a string where possible.
        message: String,
    },
    /// A protocol layer detected an invariant violation and aborted the
    /// simulation deliberately (see [`ProcHandle::protocol_violation`]).
    ProtocolViolation {
        /// The processor that detected the violation.
        proc: usize,
        /// Description of the violated invariant.
        message: String,
    },
    /// The runtime detected an application-level misuse of the DSM API —
    /// e.g. an out-of-bounds shared write — and aborted deliberately
    /// (see [`ProcHandle::app_violation`]).
    AppViolation {
        /// The processor whose application misused the API.
        proc: usize,
        /// Description of the misuse.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(
                    f,
                    "simulation deadlock; processors blocked in recv: {blocked:?}"
                )
            }
            SimError::MessageToFinished { src, dst } => {
                write!(
                    f,
                    "processor {src} sent a message to finished processor {dst}"
                )
            }
            SimError::ProcPanicked { proc, message } => {
                write!(f, "processor {proc} panicked: {message}")
            }
            SimError::ProtocolViolation { proc, message } => {
                write!(f, "protocol violation on processor {proc}: {message}")
            }
            SimError::AppViolation { proc, message } => {
                write!(f, "application violation on processor {proc}: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<Poison> for SimError {
    fn from(p: Poison) -> SimError {
        match p {
            Poison::Deadlock { blocked } => SimError::Deadlock { blocked },
            Poison::MessageToFinished { src, dst } => SimError::MessageToFinished { src, dst },
            Poison::Panic { proc, message } => SimError::ProcPanicked { proc, message },
            Poison::Protocol { proc, message } => SimError::ProtocolViolation { proc, message },
            Poison::App { proc, message } => SimError::AppViolation { proc, message },
        }
    }
}

/// Internal panic payload used to unwind out of a poisoned simulation.
struct SimAbort(Poison);

/// Per-processor accounting published at the end of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcReport {
    /// The processor's final virtual time.
    pub final_time: VirtualTime,
    /// Cycle totals per [`Category`], indexed by `Category as usize`.
    pub breakdown: [u64; CATEGORY_COUNT],
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent (as declared by the callers of `send`).
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Faults the network injected on this processor's outgoing messages.
    pub fault_stats: FaultStats,
}

/// The result of a successful cluster run.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Per-processor closure return values, indexed by processor id.
    pub results: Vec<R>,
    /// Per-processor accounting, indexed by processor id.
    pub reports: Vec<ProcReport>,
    /// The cluster finish time: the maximum of the final clocks.
    pub finish_time: VirtualTime,
    /// Total messages delivered by the scheduler.
    pub messages_delivered: u64,
    /// Host-side scheduler counters (event-engine perf attribution).
    pub sched: crate::sched::SchedStats,
}

/// A simulated processor, handed to the per-processor closure.
///
/// All methods take `&mut self`; each handle belongs to exactly one
/// processor's closure.
pub struct ProcHandle<M> {
    id: usize,
    procs: usize,
    net: NetModel,
    faults: FaultPlan,
    sched: Arc<Scheduler<M>>,
    clock: CpuClock,
    seq: u64,
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_received: u64,
    fault_stats: FaultStats,
}

impl<M: Send + Clone> ProcHandle<M> {
    /// This processor's id, in `0..procs()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The number of processors in the cluster.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The interconnect model in effect.
    pub fn net(&self) -> NetModel {
        self.net
    }

    /// The network fault plan in effect.
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Current virtual time on this processor.
    pub fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    /// Read access to the clock (for breakdown queries).
    pub fn clock(&self) -> &CpuClock {
        &self.clock
    }

    /// Advances the clock by `cycles`, charged to `cat`.
    pub fn charge(&mut self, cat: Category, cycles: u64) {
        self.clock.charge(cat, cycles);
    }

    /// Charges application compute time.
    pub fn work(&mut self, cycles: u64) {
        self.clock.charge(Category::Compute, cycles);
    }

    /// Sends `msg` (declared wire size `bytes`) to processor `dst`.
    ///
    /// Charges this processor the sender-side software overhead; the message
    /// is delivered at `now + latency + bytes/bandwidth` — unless the
    /// configured [`FaultPlan`] decides otherwise, in which case the message
    /// may be silently dropped, duplicated, or delayed. The fault decision
    /// is a pure function of `(plan seed, src, dst, seq)`, so the same
    /// configuration always yields the same schedule. The sender is charged
    /// and its counters advance identically in every case: faults are
    /// invisible at the send site.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this processor (protocols must short-circuit local
    /// operations) or out of range.
    pub fn send(&mut self, dst: usize, msg: M, bytes: u64) {
        assert!(dst < self.procs, "destination {dst} out of range");
        assert_ne!(
            dst, self.id,
            "self-send: local operations must not use the network"
        );
        self.clock
            .charge(Category::Protocol, self.net.send_overhead_cycles);
        let deliver_at = self.clock.now() + self.net.wire_cycles(bytes);
        let seq = self.seq;
        self.seq += 1;
        self.msgs_sent += 1;
        self.bytes_sent += bytes;
        match self.faults.decide(self.id, dst, seq) {
            FaultDecision::Deliver => self.post_event(deliver_at, seq, dst, msg),
            FaultDecision::Drop => {
                // The network ate it: the sender already paid, nothing is
                // queued. `seq` stays consumed so later decisions on this
                // link are independent of earlier fates.
                self.fault_stats.dropped += 1;
            }
            FaultDecision::Duplicate { extra_delay } => {
                self.fault_stats.duplicated += 1;
                self.post_event(deliver_at, seq, dst, msg.clone());
                // The extra copy takes its own seq so the scheduler's
                // `(deliver_at, src, seq)` total order stays strict.
                let dup_seq = self.seq;
                self.seq += 1;
                self.post_event(deliver_at + extra_delay, dup_seq, dst, msg);
            }
            FaultDecision::Reorder { extra_delay } => {
                self.fault_stats.reordered += 1;
                self.post_event(deliver_at + extra_delay, seq, dst, msg);
            }
            FaultDecision::Delay { extra_delay } => {
                self.fault_stats.delayed += 1;
                self.post_event(deliver_at + extra_delay, seq, dst, msg);
            }
        }
    }

    fn post_event(&mut self, deliver_at: VirtualTime, seq: u64, dst: usize, msg: M) {
        self.sched.post(Event {
            deliver_at,
            src: self.id,
            seq,
            dst,
            msg,
        });
    }

    /// Schedules `msg` for delivery back to this processor after `delay`
    /// cycles of virtual time, with no network charges.
    ///
    /// This is the deterministic timer primitive: a processor that wants to
    /// back off (poll a condition later) posts a tick to itself and blocks
    /// in `recv`, which lets the scheduler deliver other processors'
    /// messages in the meantime. Spinning without blocking would starve
    /// the conservative scheduler, which only delivers when every thread
    /// is blocked.
    pub fn post_self(&mut self, msg: M, delay: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.sched.post(Event {
            deliver_at: self.clock.now() + delay,
            src: self.id,
            seq,
            dst: self.id,
            msg,
        });
    }

    /// Receives the next message addressed to this processor, advancing the
    /// clock to its delivery time. Returns `(delivery time, src, msg)`.
    ///
    /// Under [`Cluster::run_async`] this parks the processor and returns
    /// `Pending` to the poll loop, which polls it again once the event is
    /// in its slot; under the threaded [`Cluster::run`] it blocks.
    ///
    /// # Panics
    ///
    /// Panics (aborting the whole simulation) on deadlock: every processor
    /// blocked in `recv` with nothing in flight indicates a protocol bug.
    pub async fn recv_async(&mut self) -> (VirtualTime, usize, M) {
        self.recv_inner(false)
            .await
            .expect("recv cannot observe quiescence")
    }

    /// Like [`recv_async`](Self::recv_async), but also returns `None` when
    /// the whole cluster has quiesced (all processors draining, nothing in
    /// flight). Used by the DSM runtime's end-of-run service loop: a
    /// processor that has finished its application work keeps serving
    /// protocol messages until the cluster agrees nothing more can arrive.
    pub async fn drain_recv_async(&mut self) -> Option<(VirtualTime, usize, M)> {
        self.recv_inner(true).await
    }

    async fn recv_inner(&mut self, draining: bool) -> Option<(VirtualTime, usize, M)> {
        let got = if self.sched.threaded() {
            self.sched.block_recv(self.id, draining)
        } else {
            self.sched.lock().park(self.id, draining);
            poll_fn(|_| {
                self.sched
                    .lock()
                    .take(self.id)
                    .map_or(Poll::Pending, Poll::Ready)
            })
            .await
        };
        self.accept(got)
    }

    /// The blocking [`recv_async`](Self::recv_async), for the threaded
    /// [`Cluster::run`]. It panics under [`Cluster::run_async`], where
    /// blocking would hang the driver's only thread.
    pub fn recv(&mut self) -> (VirtualTime, usize, M) {
        let got = self.sched.block_recv(self.id, false);
        self.accept(got).expect("recv cannot observe quiescence")
    }

    /// Charges a completed receive, or unwinds out of a poisoned run.
    fn accept(&mut self, got: Received<M>) -> Option<(VirtualTime, usize, M)> {
        match got {
            Ok(Some((at, src, msg))) => {
                self.clock.advance_to(at);
                if src != self.id {
                    // Self-posted timers carry no protocol cost.
                    self.clock
                        .charge(Category::Protocol, self.net.recv_overhead_cycles);
                    self.msgs_received += 1;
                }
                Some((at, src, msg))
            }
            Ok(None) => None,
            Err(poison) => std::panic::panic_any(SimAbort(poison)),
        }
    }

    /// Aborts the simulation with a typed protocol error.
    ///
    /// For protocol layers that detect an invariant violation (a misrouted
    /// message, a malformed exchange): instead of panicking — which would
    /// surface as an opaque [`SimError::ProcPanicked`] — this poisons the
    /// cluster with [`SimError::ProtocolViolation`] carrying this
    /// processor's id and `message`, wakes every other thread, and unwinds
    /// this one. It never returns.
    pub fn protocol_violation(&mut self, message: String) -> ! {
        std::panic::panic_any(SimAbort(Poison::Protocol {
            proc: self.id,
            message,
        }))
    }

    /// Aborts the simulation with a typed application-misuse error.
    ///
    /// Like [`ProcHandle::protocol_violation`], but for runtime layers
    /// that catch the *application* breaking the API contract (an
    /// out-of-bounds shared write, say): the cluster is poisoned with
    /// [`SimError::AppViolation`] carrying this processor's id and
    /// `message` instead of an opaque panic. It never returns.
    pub fn app_violation(&mut self, message: String) -> ! {
        std::panic::panic_any(SimAbort(Poison::App {
            proc: self.id,
            message,
        }))
    }

    fn new(id: usize, cfg: &ClusterConfig, sched: &Arc<Scheduler<M>>) -> ProcHandle<M> {
        ProcHandle {
            id,
            procs: cfg.procs,
            net: cfg.net,
            faults: cfg.faults,
            sched: Arc::clone(sched),
            clock: CpuClock::new(),
            seq: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            msgs_received: 0,
            fault_stats: FaultStats::default(),
        }
    }

    fn report(&self) -> ProcReport {
        ProcReport {
            final_time: self.clock.now(),
            breakdown: self.clock.breakdown(),
            msgs_sent: self.msgs_sent,
            bytes_sent: self.bytes_sent,
            msgs_received: self.msgs_received,
            fault_stats: self.fault_stats,
        }
    }
}

/// Entry point: runs one closure per simulated processor to completion.
pub struct Cluster;

impl Cluster {
    /// Runs `f` on every processor of a simulated cluster, all on the
    /// calling thread, and collects the results. Each processor is a
    /// future polled until it pends in [`ProcHandle::recv_async`]; once
    /// none is runnable, the minimal event goes to its destination's slot
    /// and the loop polls that one future (every drainer on quiescence).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the simulation deadlocks, a message is sent
    /// to a finished processor, or any closure panics or reports a
    /// violation. The remaining futures are dropped unfinished.
    pub fn run_async<M, R, F>(cfg: ClusterConfig, f: F) -> Result<RunOutcome<R>, SimError>
    where
        M: Send + Clone + 'static,
        F: AsyncFn(&mut ProcHandle<M>) -> R,
    {
        assert!(cfg.procs > 0, "cluster needs at least one processor");
        let sched: Arc<Scheduler<M>> = Arc::new(Scheduler::new(cfg.procs, false));
        let mut handles: Vec<ProcHandle<M>> = (0..cfg.procs)
            .map(|id| ProcHandle::new(id, &cfg, &sched))
            .collect();
        let mut results: Vec<Option<R>> = (0..cfg.procs).map(|_| None).collect();
        {
            let mut futs: Vec<_> = handles.iter_mut().map(|h| Some(Box::pin(f(h)))).collect();
            let mut cx = Context::from_waker(Waker::noop());
            let mut runnable: Vec<usize> = (0..cfg.procs).rev().collect();
            'run: loop {
                while let Some(id) = runnable.pop() {
                    let fut = futs[id].as_mut().expect("a runnable processor is live");
                    let abort = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
                    {
                        Ok(Poll::Ready(val)) => {
                            results[id] = Some(val);
                            futs[id] = None;
                            sched.finish(id);
                            continue;
                        }
                        Ok(Poll::Pending) if sched.lock().parked(id) => continue,
                        Ok(Poll::Pending) => Poison::Panic {
                            proc: id,
                            message: "processor future pended outside recv_async".into(),
                        },
                        Err(payload) => poison_of(id, payload),
                    };
                    sched.set_poison(abort);
                    break 'run;
                }
                match sched.lock().dispatch() {
                    Next::Deliver(dst) => runnable.push(dst),
                    Next::Release(drainers) if !drainers.is_empty() => runnable = drainers,
                    Next::Release(_) | Next::Stop => break,
                }
            }
        }
        let reports = handles.iter().map(|h| Some(h.report())).collect();
        outcome(&sched, results, reports)
    }

    /// [`run_async`](Self::run_async) with one OS thread per processor and
    /// a blocking [`ProcHandle::recv`]: the same scheduler core, the same
    /// results, but each delivery is a condvar handoff between threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the simulation deadlocks, a message is sent
    /// to a finished processor, or any closure panics.
    pub fn run<M, R, F>(cfg: ClusterConfig, f: F) -> Result<RunOutcome<R>, SimError>
    where
        M: Send + Clone + 'static,
        R: Send,
        F: Fn(&mut ProcHandle<M>) -> R + Send + Sync,
    {
        assert!(cfg.procs > 0, "cluster needs at least one processor");
        let sched: Arc<Scheduler<M>> = Arc::new(Scheduler::new(cfg.procs, true));
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..cfg.procs).map(|_| None).collect());
        let reports: Mutex<Vec<Option<ProcReport>>> =
            Mutex::new((0..cfg.procs).map(|_| None).collect());

        std::thread::scope(|scope| {
            for id in 0..cfg.procs {
                let (sched, f, results, reports) = (&sched, &f, &results, &reports);
                scope.spawn(move || {
                    let mut handle = ProcHandle::new(id, &cfg, sched);
                    match catch_unwind(AssertUnwindSafe(|| f(&mut handle))) {
                        Ok(val) => {
                            lock_vec(reports)[id] = Some(handle.report());
                            lock_vec(results)[id] = Some(val);
                            sched.finish(id);
                        }
                        Err(payload) => sched.set_poison(poison_of(id, payload)),
                    }
                });
            }
        });
        outcome(&sched, into_vec(results), into_vec(reports))
    }
}

/// The run's outcome once every processor has stopped: the poison if any,
/// otherwise the collected results and reports.
fn outcome<M, R>(
    sched: &Scheduler<M>,
    results: Vec<Option<R>>,
    reports: Vec<Option<ProcReport>>,
) -> Result<RunOutcome<R>, SimError> {
    if let Some(poison) = sched.poison() {
        return Err(poison.into());
    }
    let results: Option<Vec<R>> = results.into_iter().collect();
    let results = results.expect("every processor finished");
    let reports: Option<Vec<ProcReport>> = reports.into_iter().collect();
    let reports = reports.expect("every processor reported");
    let finish_time = reports
        .iter()
        .map(|r| r.final_time)
        .max()
        .unwrap_or(VirtualTime::ZERO);
    let sched = sched.stats();
    Ok(RunOutcome {
        results,
        reports,
        finish_time,
        messages_delivered: sched.delivered,
        sched,
    })
}

/// Why processor `id`'s closure unwound: a deliberate [`SimAbort`] carries
/// its own poison, anything else is an application panic.
fn poison_of(id: usize, payload: Box<dyn std::any::Any + Send>) -> Poison {
    match payload.downcast::<SimAbort>() {
        Ok(abort) => abort.0,
        Err(payload) => Poison::Panic {
            proc: id,
            message: panic_message(&*payload),
        },
    }
}

/// Locks a result-collection mutex. These are only held for a single slot
/// assignment, never across a panic, so a poisoned guard is recovered.
fn lock_vec<T>(m: &Mutex<Vec<Option<T>>>) -> std::sync::MutexGuard<'_, Vec<Option<T>>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn into_vec<T>(m: Mutex<Vec<Option<T>>>) -> Vec<Option<T>> {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = u64;
    type P = ProcHandle<Msg>;

    #[test]
    fn single_proc_runs_locally() {
        let out = Cluster::run_async(ClusterConfig::new(1), async |p: &mut P| {
            p.work(1000);
            p.now().cycles()
        })
        .unwrap();
        assert_eq!(out.results, vec![1000]);
        assert_eq!(out.messages_delivered, 0);
        assert_eq!(out.finish_time.cycles(), 1000);
    }

    #[test]
    fn message_delivery_advances_receiver_clock() {
        let cfg = ClusterConfig::new(2).net(NetModel {
            latency_cycles: 100,
            per_byte_millicycles: 1000,
            send_overhead_cycles: 10,
            recv_overhead_cycles: 20,
        });
        let out = Cluster::run_async(cfg, async |p: &mut P| {
            if p.id() == 0 {
                p.work(50);
                p.send(1, 7, 8);
                0
            } else {
                let (at, src, msg) = p.recv_async().await;
                assert_eq!(src, 0);
                assert_eq!(msg, 7);
                // Sent at 50 + 10 overhead = 60; +100 latency +8 bytes = 168.
                assert_eq!(at.cycles(), 168);
                p.now().cycles()
            }
        })
        .unwrap();
        // Receiver: 168 delivery + 20 recv overhead.
        assert_eq!(out.results[1], 188);
    }

    #[test]
    fn deadlock_is_detected() {
        // Procs 0 and 2 wait forever; the drainer (1) is not reported.
        let err = Cluster::run_async(ClusterConfig::new(3), async |p: &mut P| {
            while p.id() == 1 && p.drain_recv_async().await.is_some() {}
            if p.id() != 1 {
                p.recv_async().await;
            }
        })
        .unwrap_err();
        let blocked = vec![0, 2];
        assert_eq!(err, SimError::Deadlock { blocked });
    }

    #[test]
    fn message_to_finished_proc_is_reported() {
        let err = Cluster::run_async(ClusterConfig::new(2), async |p: &mut P| {
            // Proc 1 returns without receiving; proc 0's message can only
            // be dispatched after both have finished.
            if p.id() == 0 {
                p.send(1, 7, 8);
            }
        })
        .unwrap_err();
        assert_eq!(err, SimError::MessageToFinished { src: 0, dst: 1 });
    }

    #[test]
    fn drain_recv_quiesces_when_everyone_drains() {
        let out = Cluster::run_async(ClusterConfig::new(3), async |p: &mut P| {
            if p.id() == 0 {
                p.send(1, 1, 4);
                p.send(2, 2, 4);
            }
            let mut seen = 0;
            while let Some((_, _, m)) = p.drain_recv_async().await {
                seen += m;
            }
            seen
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 1, 2]);
    }

    #[test]
    fn app_panic_is_reported() {
        let err = Cluster::run_async(ClusterConfig::new(2), async |p: &mut P| {
            if p.id() == 1 {
                panic!("boom");
            }
            p.recv_async().await;
        })
        .unwrap_err();
        match err {
            SimError::ProcPanicked { proc, message } => {
                assert_eq!(proc, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn delivery_order_is_deterministic_across_runs() {
        // Three senders fire at identical virtual times; the receiver's
        // observed order must be identical run after run.
        let run = || {
            let out = Cluster::run_async(
                ClusterConfig::new(4).net(NetModel::ideal()),
                async |p: &mut P| {
                    if p.id() == 0 {
                        let mut order = Vec::new();
                        for _ in 0..3 {
                            let (_, src, _) = p.recv_async().await;
                            order.push(src);
                        }
                        order
                    } else {
                        p.send(0, p.id() as u64, 4);
                        Vec::new()
                    }
                },
            )
            .unwrap();
            out.results[0].clone()
        };
        let first = run();
        for _ in 0..10 {
            assert_eq!(run(), first);
        }
        // Ties broken by source id.
        assert_eq!(first, vec![1, 2, 3]);
    }

    #[test]
    fn finish_time_is_max_over_procs() {
        let out = Cluster::run_async(ClusterConfig::new(3), async |p: &mut P| {
            p.work(100 * (p.id() as u64 + 1));
        })
        .unwrap();
        assert_eq!(out.finish_time.cycles(), 300);
    }

    #[test]
    fn self_send_is_rejected() {
        let err = Cluster::run_async(ClusterConfig::new(1), async |p: &mut P| {
            p.send(0, 1, 4);
        })
        .unwrap_err();
        match err {
            SimError::ProcPanicked { proc: 0, message } => {
                assert!(message.contains("self-send"), "message: {message}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn protocol_violation_surfaces_typed_error() {
        let err = Cluster::run_async(ClusterConfig::new(3), async |p: &mut P| {
            match p.id() {
                0 => p.protocol_violation("acquire for lock 9 routed to non-home".into()),
                1 => {
                    // Blocked in recv when the violation fires: must be
                    // woken, not deadlocked.
                    p.recv_async().await;
                }
                _ => {
                    // Draining when the violation fires.
                    while p.drain_recv_async().await.is_some() {}
                }
            }
        })
        .unwrap_err();
        match err {
            SimError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0);
                assert!(message.contains("lock 9"), "message: {message}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn blocking_recv_under_run_async_fails_instead_of_hanging() {
        let err = Cluster::run_async(ClusterConfig::new(2), async |p: &mut P| {
            if p.id() == 0 {
                p.send(1, 7, 8);
            } else {
                p.recv();
            }
        })
        .unwrap_err();
        match err {
            SimError::ProcPanicked { proc: 1, message } => {
                assert!(message.contains("await recv_async"), "message: {message}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn panic_with_others_blocked_and_draining_does_not_deadlock() {
        // Satellite coverage for the poison path: the panicking processor's
        // id and message must come through while peers sit in recv /
        // drain_recv, and the run must terminate (no hang).
        let err = Cluster::run_async(ClusterConfig::new(4), async |p: &mut P| match p.id() {
            2 => {
                p.work(10);
                panic!("detector state corrupt on proc {}", p.id());
            }
            0 => {
                p.recv_async().await;
            }
            _ => while p.drain_recv_async().await.is_some() {},
        })
        .unwrap_err();
        match err {
            SimError::ProcPanicked { proc, message } => {
                assert_eq!(proc, 2);
                assert!(
                    message.contains("detector state corrupt on proc 2"),
                    "message: {message}"
                );
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn first_poison_wins_when_multiple_procs_panic() {
        // Whichever panic poisons first is reported; the second panic must
        // not hang or overwrite it with nonsense. We only assert the shape.
        let err = Cluster::run_async(ClusterConfig::new(2), async |p: &mut P| {
            panic!("boom {}", p.id());
        })
        .unwrap_err();
        match err {
            SimError::ProcPanicked { proc, message } => {
                assert!(proc < 2);
                assert!(
                    message.contains(&format!("boom {proc}")),
                    "id/message mismatch"
                );
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn faults_disabled_is_bit_for_bit_identical() {
        let run = |faults: crate::fault::FaultPlan| {
            let cfg = ClusterConfig::new(2).faults(faults);
            Cluster::run_async(cfg, async |p: &mut P| {
                if p.id() == 0 {
                    for i in 0..10 {
                        p.send(1, i, 8);
                        let (_, _, echo) = p.recv_async().await;
                        assert_eq!(echo, i);
                    }
                    p.now().cycles()
                } else {
                    for _ in 0..10 {
                        let (_, src, m) = p.recv_async().await;
                        p.send(src, m, 8);
                    }
                    p.now().cycles()
                }
            })
            .unwrap()
        };
        let base = run(crate::fault::FaultPlan::none());
        // Enabled plan with zero rates must not perturb anything either.
        let zero = run(crate::fault::FaultPlan::seeded(123));
        assert_eq!(base.results, zero.results);
        assert_eq!(base.messages_delivered, zero.messages_delivered);
        assert_eq!(base.finish_time, zero.finish_time);
    }

    #[test]
    fn fault_schedule_is_deterministic_across_runs() {
        let run = || {
            let faults = crate::fault::FaultPlan::chaos(11, 150_000);
            let cfg = ClusterConfig::new(2).faults(faults);
            let out = Cluster::run_async(cfg, async |p: &mut P| {
                if p.id() == 0 {
                    for i in 0..200 {
                        p.send(1, i, 8);
                    }
                    0
                } else {
                    let mut sum = 0;
                    while let Some((_, _, m)) = p.drain_recv_async().await {
                        sum += m;
                    }
                    sum
                }
            })
            .unwrap();
            let stats = out.reports[0].fault_stats;
            (out.results.clone(), out.messages_delivered, stats)
        };
        let first = run();
        assert!(first.2.total() > 0, "chaos plan should inject something");
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn drops_and_duplicates_change_delivery_counts() {
        let count = |faults: crate::fault::FaultPlan| {
            let cfg = ClusterConfig::new(2).faults(faults);
            let out = Cluster::run_async(cfg, async |p: &mut P| {
                if p.id() == 0 {
                    for i in 0..500 {
                        p.send(1, i, 8);
                    }
                }
                let mut n = 0u64;
                while p.drain_recv_async().await.is_some() {
                    n += 1;
                }
                n
            })
            .unwrap();
            (out.results[1], out.reports[0].fault_stats)
        };
        let (clean, _) = count(crate::fault::FaultPlan::seeded(3));
        assert_eq!(clean, 500);
        let (lossy, ls) = count(crate::fault::FaultPlan::lossy(3, 200_000));
        assert_eq!(lossy, 500 - ls.dropped);
        assert!(ls.dropped > 0);
        let (dupped, ds) = count(crate::fault::FaultPlan::seeded(3).dup_ppm(200_000));
        assert_eq!(dupped, 500 + ds.duplicated);
        assert!(ds.duplicated > 0);
    }

    #[test]
    fn delayed_messages_arrive_late_but_arrive() {
        let faults = crate::fault::FaultPlan::seeded(17).delay_ppm(300_000);
        let cfg = ClusterConfig::new(2).net(NetModel::ideal()).faults(faults);
        let out = Cluster::run_async(cfg, async |p: &mut P| {
            if p.id() == 0 {
                for i in 0..100 {
                    p.send(1, i, 8);
                }
                0
            } else {
                let mut got: Vec<u64> = Vec::new();
                while let Some((_, _, m)) = p.drain_recv_async().await {
                    got.push(m);
                }
                got.sort_unstable();
                got.len() as u64
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 100, "delay must never lose a message");
        assert!(out.reports[0].fault_stats.delayed > 0);
    }
}
