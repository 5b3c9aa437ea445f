//! Impl #2: a real transport over loopback sockets, one OS thread per
//! processor.
//!
//! Where the simulator interleaves processors deterministically under a
//! virtual clock, this transport runs them as genuinely concurrent OS
//! threads exchanging length-prefixed frames over `std::net` sockets —
//! TCP by default, or UDP with optional deterministic loss injection so
//! the DSM's go-back-N reliable channel has real packet loss to recover
//! from. The wall clock (scaled by a configurable cycles-per-microsecond
//! rate) stands in for the virtual clock.
//!
//! The concurrency architecture per processor:
//!
//! * the processor thread itself runs the application closure and owns
//!   the transport handle (lazily dialed write sockets, local timer heap);
//! * a listener/accept thread (TCP) or a socket reader thread (UDP)
//!   decodes inbound frames and pushes them into the processor's inbox
//!   in the shared [`Hub`];
//! * an optional watchdog thread aborts a hung run at a wall-clock
//!   deadline with a per-processor state dump.
//!
//! Each direction of each processor pair gets its own TCP stream (dialed
//! on first send), so per-pair FIFO follows directly from TCP's byte
//! ordering. UDP datagrams on loopback are also delivered in order in
//! practice, but the transport makes no such promise — the reliable
//! channel above handles loss, duplication, and reordering.

use std::future::Future;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::pin::pin;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use midway_sim::{
    Category, FaultDecision, FaultPlan, FaultStats, ProcReport, VirtualTime, CATEGORY_COUNT,
};

use crate::hub::{status, Hub, RealAbort, RealPoison, TimerEntry};
use crate::transport::Transport;
use crate::wire::{decode_exact, Wire};

/// Largest frame a TCP reader will accept (a corrupt length prefix must
/// not trigger a giant allocation).
const MAX_TCP_FRAME: usize = 1 << 28;

/// Largest payload sent in one UDP datagram. Loopback accepts datagrams
/// up to 64 KiB; anything bigger must use TCP.
pub const MAX_UDP_PAYLOAD: usize = 60_000;

/// How long a draining processor sleeps between quiescence probes.
const DRAIN_POLL: Duration = Duration::from_micros(500);

/// Condvar-wait cap for blocking receives (a guard against lost wakeups,
/// not a polling interval: pushes and poisons notify immediately).
const RECV_WAIT: Duration = Duration::from_millis(25);

/// Which socket flavor a real-transport run uses.
#[derive(Clone, Debug)]
pub enum RealMode {
    /// Length-prefixed frames over per-direction loopback TCP streams.
    /// Lossless and per-pair FIFO; the DSM can run with its reliable
    /// channel disabled, exactly as on the simulator's perfect network.
    Tcp,
    /// One datagram per message over loopback UDP, with deterministic
    /// loss/duplication injected at the send site per the embedded
    /// [`FaultPlan`]. The DSM must run its reliable channel on top.
    Udp {
        /// Per-message fault schedule (`FaultPlan::seeded(0)` for a
        /// lossless-but-untrusted link). `Reorder`/`Delay` decisions
        /// deliver normally: real sockets offer no delay hook. Boxed:
        /// the plan's crash table would otherwise dwarf `Tcp`.
        loss: Box<FaultPlan>,
    },
}

/// Configuration for a real-transport run.
#[derive(Clone, Debug)]
pub struct RealConfig {
    /// Socket flavor.
    pub mode: RealMode,
    /// Wall-clock to cycle conversion rate. The default, 25 cycles/µs,
    /// matches the paper's 25 MHz R3000 so cycle-denominated protocol
    /// constants (timeouts, backoffs) keep sensible real durations.
    pub cycles_per_micro: u64,
    /// Wall-clock deadline after which a hung run is aborted with
    /// per-processor state dumps. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl RealConfig {
    /// Loopback TCP with the default clock rate and a 120 s watchdog.
    pub fn tcp() -> RealConfig {
        RealConfig {
            mode: RealMode::Tcp,
            cycles_per_micro: 25,
            watchdog: Some(Duration::from_secs(120)),
        }
    }

    /// Loopback UDP with the given loss plan, default clock rate, and a
    /// 120 s watchdog.
    pub fn udp(loss: FaultPlan) -> RealConfig {
        RealConfig {
            mode: RealMode::Udp {
                loss: Box::new(loss),
            },
            ..RealConfig::tcp()
        }
    }

    /// Replaces the clock conversion rate.
    pub fn cycles_per_micro(mut self, rate: u64) -> RealConfig {
        assert!(rate > 0, "clock rate must be positive");
        self.cycles_per_micro = rate;
        self
    }

    /// Replaces (or disables) the watchdog deadline.
    pub fn watchdog(mut self, deadline: Option<Duration>) -> RealConfig {
        self.watchdog = deadline;
        self
    }
}

impl Default for RealConfig {
    fn default() -> RealConfig {
        RealConfig::tcp()
    }
}

/// Why a real-transport run failed. The counterpart of the simulator's
/// `SimError`, plus socket and watchdog failures that cannot occur under
/// virtual time.
#[derive(Clone, Debug)]
pub enum RealError {
    /// A protocol layer detected an invariant violation.
    Protocol {
        /// The processor that detected the violation.
        proc: usize,
        /// Description of the violated invariant.
        message: String,
    },
    /// The runtime detected an application-level misuse of the DSM API.
    App {
        /// The processor whose application misused the API.
        proc: usize,
        /// Description of the misuse.
        message: String,
    },
    /// An application closure panicked on some processor.
    Panic {
        /// The processor whose closure panicked.
        proc: usize,
        /// The panic payload, rendered as a string where possible.
        message: String,
    },
    /// A socket operation failed or an inbound frame failed to decode.
    Io {
        /// The processor on whose behalf the operation ran.
        proc: usize,
        /// Description of the failure.
        message: String,
    },
    /// The wall-clock watchdog deadline passed before the run finished.
    Watchdog {
        /// The deadline that expired, in seconds.
        secs: u64,
        /// One state line per processor at the moment of the abort.
        dumps: Vec<String>,
    },
}

impl std::fmt::Display for RealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealError::Protocol { proc, message } => {
                write!(f, "protocol violation on processor {proc}: {message}")
            }
            RealError::App { proc, message } => {
                write!(f, "application violation on processor {proc}: {message}")
            }
            RealError::Panic { proc, message } => {
                write!(f, "processor {proc} panicked: {message}")
            }
            RealError::Io { proc, message } => {
                write!(f, "transport i/o failure on processor {proc}: {message}")
            }
            RealError::Watchdog { secs, dumps } => {
                writeln!(f, "real-transport run hung past the {secs}s watchdog:")?;
                for d in dumps {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RealError {}

impl From<RealPoison> for RealError {
    fn from(p: RealPoison) -> RealError {
        match p {
            RealPoison::Protocol { proc, message } => RealError::Protocol { proc, message },
            RealPoison::App { proc, message } => RealError::App { proc, message },
            RealPoison::Panic { proc, message } => RealError::Panic { proc, message },
            RealPoison::Io { proc, message } => RealError::Io { proc, message },
            RealPoison::Watchdog { secs, dumps } => RealError::Watchdog { secs, dumps },
        }
    }
}

/// The result of a successful real-transport run. Mirrors the simulator's
/// `RunOutcome`, but times are wall-clock-derived and therefore vary from
/// run to run.
#[derive(Debug)]
pub struct RealOutcome<R> {
    /// Per-processor closure return values, indexed by processor id.
    pub results: Vec<R>,
    /// Per-processor accounting, indexed by processor id.
    pub reports: Vec<ProcReport>,
    /// The latest per-processor final clock.
    pub finish_time: VirtualTime,
    /// Messages handed to processor closures (network + self timers).
    pub messages_delivered: u64,
}

/// Per-processor socket state.
enum Links {
    Tcp {
        addrs: Arc<Vec<SocketAddr>>,
        /// Outbound stream per destination, dialed on first send.
        writers: Vec<Option<TcpStream>>,
    },
    Udp {
        sock: UdpSocket,
        addrs: Arc<Vec<SocketAddr>>,
        loss: Box<FaultPlan>,
        /// Per-destination datagram sequence numbers feeding the loss plan.
        seqs: Vec<u64>,
    },
}

/// A real processor's transport handle: impl #2 of
/// [`Transport`](crate::Transport). Owned by exactly one OS thread.
pub struct RealTransport<M> {
    me: usize,
    procs: usize,
    cycles_per_micro: u64,
    hub: Arc<Hub<M>>,
    links: Links,
    timers: std::collections::BinaryHeap<TimerEntry<M>>,
    timer_seq: u64,
    charged: [u64; CATEGORY_COUNT],
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_received: u64,
    fault_stats: FaultStats,
    scratch: Vec<u8>,
    busy_marked: bool,
    idle_marked: bool,
}

impl<M: Wire + Send> RealTransport<M> {
    fn cycles_to_nanos(&self, cycles: u64) -> u64 {
        cycles.saturating_mul(1_000) / self.cycles_per_micro
    }

    /// Poisons the run and unwinds this thread. Free of `&mut self` so it
    /// can be called while socket state is mutably borrowed.
    fn die(hub: &Hub<M>, poison: RealPoison) -> ! {
        hub.fail_soft(poison);
        panic_any(RealAbort)
    }

    fn clear_busy(&mut self) {
        if self.busy_marked {
            self.hub.busy[self.me].store(false, SeqCst);
            self.hub.bump();
            self.busy_marked = false;
        }
    }

    fn mark_active(&mut self) {
        if self.idle_marked {
            self.hub.idle_drain[self.me].store(false, SeqCst);
            self.hub.bump();
            self.idle_marked = false;
        }
        self.hub.busy[self.me].store(true, SeqCst);
        self.busy_marked = true;
        self.hub.delivered.fetch_add(1, SeqCst);
        self.hub.touch(self.me);
        self.hub.status[self.me].store(status::APP, SeqCst);
    }

    fn recv_inner(&mut self, draining: bool) -> Option<(VirtualTime, usize, M)> {
        self.hub.status[self.me].store(
            if draining {
                status::DRAIN
            } else {
                status::RECV
            },
            SeqCst,
        );
        // Returning from the previous recv marked this processor busy;
        // coming back for the next message ends that handler span.
        self.clear_busy();
        loop {
            if self.hub.is_poisoned() {
                panic_any(RealAbort);
            }
            if draining && self.hub.quiesced() {
                return None;
            }
            let now_ns = self.hub.nanos();
            if self.timers.peek().is_some_and(|e| e.at_nanos <= now_ns) {
                let e = self.timers.pop().expect("peeked entry");
                self.hub.pending_self[self.me].fetch_sub(1, SeqCst);
                self.hub.bump();
                self.mark_active();
                return Some((self.now(), self.me, e.msg));
            }
            if let Some((src, msg)) = self.hub.try_pop(self.me) {
                self.msgs_received += 1;
                self.mark_active();
                return Some((self.now(), src, msg));
            }
            let wait = match self.timers.peek() {
                // Sleep until the earliest timer (capped: a push still
                // wakes us immediately via the inbox condvar).
                Some(e) => {
                    Duration::from_nanos(e.at_nanos.saturating_sub(now_ns).max(1)).min(RECV_WAIT)
                }
                None if draining => {
                    if !self.idle_marked {
                        self.hub.idle_drain[self.me].store(true, SeqCst);
                        self.idle_marked = true;
                    }
                    if self.hub.try_quiesce() {
                        return None;
                    }
                    DRAIN_POLL
                }
                None => RECV_WAIT,
            };
            self.hub.wait(self.me, wait);
        }
    }

    fn send_tcp(
        hub: &Hub<M>,
        me: usize,
        addrs: &[SocketAddr],
        writers: &mut [Option<TcpStream>],
        dst: usize,
        payload: &[u8],
    ) {
        use std::io::Write;
        if writers[dst].is_none() {
            let stream = TcpStream::connect(addrs[dst])
                .and_then(|s| {
                    s.set_nodelay(true)?;
                    Ok(s)
                })
                .and_then(|mut s| {
                    // The hello frame tells the acceptor which processor
                    // this stream carries traffic from.
                    s.write_all(&u32::try_from(me).expect("proc id fits u32").to_le_bytes())?;
                    Ok(s)
                });
            match stream {
                Ok(s) => writers[dst] = Some(s),
                Err(e) => Self::die(
                    hub,
                    RealPoison::Io {
                        proc: me,
                        message: format!("dialing proc {dst}: {e}"),
                    },
                ),
            }
        }
        let w = writers[dst].as_mut().expect("just dialed");
        // Counted before the write so the quiescence check errs toward
        // "still in flight" if it races the push on the receiver side.
        hub.frames_sent.fetch_add(1, SeqCst);
        let len = u32::try_from(payload.len()).expect("frame fits u32");
        let io = w
            .write_all(&len.to_le_bytes())
            .and_then(|()| w.write_all(payload));
        if let Err(e) = io {
            Self::die(
                hub,
                RealPoison::Io {
                    proc: me,
                    message: format!("writing to proc {dst}: {e}"),
                },
            );
        }
    }

    fn report(&self) -> ProcReport {
        ProcReport {
            final_time: self.now(),
            breakdown: self.charged,
            msgs_sent: self.msgs_sent,
            bytes_sent: self.bytes_sent,
            msgs_received: self.msgs_received,
            fault_stats: self.fault_stats,
        }
    }
}

impl<M: Wire + Send> Transport for RealTransport<M> {
    type Msg = M;

    fn id(&self) -> usize {
        self.me
    }

    fn procs(&self) -> usize {
        self.procs
    }

    /// Wall-clock time since the run started, converted to cycles. The
    /// clock runs whether or not anything is charged; the per-category
    /// breakdown is purely observational here.
    fn now(&self) -> VirtualTime {
        VirtualTime(self.hub.nanos().saturating_mul(self.cycles_per_micro) / 1_000)
    }

    fn charge(&mut self, cat: Category, cycles: u64) {
        self.charged[cat as usize] += cycles;
    }

    fn send(&mut self, dst: usize, msg: M, bytes: u64) {
        assert!(dst < self.procs, "destination {dst} out of range");
        assert_ne!(
            dst, self.me,
            "self-send: local operations must not use the network"
        );
        self.msgs_sent += 1;
        self.bytes_sent += bytes;
        self.scratch.clear();
        match &mut self.links {
            Links::Tcp { addrs, writers } => {
                msg.encode(&mut self.scratch);
                Self::send_tcp(&self.hub, self.me, addrs, writers, dst, &self.scratch);
            }
            Links::Udp {
                sock,
                addrs,
                loss,
                seqs,
            } => {
                // Datagram layout: [u32 src][payload]. The loss plan sees
                // the same (src, dst, seq) identity the simulator's fault
                // layer would, so a given plan drops "the same" messages.
                self.scratch
                    .extend_from_slice(&u32::try_from(self.me).expect("id fits u32").to_le_bytes());
                msg.encode(&mut self.scratch);
                if self.scratch.len() - 4 > MAX_UDP_PAYLOAD {
                    Self::die(
                        &self.hub,
                        RealPoison::Io {
                            proc: self.me,
                            message: format!(
                                "message of {} bytes exceeds the {MAX_UDP_PAYLOAD}-byte UDP \
                                 payload limit; use the TCP mode",
                                self.scratch.len() - 4
                            ),
                        },
                    );
                }
                let seq = seqs[dst];
                seqs[dst] += 1;
                let copies = match loss.decide(self.me, dst, seq) {
                    FaultDecision::Drop => {
                        self.fault_stats.dropped += 1;
                        0
                    }
                    FaultDecision::Duplicate { .. } => {
                        self.fault_stats.duplicated += 1;
                        2
                    }
                    // Real sockets offer no delay hook; these deliver
                    // normally and are not counted as injected.
                    FaultDecision::Deliver
                    | FaultDecision::Reorder { .. }
                    | FaultDecision::Delay { .. } => 1,
                };
                for _ in 0..copies {
                    if let Err(e) = sock.send_to(&self.scratch, addrs[dst]) {
                        Self::die(
                            &self.hub,
                            RealPoison::Io {
                                proc: self.me,
                                message: format!("udp send to proc {dst}: {e}"),
                            },
                        );
                    }
                }
            }
        }
        self.hub.bump();
        self.hub.touch(self.me);
    }

    fn post_self(&mut self, msg: M, delay: u64) {
        let at_nanos = self.hub.nanos().saturating_add(self.cycles_to_nanos(delay));
        self.timers.push(TimerEntry {
            at_nanos,
            seq: self.timer_seq,
            msg,
        });
        self.timer_seq += 1;
        self.hub.pending_self[self.me].fetch_add(1, SeqCst);
    }

    async fn recv(&mut self) -> (VirtualTime, usize, M) {
        self.recv_inner(false)
            .expect("blocking recv cannot observe quiescence")
    }

    async fn drain_recv(&mut self) -> Option<(VirtualTime, usize, M)> {
        self.recv_inner(true)
    }

    fn protocol_violation(&mut self, message: String) -> ! {
        Self::die(
            &self.hub,
            RealPoison::Protocol {
                proc: self.me,
                message,
            },
        )
    }

    fn app_violation(&mut self, message: String) -> ! {
        Self::die(
            &self.hub,
            RealPoison::App {
                proc: self.me,
                message,
            },
        )
    }

    fn note_recovery_status(&mut self, epoch: u32, checkpoint_seq: u64) {
        self.hub.epoch[self.me].store(u64::from(epoch), SeqCst);
        self.hub.last_ckpt[self.me].store(checkpoint_seq, SeqCst);
    }
}

/// Runs a processor's future to completion on the current thread with a
/// no-op waker. Real transports block inside `recv`, so the future never
/// pends; if one does, nothing could ever wake it, and this panics.
fn block_on<T>(fut: impl Future<Output = T>) -> T {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!("a real-transport processor's future pended"),
    }
}

/// Entry point: runs one closure per processor, each on its own OS
/// thread, over real loopback sockets.
pub struct RealCluster;

impl RealCluster {
    /// Runs `f` on every processor of a real-transport cluster and
    /// collects the results. The counterpart of the simulator's
    /// `Cluster::run_async`: each processor's future runs on its own OS
    /// thread, where `recv` blocks on the sockets, so it completes in one
    /// poll.
    ///
    /// # Errors
    ///
    /// Returns [`RealError`] if any closure panics or reports a
    /// violation, a socket operation fails, or the watchdog deadline
    /// passes.
    pub fn run<M, R, F>(cfg: &RealConfig, procs: usize, f: F) -> Result<RealOutcome<R>, RealError>
    where
        M: Wire + Send + 'static,
        R: Send,
        F: AsyncFn(&mut RealTransport<M>) -> R + Sync,
    {
        assert!(procs > 0, "cluster needs at least one processor");
        let hub: Arc<Hub<M>> = Arc::new(Hub::new(procs, matches!(cfg.mode, RealMode::Tcp)));
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..procs).map(|_| None).collect());
        let reports: Mutex<Vec<Option<ProcReport>>> =
            Mutex::new((0..procs).map(|_| None).collect());

        // Bind every endpoint before any thread starts, so first sends
        // can dial without a handshake barrier.
        enum Sockets {
            Tcp(Vec<TcpListener>),
            Udp(Vec<UdpSocket>),
        }
        let bind_err = |e: std::io::Error| RealError::Io {
            proc: 0,
            message: format!("binding loopback socket: {e}"),
        };
        let (sockets, addrs) = match &cfg.mode {
            RealMode::Tcp => {
                let mut ls = Vec::with_capacity(procs);
                let mut addrs = Vec::with_capacity(procs);
                for _ in 0..procs {
                    let l = TcpListener::bind("127.0.0.1:0").map_err(bind_err)?;
                    addrs.push(l.local_addr().map_err(bind_err)?);
                    ls.push(l);
                }
                (Sockets::Tcp(ls), Arc::new(addrs))
            }
            RealMode::Udp { .. } => {
                let mut socks = Vec::with_capacity(procs);
                let mut addrs = Vec::with_capacity(procs);
                for _ in 0..procs {
                    let s = UdpSocket::bind("127.0.0.1:0").map_err(bind_err)?;
                    addrs.push(s.local_addr().map_err(bind_err)?);
                    socks.push(s);
                }
                (Sockets::Udp(socks), Arc::new(addrs))
            }
        };

        std::thread::scope(|s| {
            // Inbound plumbing: accept threads (TCP) or reader threads
            // (UDP), one per processor.
            match &sockets {
                Sockets::Tcp(listeners) => {
                    for (owner, listener) in listeners.iter().enumerate() {
                        let hub = Arc::clone(&hub);
                        let listener = listener
                            .try_clone()
                            .expect("cloning a bound listener cannot fail in practice");
                        s.spawn(move || accept_loop(s, hub, listener, owner));
                    }
                }
                Sockets::Udp(socks) => {
                    for (owner, sock) in socks.iter().enumerate() {
                        let hub = Arc::clone(&hub);
                        let sock = sock
                            .try_clone()
                            .expect("cloning a bound socket cannot fail in practice");
                        s.spawn(move || udp_reader(hub, sock, owner));
                    }
                }
            }

            // Processor threads.
            let handles: Vec<_> = (0..procs)
                .map(|id| {
                    let hub = Arc::clone(&hub);
                    let links = match (&cfg.mode, &sockets) {
                        (RealMode::Tcp, _) => Links::Tcp {
                            addrs: Arc::clone(&addrs),
                            writers: (0..procs).map(|_| None).collect(),
                        },
                        (RealMode::Udp { loss }, Sockets::Udp(socks)) => Links::Udp {
                            sock: socks[id]
                                .try_clone()
                                .expect("cloning a bound socket cannot fail in practice"),
                            addrs: Arc::clone(&addrs),
                            loss: loss.clone(),
                            seqs: vec![0; procs],
                        },
                        (RealMode::Udp { .. }, Sockets::Tcp(_)) => unreachable!(),
                    };
                    let cycles_per_micro = cfg.cycles_per_micro;
                    let f = &f;
                    let results = &results;
                    let reports = &reports;
                    s.spawn(move || {
                        let mut t = RealTransport {
                            me: id,
                            procs,
                            cycles_per_micro,
                            hub,
                            links,
                            timers: std::collections::BinaryHeap::new(),
                            timer_seq: 0,
                            charged: [0; CATEGORY_COUNT],
                            msgs_sent: 0,
                            bytes_sent: 0,
                            msgs_received: 0,
                            fault_stats: FaultStats::default(),
                            scratch: Vec::new(),
                            busy_marked: false,
                            idle_marked: false,
                        };
                        let outcome = catch_unwind(AssertUnwindSafe(|| block_on(f(&mut t))));
                        // FINISHED before the transport (and its sockets)
                        // drops, so peer readers treat the EOF as expected.
                        t.hub.status[id].store(status::FINISHED, SeqCst);
                        match outcome {
                            Ok(val) => {
                                lock_vec(reports)[id] = Some(t.report());
                                lock_vec(results)[id] = Some(val);
                            }
                            Err(payload) => {
                                if payload.downcast_ref::<RealAbort>().is_none() {
                                    t.hub.fail_soft(RealPoison::Panic {
                                        proc: id,
                                        message: panic_message(&*payload),
                                    });
                                }
                            }
                        }
                    })
                })
                .collect();

            // Watchdog.
            if let Some(deadline) = cfg.watchdog {
                let hub = Arc::clone(&hub);
                s.spawn(move || watchdog(hub, deadline));
            }

            for h in handles {
                let _ = h.join();
            }
            hub.done.store(true, SeqCst);

            // Wake the inbound plumbing so the scope can close: a dummy
            // hello (TCP) or datagram (UDP) tagged u32::MAX per endpoint.
            // Reader threads on dialed streams have already seen EOF (the
            // processor transports just dropped their write sockets).
            use std::io::Write;
            let wake = u32::MAX.to_le_bytes();
            match &sockets {
                Sockets::Tcp(_) => {
                    for addr in addrs.iter() {
                        if let Ok(mut s) = TcpStream::connect(addr) {
                            let _ = s.write_all(&wake);
                        }
                    }
                }
                Sockets::Udp(_) => {
                    if let Ok(s) = UdpSocket::bind("127.0.0.1:0") {
                        for addr in addrs.iter() {
                            let _ = s.send_to(&wake, addr);
                        }
                    }
                }
            }
        });

        if let Some(poison) = hub.take_poison() {
            return Err(poison.into());
        }
        let results: Vec<R> = into_vec(results)
            .into_iter()
            .map(|r| r.expect("every processor finished"))
            .collect();
        let reports: Vec<ProcReport> = into_vec(reports)
            .into_iter()
            .map(|r| r.expect("every processor reported"))
            .collect();
        let finish_time = reports
            .iter()
            .map(|r| r.final_time)
            .max()
            .unwrap_or(VirtualTime::ZERO);
        Ok(RealOutcome {
            results,
            reports,
            finish_time,
            messages_delivered: hub.delivered.load(SeqCst),
        })
    }
}

/// TCP accept loop for processor `owner`: every inbound stream opens with
/// a 4-byte hello naming the dialing processor, then carries that pair's
/// frames for the rest of the run.
fn accept_loop<'scope, M: Wire + Send + 'static>(
    s: &'scope std::thread::Scope<'scope, '_>,
    hub: Arc<Hub<M>>,
    listener: TcpListener,
    owner: usize,
) {
    use std::io::Read;
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let mut hello = [0u8; 4];
                if stream.read_exact(&mut hello).is_err() {
                    continue;
                }
                let src = u32::from_le_bytes(hello);
                if src == u32::MAX {
                    // Shutdown wake-up from the end of the run.
                    if hub.done.load(SeqCst) || hub.is_poisoned() {
                        return;
                    }
                    continue;
                }
                let src = src as usize;
                if src >= hub.procs {
                    hub.fail_soft(RealPoison::Io {
                        proc: owner,
                        message: format!("hello from out-of-range processor {src}"),
                    });
                    return;
                }
                let hub = Arc::clone(&hub);
                s.spawn(move || tcp_reader(hub, stream, src, owner));
            }
            Err(e) => {
                if !hub.done.load(SeqCst) && !hub.is_poisoned() {
                    hub.fail_soft(RealPoison::Io {
                        proc: owner,
                        message: format!("accept failed: {e}"),
                    });
                }
                return;
            }
        }
    }
}

/// Decodes `[u32 len][payload]` frames from one inbound TCP stream and
/// pushes them into `owner`'s inbox.
fn tcp_reader<M: Wire + Send>(hub: Arc<Hub<M>>, mut stream: TcpStream, src: usize, owner: usize) {
    use std::io::Read;
    let mut lenbuf = [0u8; 4];
    loop {
        if stream.read_exact(&mut lenbuf).is_err() {
            // EOF is the normal end of a stream: the peer finished and
            // dropped its write socket. Anything else is a failure.
            let expected = hub.status[src].load(SeqCst) == status::FINISHED
                || hub.done.load(SeqCst)
                || hub.quiesced()
                || hub.is_poisoned();
            if !expected {
                hub.fail_soft(RealPoison::Io {
                    proc: owner,
                    message: format!("stream from proc {src} closed mid-run"),
                });
            }
            return;
        }
        let len = u32::from_le_bytes(lenbuf) as usize;
        if len > MAX_TCP_FRAME {
            hub.fail_soft(RealPoison::Io {
                proc: owner,
                message: format!("frame of {len} bytes from proc {src} exceeds the frame cap"),
            });
            return;
        }
        let mut payload = vec![0u8; len];
        if stream.read_exact(&mut payload).is_err() {
            hub.fail_soft(RealPoison::Io {
                proc: owner,
                message: format!("truncated frame from proc {src}"),
            });
            return;
        }
        match decode_exact::<M>(&payload) {
            Ok(msg) => hub.push(owner, src, msg),
            Err(e) => {
                hub.fail_soft(RealPoison::Io {
                    proc: owner,
                    message: format!("bad frame from proc {src}: {e}"),
                });
                return;
            }
        }
    }
}

/// Decodes `[u32 src][payload]` datagrams from `owner`'s UDP socket and
/// pushes them into its inbox. Malformed datagrams are dropped silently —
/// on a lossy link they are indistinguishable from loss, and the reliable
/// channel above recovers either way.
fn udp_reader<M: Wire + Send>(hub: Arc<Hub<M>>, sock: UdpSocket, owner: usize) {
    let mut buf = vec![0u8; 65_536];
    loop {
        match sock.recv_from(&mut buf) {
            Ok((n, _)) => {
                if n < 4 {
                    continue;
                }
                let src = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
                if src == u32::MAX {
                    // Shutdown wake-up from the end of the run.
                    if hub.done.load(SeqCst) || hub.is_poisoned() {
                        return;
                    }
                    continue;
                }
                let src = src as usize;
                if src >= hub.procs {
                    continue;
                }
                if let Ok(msg) = decode_exact::<M>(&buf[4..n]) {
                    hub.push(owner, src, msg);
                }
            }
            Err(e) => {
                if !hub.done.load(SeqCst) && !hub.is_poisoned() {
                    hub.fail_soft(RealPoison::Io {
                        proc: owner,
                        message: format!("udp recv: {e}"),
                    });
                }
                return;
            }
        }
    }
}

/// Aborts the run with per-processor state dumps if the wall-clock
/// deadline passes. Exits quietly once the run finishes, quiesces, or is
/// already poisoned. Note the limit shared with the simulator: a closure
/// spinning in pure compute without touching the transport can only be
/// observed, not interrupted — the dump will show it stuck in `app`.
fn watchdog<M: Send>(hub: Arc<Hub<M>>, deadline: Duration) {
    loop {
        if hub.done.load(SeqCst) || hub.is_poisoned() || hub.quiesced() {
            return;
        }
        if hub.start.elapsed() >= deadline {
            hub.fail_soft(RealPoison::Watchdog {
                secs: deadline.as_secs(),
                dumps: hub.dump(),
            });
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

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
