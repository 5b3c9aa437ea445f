//! The application-facing per-processor API.

use midway_check::CheckLog;
use midway_mem::{Addr, AddrRange};
use midway_net::Transport;
use midway_proto::{BarrierId, LockId, Mode};
use midway_sim::{ProcHandle, VirtualTime};

use crate::msg::NetMsg;
use crate::node::DsmNode;
use crate::setup::{Scalar, SharedArray};
use crate::trace::{push_op, TraceOp};

/// One processor's view of the DSM: typed shared-memory access plus entry
/// consistency synchronization.
///
/// Reads are local (Midway is update-based: "read latency is decreased to
/// local memory latency... since there are no read misses"); writes run
/// the configured write-trapping path. Synchronization calls are where
/// consistency — and write collection — happens.
///
/// When the run was configured with [`record`](crate::MidwayConfig::record),
/// every shared store, synchronization operation and compute charge is
/// appended to this processor's trace; reads are local and free and are
/// never recorded.
///
/// `Proc` is generic over the [`Transport`] carrying its messages; the
/// default is the virtual-time simulator's handle, so `Proc<'_>` in
/// existing code means what it always did. A `Proc<'_, RealTransport<_>>`
/// is the same runtime on OS threads and sockets
/// ([`Midway::run_real`](crate::Midway::run_real)).
pub struct Proc<'a, T: Transport<Msg = NetMsg> = ProcHandle<NetMsg>> {
    pub(crate) node: DsmNode,
    pub(crate) h: &'a mut T,
    pub(crate) rec: Option<Vec<TraceOp>>,
}

impl<T: Transport<Msg = NetMsg>> Proc<'_, T> {
    /// Runs `f` against the checker log (when checking is on) with this
    /// processor's current virtual time. Strictly off-clock: nothing here
    /// touches the simulator's accounting.
    #[inline]
    fn check_with(&mut self, f: impl FnOnce(&mut CheckLog, u64)) {
        if let Some(log) = &mut self.node.check {
            f(log, self.h.now().cycles());
        }
    }

    #[inline]
    fn record_with(&mut self, op: impl FnOnce() -> TraceOp) {
        if let Some(rec) = &mut self.rec {
            push_op(rec, op());
        }
    }

    /// Records one write trap of `len` bytes at `addr`, reading the bytes
    /// it left in memory back out of the local store.
    fn record_write(&mut self, addr: Addr, len: usize) {
        if self.rec.is_none() {
            return;
        }
        let data = self.node.store.bytes(addr, len).to_vec();
        if let Some(rec) = &mut self.rec {
            push_op(
                rec,
                TraceOp::Write {
                    addr: addr.raw(),
                    data,
                },
            );
        }
    }

    /// This processor's id.
    pub fn id(&self) -> usize {
        self.h.id()
    }

    /// Number of processors in the cluster.
    pub fn procs(&self) -> usize {
        self.h.procs()
    }

    /// This processor's current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.h.now()
    }

    /// Charges `cycles` of application compute time.
    pub fn work(&mut self, cycles: u64) {
        self.h.work(cycles);
        self.record_with(|| TraceOp::Work { cycles });
    }

    /// Waits `cycles` of virtual time while the runtime keeps serving
    /// protocol requests. Use this — never a compute-only spin — to back
    /// off in polling loops, so other processors can make progress.
    pub async fn idle(&mut self, cycles: u64) {
        self.node.idle(self.h, cycles).await;
        self.record_with(|| TraceOp::Idle { cycles });
    }

    /// Reads element `i` of `a` from the local cache.
    pub fn read<S: Scalar>(&mut self, a: &SharedArray<S>, i: usize) -> S {
        let addr = a.addr(i);
        self.check_with(|log, at| log.read(at, addr.raw(), S::SIZE as u32));
        S::load(&mut self.node.store, addr)
    }

    /// Writes element `i` of `a`, running write detection first.
    pub fn write<S: Scalar>(&mut self, a: &SharedArray<S>, i: usize, v: S) {
        let addr = a.addr(i);
        self.check_with(|log, at| log.write(at, addr.raw(), S::SIZE as u32));
        self.node.trap_write(self.h, addr, S::SIZE);
        S::store_to(&mut self.node.store, addr, v);
        self.node.wal_write(self.h, addr, S::SIZE);
        self.record_write(addr, S::SIZE);
    }

    /// Writes a run of elements starting at `start` (an "area" store: one
    /// template invocation covering all the lines, like a structure
    /// assignment or `bcopy` in the paper).
    pub fn write_slice<S: Scalar>(&mut self, a: &SharedArray<S>, start: usize, values: &[S]) {
        if values.is_empty() {
            return;
        }
        if start + values.len() > a.len() {
            self.h.app_violation(format!(
                "slice write out of bounds: elements {start}..{} of array of length {}",
                start + values.len(),
                a.len()
            ));
        }
        let addr = a.addr(start);
        let len = values.len() * S::SIZE;
        self.check_with(|log, at| log.write(at, addr.raw(), len as u32));
        self.node.trap_write(self.h, addr, len);
        for (k, v) in values.iter().enumerate() {
            S::store_to(&mut self.node.store, a.addr(start + k), *v);
        }
        self.node.wal_write(self.h, addr, len);
        self.record_write(addr, len);
    }

    /// Performs one write trap covering `data.len()` bytes at `addr` and
    /// stores the bytes verbatim. This is the replay path for recorded
    /// [`TraceOp::Write`] operations; applications use the typed writes.
    pub fn write_raw(&mut self, addr: Addr, data: &[u8]) {
        self.check_with(|log, at| log.write(at, addr.raw(), data.len() as u32));
        self.node.trap_write(self.h, addr, data.len());
        self.node.store.write_bytes(addr, data);
        self.node.wal_write(self.h, addr, data.len());
        self.record_write(addr, data.len());
    }

    /// Reads elements `range` into a vector.
    pub fn read_vec<S: Scalar>(
        &mut self,
        a: &SharedArray<S>,
        range: std::ops::Range<usize>,
    ) -> Vec<S> {
        range.map(|i| self.read(a, i)).collect()
    }

    /// Acquires `lock` exclusively (for writing).
    pub async fn acquire(&mut self, lock: LockId) {
        self.node.acquire(self.h, lock, Mode::Exclusive).await;
        self.check_with(|log, at| log.acquire(at, lock.0, true));
        self.record_with(|| TraceOp::Acquire {
            lock: lock.0,
            exclusive: true,
        });
    }

    /// Acquires `lock` in non-exclusive mode (for reading).
    pub async fn acquire_shared(&mut self, lock: LockId) {
        self.node.acquire(self.h, lock, Mode::Shared).await;
        self.check_with(|log, at| log.acquire(at, lock.0, false));
        self.record_with(|| TraceOp::Acquire {
            lock: lock.0,
            exclusive: false,
        });
    }

    /// Releases an exclusive hold of `lock`.
    pub fn release(&mut self, lock: LockId) {
        self.check_with(|log, at| log.release(at, lock.0, true));
        self.node.release(self.h, lock, Mode::Exclusive);
        self.record_with(|| TraceOp::Release {
            lock: lock.0,
            exclusive: true,
        });
    }

    /// Releases a non-exclusive hold of `lock`.
    pub fn release_shared(&mut self, lock: LockId) {
        self.check_with(|log, at| log.release(at, lock.0, false));
        self.node.release(self.h, lock, Mode::Shared);
        self.record_with(|| TraceOp::Release {
            lock: lock.0,
            exclusive: false,
        });
    }

    /// Rebinds `lock` to `ranges`; the caller must hold it exclusively.
    pub fn rebind(&mut self, lock: LockId, ranges: Vec<AddrRange>) {
        self.check_with(|log, at| log.rebind(at, lock.0, ranges.clone()));
        self.record_with(|| TraceOp::Rebind {
            lock: lock.0,
            ranges: ranges.clone(),
        });
        self.node.rebind(self.h, lock, ranges);
    }

    /// Crosses `barrier`, making its bound data consistent everywhere.
    pub async fn barrier(&mut self, barrier: BarrierId) {
        self.check_with(|log, at| log.barrier_enter(at, barrier.0));
        self.node.barrier(self.h, barrier).await;
        self.check_with(|log, at| log.barrier_exit(at, barrier.0));
        self.record_with(|| TraceOp::Barrier { barrier: barrier.0 });
    }

    /// Applies one recorded operation: the replay path. Replaying every
    /// operation of a recorded stream (in order, on the processor that
    /// recorded it) reproduces the original run without the application.
    pub async fn apply_op(&mut self, op: &TraceOp) {
        match op {
            TraceOp::Work { cycles } => self.work(*cycles),
            TraceOp::Idle { cycles } => self.idle(*cycles).await,
            TraceOp::Write { addr, data } => self.write_raw(Addr(*addr), data),
            TraceOp::Acquire {
                lock,
                exclusive: true,
            } => self.acquire(LockId(*lock)).await,
            TraceOp::Acquire {
                lock,
                exclusive: false,
            } => self.acquire_shared(LockId(*lock)).await,
            TraceOp::Release {
                lock,
                exclusive: true,
            } => self.release(LockId(*lock)),
            TraceOp::Release {
                lock,
                exclusive: false,
            } => self.release_shared(LockId(*lock)),
            TraceOp::Rebind { lock, ranges } => self.rebind(LockId(*lock), ranges.clone()),
            TraceOp::Barrier { barrier } => self.barrier(BarrierId(*barrier)).await,
        }
    }

    /// The ranges this processor currently knows to be bound to `lock`
    /// (bindings travel with grants, so hold the lock for a fresh answer).
    pub fn bound_ranges(&self, lock: LockId) -> Vec<AddrRange> {
        self.node.binding(lock).ranges().to_vec()
    }
}
