//! Per-processor event logs: what the hooks record during a run.
//!
//! The checker never shares state between simulated processors while the
//! run is in flight — each processor appends to its own [`CheckLog`], and
//! the happens-before analysis merges the logs *after* the run (see
//! [`crate::analyze`]). This is what keeps live checking deterministic:
//! on the real transport processor threads execute concurrently in real
//! time, so any shared checker state would observe a real-time-dependent
//! interleaving.

use midway_mem::AddrRange;

/// One logged event. `at` is the processor's virtual time in cycles when
/// the event was recorded; within one log, times are monotone.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckEvent {
    /// A shared-memory load of `len` bytes at `addr`.
    Read { at: u64, addr: u64, len: u32 },
    /// A shared-memory store of `len` bytes at `addr`.
    Write { at: u64, addr: u64, len: u32 },
    /// A lock acquisition completed (logged once the grant arrived).
    Acquire { at: u64, lock: u32, exclusive: bool },
    /// A lock release was issued.
    Release { at: u64, lock: u32, exclusive: bool },
    /// A held lock was rebound to `ranges`.
    Rebind {
        at: u64,
        lock: u32,
        ranges: Vec<AddrRange>,
    },
    /// The processor entered a barrier (before arriving at the manager).
    BarrierEnter { at: u64, barrier: u32 },
    /// The processor left a barrier (after the release arrived).
    BarrierExit { at: u64, barrier: u32 },
    /// The transfer-apply path installed `bytes` bytes of update data
    /// (a lock grant's payload or a barrier release set).
    Apply { at: u64, bytes: u64 },
}

impl CheckEvent {
    /// The event's virtual time.
    pub fn at(&self) -> u64 {
        match self {
            CheckEvent::Read { at, .. }
            | CheckEvent::Write { at, .. }
            | CheckEvent::Acquire { at, .. }
            | CheckEvent::Release { at, .. }
            | CheckEvent::Rebind { at, .. }
            | CheckEvent::BarrierEnter { at, .. }
            | CheckEvent::BarrierExit { at, .. }
            | CheckEvent::Apply { at, .. } => *at,
        }
    }
}

/// One processor's append-only event log.
///
/// Adjacent reads (and adjacent writes) to contiguous or repeated
/// addresses coalesce into one ranged event, so tight loops over an array
/// cost one log entry instead of one per element. Coalescing never
/// crosses a synchronization event, so it cannot change the
/// happens-before relation — only the `at` provenance of the later
/// accesses in a run, which keeps the time of the run's first access.
#[derive(Debug, Default)]
pub struct CheckLog {
    events: Vec<CheckEvent>,
}

impl CheckLog {
    /// An empty log.
    pub fn new() -> CheckLog {
        CheckLog::default()
    }

    /// The recorded events, in program order.
    pub fn events(&self) -> &[CheckEvent] {
        &self.events
    }

    /// Consumes the log.
    pub fn into_events(self) -> Vec<CheckEvent> {
        self.events
    }

    /// Logs a read, coalescing with an immediately preceding adjacent or
    /// overlapping read.
    pub fn read(&mut self, at: u64, addr: u64, len: u32) {
        if let Some(CheckEvent::Read {
            addr: a, len: l, ..
        }) = self.events.last_mut()
        {
            if Self::merge(a, l, addr, len) {
                return;
            }
        }
        self.events.push(CheckEvent::Read { at, addr, len });
    }

    /// Logs a write, coalescing like [`CheckLog::read`].
    pub fn write(&mut self, at: u64, addr: u64, len: u32) {
        if let Some(CheckEvent::Write {
            addr: a, len: l, ..
        }) = self.events.last_mut()
        {
            if Self::merge(a, l, addr, len) {
                return;
            }
        }
        self.events.push(CheckEvent::Write { at, addr, len });
    }

    /// Tries to grow the previous access `(*a, *l)` to absorb the new one:
    /// forward-adjacent, backward-adjacent, or fully contained.
    fn merge(a: &mut u64, l: &mut u32, addr: u64, len: u32) -> bool {
        let end = *a + u64::from(*l);
        let new_end = addr + u64::from(len);
        if addr >= *a && new_end <= end {
            return true; // contained: a re-read of the same spot
        }
        if addr == end && u64::from(*l) + u64::from(len) <= u64::from(u32::MAX) {
            *l += len;
            return true;
        }
        if new_end == *a && u64::from(*l) + u64::from(len) <= u64::from(u32::MAX) {
            *a = addr;
            *l += len;
            return true;
        }
        false
    }

    /// Logs a completed lock acquisition.
    pub fn acquire(&mut self, at: u64, lock: u32, exclusive: bool) {
        self.events.push(CheckEvent::Acquire {
            at,
            lock,
            exclusive,
        });
    }

    /// Logs a lock release.
    pub fn release(&mut self, at: u64, lock: u32, exclusive: bool) {
        self.events.push(CheckEvent::Release {
            at,
            lock,
            exclusive,
        });
    }

    /// Logs a rebind of a held lock.
    pub fn rebind(&mut self, at: u64, lock: u32, ranges: Vec<AddrRange>) {
        self.events.push(CheckEvent::Rebind { at, lock, ranges });
    }

    /// Logs a barrier entry.
    pub fn barrier_enter(&mut self, at: u64, barrier: u32) {
        self.events.push(CheckEvent::BarrierEnter { at, barrier });
    }

    /// Logs a barrier exit.
    pub fn barrier_exit(&mut self, at: u64, barrier: u32) {
        self.events.push(CheckEvent::BarrierExit { at, barrier });
    }

    /// Logs a transfer application.
    pub fn apply(&mut self, at: u64, bytes: u64) {
        self.events.push(CheckEvent::Apply { at, bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_reads_coalesce_both_directions() {
        let mut log = CheckLog::new();
        log.read(10, 100, 4);
        log.read(11, 104, 4); // forward
        log.read(12, 96, 4); // backward
        log.read(13, 100, 4); // contained
        assert_eq!(
            log.events(),
            &[CheckEvent::Read {
                at: 10,
                addr: 96,
                len: 12
            }]
        );
    }

    #[test]
    fn sync_events_stop_coalescing() {
        let mut log = CheckLog::new();
        log.write(1, 0, 8);
        log.release(2, 0, true);
        log.write(3, 8, 8);
        assert_eq!(log.events().len(), 3);
    }

    #[test]
    fn disjoint_accesses_stay_separate() {
        let mut log = CheckLog::new();
        log.read(1, 0, 4);
        log.read(2, 100, 4);
        log.write(3, 0, 4); // a write never merges into a read
        assert_eq!(log.events().len(), 3);
    }
}
