//! Sharded KV/object store: the service family's read-mostly workload.
//!
//! Clients issue get/put operations against a keyed value store. Keys are
//! drawn Zipfian — a small hot set absorbs most traffic, as in production
//! caches — and each key's value lives under its shard's
//! entry-consistency lock: puts take the lock exclusively, gets take it
//! shared, so the DSM ships exactly the shard's data on the lock chain.
//!
//! Every value is self-describing: a put of key `k` bumps the key's
//! version `v` and stores `mix64(k, v ^ w)` in payload word `w`. Readers
//! (and the final verifier) can therefore check any value against the
//! version that names it without knowing which processor wrote it — the
//! store's final logical content depends only on per-key write *counts*,
//! which the seeded operation streams fix, not on lock arbitration order.

use std::sync::Arc;

use midway_core::{
    BarrierId, LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RealError,
    SharedArray, SystemBuilder, SystemSpec, Transport,
};

use crate::service::{mix64, shard_of, shard_range, ServiceParams, Zipf};

/// Cycles charged per put beyond the instrumented writes.
pub const CYCLES_PER_PUT: u64 = 800;
/// Cycles charged per get beyond the instrumented reads.
pub const CYCLES_PER_GET: u64 = 300;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Client count, skew, op mix, think time, seed.
    pub svc: ServiceParams,
    /// Distinct keys.
    pub keys: usize,
    /// Shards (one lock each).
    pub shards: usize,
    /// Payload words per value.
    pub vwords: usize,
}

impl Params {
    /// A production-shaped configuration.
    pub fn paper() -> Params {
        Params {
            svc: ServiceParams::paper(),
            keys: 4096,
            shards: 32,
            vwords: 4,
        }
    }

    /// A tiny configuration for tests.
    pub fn small() -> Params {
        Params {
            svc: ServiceParams::small(),
            keys: 64,
            shards: 4,
            vwords: 2,
        }
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Puts this processor committed.
    pub puts: u64,
    /// Gets this processor served.
    pub gets: u64,
    /// Whether every get observed a value consistent with its version.
    pub reads_consistent: bool,
    /// Global verification verdict (computed by processor 0).
    pub store_ok: Option<bool>,
}

struct Handles {
    /// Per-key version counters.
    vers: SharedArray<u64>,
    /// Per-key payload words (`vwords` each).
    vals: SharedArray<u64>,
    /// Per-processor `[puts, gets]` tallies.
    stats: SharedArray<u64>,
    shard_locks: Vec<LockId>,
    done: BarrierId,
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let mut b = SystemBuilder::new();
    let vers = b.shared_array::<u64>("vers", p.keys, 1);
    let vals = b.shared_array::<u64>("vals", p.keys * p.vwords, 1);
    let stats = b.shared_array::<u64>("stats", procs * 2, 1);
    let shard_locks = (0..p.shards)
        .map(|s| {
            let r = shard_range(s, p.keys, p.shards);
            b.lock(vec![
                vers.range(r.clone()),
                vals.range(r.start * p.vwords..r.end * p.vwords),
            ])
        })
        .collect();
    let done = b.barrier_partitioned(
        vec![stats.full_range()],
        (0..procs)
            .map(|q| vec![stats.range(q * 2..q * 2 + 2)])
            .collect(),
    );
    (
        b.build(),
        Handles {
            vers,
            vals,
            stats,
            shard_locks,
            done,
        },
    )
}

/// Runs the KV store under `cfg` and verifies the result.
///
/// # Panics
///
/// Panics if the simulation fails (deadlock or processor panic).
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, async |proc| session(proc, p, &h).await)
        .expect("kvstore simulation failed")
}

/// Runs the KV store over real sockets (`Midway::run_real`).
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RealError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, async |proc| session(proc, p, &h).await)
}

async fn session<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    p: Params,
    h: &Handles,
) -> Outcome {
    let me = proc.id();
    let mut rng = p.svc.proc_rng(me);
    let zipf = Zipf::new(p.keys, p.svc.skew);
    let think = p.svc.think_per_op();
    let mut puts = 0u64;
    let mut gets = 0u64;
    let mut consistent = true;

    // Round-robin over the processor's client sessions: each pass issues
    // one operation per client, so sessions interleave as they would
    // behind one server thread.
    for _pass in 0..p.svc.ops_per_client {
        for _client in 0..p.svc.clients {
            let key = zipf.sample(&mut rng);
            let shard = shard_of(key, p.keys, p.shards);
            if rng.next_below(100) < u64::from(p.svc.write_pct) {
                proc.acquire(h.shard_locks[shard]).await;
                let v = proc.read(&h.vers, key) + 1;
                proc.write(&h.vers, key, v);
                for w in 0..p.vwords {
                    proc.write(&h.vals, key * p.vwords + w, mix64(key as u64, v ^ w as u64));
                }
                proc.release(h.shard_locks[shard]);
                proc.work(CYCLES_PER_PUT);
                puts += 1;
            } else {
                proc.acquire_shared(h.shard_locks[shard]).await;
                let v = proc.read(&h.vers, key);
                for w in 0..p.vwords {
                    let got = proc.read(&h.vals, key * p.vwords + w);
                    let want = if v == 0 {
                        0
                    } else {
                        mix64(key as u64, v ^ w as u64)
                    };
                    consistent &= got == want;
                }
                proc.release_shared(h.shard_locks[shard]);
                proc.work(CYCLES_PER_GET);
                gets += 1;
            }
            proc.idle(think).await;
        }
    }

    proc.write(&h.stats, me * 2, puts);
    proc.write(&h.stats, me * 2 + 1, gets);
    proc.barrier(h.done).await;

    // Processor 0 audits the whole store against the published tallies.
    let store_ok = if me == 0 {
        Some(verify(proc, p, h).await)
    } else {
        None
    };
    Outcome {
        puts,
        gets,
        reads_consistent: consistent,
        store_ok,
    }
}

/// Processor 0's global audit: the sum of per-key versions must equal the
/// cluster-wide put count, and every value must match its version.
async fn verify<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    p: Params,
    h: &Handles,
) -> bool {
    let mut total_puts = 0u64;
    for q in 0..proc.procs() {
        total_puts += proc.read(&h.stats, q * 2);
    }
    let mut vsum = 0u64;
    let mut values_ok = true;
    for s in 0..p.shards {
        proc.acquire_shared(h.shard_locks[s]).await;
        for key in shard_range(s, p.keys, p.shards) {
            let v = proc.read(&h.vers, key);
            vsum += v;
            for w in 0..p.vwords {
                let got = proc.read(&h.vals, key * p.vwords + w);
                let want = if v == 0 {
                    0
                } else {
                    mix64(key as u64, v ^ w as u64)
                };
                values_ok &= got == want;
            }
        }
        proc.release_shared(h.shard_locks[s]);
    }
    values_ok && vsum == total_puts
}

/// Whether an outcome set passes verification.
pub fn verified(outcomes: &[Outcome]) -> bool {
    outcomes[0].store_ok == Some(true) && outcomes.iter().all(|o| o.reads_consistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn serves_and_verifies_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(3, backend), Params::small());
            assert!(verified(&run.results), "{backend:?}: {:?}", run.results);
            let puts: u64 = run.results.iter().map(|o| o.puts).sum();
            let gets: u64 = run.results.iter().map(|o| o.gets).sum();
            assert_eq!(puts + gets, (3 * Params::small().svc.ops_per_proc()) as u64);
        }
    }

    #[test]
    fn standalone_serves_the_same_streams() {
        let run = run(MidwayConfig::standalone(), Params::small());
        assert!(verified(&run.results));
        // No data moves standalone; the only "messages" are the think-time
        // timer ticks, one per client op.
        assert_eq!(run.messages, Params::small().svc.ops_per_proc() as u64);
    }

    #[test]
    fn hot_keys_draw_contended_lock_traffic() {
        // With web-like skew the hot shard's lock transfers dominate: the
        // run must actually move data on the lock chain, not just spin.
        let run = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        let transfers: u64 = run.counters.iter().map(|c| c.lock_transfers_served).sum();
        assert!(transfers > 0, "no lock transfers at all");
    }
}
