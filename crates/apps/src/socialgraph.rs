//! Social-graph updates: posts, follows and timeline reads (the service
//! family's graph-mutation workload, after DRust's evaluation set).
//!
//! The graph is `nodes` profiles, each with a post counter, a payload
//! (the latest post, `payload_words` wide) and an adjacency list of up to
//! `max_degree` followers. Nodes are sharded; a shard's lock binds the
//! counters, payloads, degrees and adjacency rows of its node range.
//!
//! Clients issue three operation kinds, with targets drawn Zipfian so a
//! few celebrity nodes absorb most of the traffic:
//!
//! * **post** (mutating) — bump the node's post counter `c` and write
//!   payload word `w := mix64(node, c ^ w)`, under the shard lock.
//! * **follow** (mutating) — append a follower edge to the node's
//!   adjacency list, or count a skip when the list is full.
//! * **timeline** (read) — read the node's counter, payload and newest
//!   edge under the shard lock in shared mode, checking the payload
//!   against the counter.
//!
//! Adjacency *placement* depends on arbitration order (which follow wins
//! slot `d`), but the audited invariants do not: post counters sum to the
//! cluster-wide post count, degrees plus skips sum to the follow count,
//! every payload matches its counter, and every edge names a real node.

use std::sync::Arc;

use midway_core::{
    BarrierId, LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RealError,
    SharedArray, SystemBuilder, SystemSpec, Transport,
};

use crate::service::{mix64, shard_of, shard_range, ServiceParams, Zipf};

/// Cycles charged per mutating operation beyond the instrumented writes.
pub const CYCLES_PER_UPDATE: u64 = 700;
/// Cycles charged per timeline read beyond the instrumented reads.
pub const CYCLES_PER_TIMELINE: u64 = 350;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Client count, skew, op mix, think time, seed.
    pub svc: ServiceParams,
    /// Profiles in the graph.
    pub nodes: usize,
    /// Shards (one lock each).
    pub shards: usize,
    /// Adjacency capacity per node.
    pub max_degree: usize,
    /// Payload words per node.
    pub payload_words: usize,
}

impl Params {
    /// A production-shaped configuration.
    pub fn paper() -> Params {
        Params {
            svc: ServiceParams::paper(),
            nodes: 2048,
            shards: 32,
            max_degree: 24,
            payload_words: 3,
        }
    }

    /// A tiny configuration for tests.
    pub fn small() -> Params {
        Params {
            svc: ServiceParams::small(),
            nodes: 48,
            shards: 4,
            max_degree: 6,
            payload_words: 2,
        }
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Posts this processor published.
    pub posts: u64,
    /// Follow edges this processor added (capacity skips excluded).
    pub follows: u64,
    /// Follows dropped because the target list was full.
    pub skips: u64,
    /// Timeline reads served.
    pub timelines: u64,
    /// Whether every timeline observed payload consistent with the
    /// node's post counter.
    pub reads_consistent: bool,
    /// Global verification verdict (computed by processor 0).
    pub graph_ok: Option<bool>,
}

struct Handles {
    /// Per-node post counters.
    posts: SharedArray<u64>,
    /// Per-node payload words.
    payload: SharedArray<u64>,
    /// Per-node follower counts.
    degree: SharedArray<u64>,
    /// Per-node adjacency rows (`max_degree` each).
    adj: SharedArray<u64>,
    /// Per-processor `[posts, follows, skips, timelines]` tallies.
    stats: SharedArray<u64>,
    shard_locks: Vec<LockId>,
    done: BarrierId,
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let mut b = SystemBuilder::new();
    let posts = b.shared_array::<u64>("posts", p.nodes, 1);
    let payload = b.shared_array::<u64>("payload", p.nodes * p.payload_words, 1);
    let degree = b.shared_array::<u64>("degree", p.nodes, 1);
    let adj = b.shared_array::<u64>("adj", p.nodes * p.max_degree, 1);
    let stats = b.shared_array::<u64>("stats", procs * 4, 1);
    let shard_locks = (0..p.shards)
        .map(|s| {
            let r = shard_range(s, p.nodes, p.shards);
            b.lock(vec![
                posts.range(r.clone()),
                payload.range(r.start * p.payload_words..r.end * p.payload_words),
                degree.range(r.clone()),
                adj.range(r.start * p.max_degree..r.end * p.max_degree),
            ])
        })
        .collect();
    let done = b.barrier_partitioned(
        vec![stats.full_range()],
        (0..procs)
            .map(|q| vec![stats.range(q * 4..q * 4 + 4)])
            .collect(),
    );
    (
        b.build(),
        Handles {
            posts,
            payload,
            degree,
            adj,
            stats,
            shard_locks,
            done,
        },
    )
}

/// Runs the social-graph workload under `cfg` and verifies the result.
///
/// # Panics
///
/// Panics if the simulation fails (deadlock or processor panic).
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, async |proc| session(proc, p, &h).await)
        .expect("socialgraph simulation failed")
}

/// Runs the social-graph workload over real sockets (`Midway::run_real`).
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
    let zipf = Zipf::new(p.nodes, p.svc.skew);
    let think = p.svc.think_per_op();
    let mut out = Outcome {
        posts: 0,
        follows: 0,
        skips: 0,
        timelines: 0,
        reads_consistent: true,
        graph_ok: None,
    };

    for _pass in 0..p.svc.ops_per_client {
        for _client in 0..p.svc.clients {
            let node = zipf.sample(&mut rng);
            let shard = shard_of(node, p.nodes, p.shards);
            if rng.next_below(100) < u64::from(p.svc.write_pct) {
                if rng.next_below(2) == 0 {
                    // Post: new payload under the node's shard lock.
                    proc.acquire(h.shard_locks[shard]).await;
                    let c = proc.read(&h.posts, node) + 1;
                    proc.write(&h.posts, node, c);
                    for w in 0..p.payload_words {
                        proc.write(
                            &h.payload,
                            node * p.payload_words + w,
                            mix64(node as u64, c ^ w as u64),
                        );
                    }
                    proc.release(h.shard_locks[shard]);
                    out.posts += 1;
                } else {
                    // Follow: the sampled celebrity gains a follower.
                    let follower = rng.next_below(p.nodes as u64);
                    proc.acquire(h.shard_locks[shard]).await;
                    let d = proc.read(&h.degree, node);
                    if (d as usize) < p.max_degree {
                        proc.write(&h.adj, node * p.max_degree + d as usize, follower);
                        proc.write(&h.degree, node, d + 1);
                        out.follows += 1;
                    } else {
                        out.skips += 1;
                    }
                    proc.release(h.shard_locks[shard]);
                }
                proc.work(CYCLES_PER_UPDATE);
            } else {
                // Timeline: read the node's profile in shared mode.
                proc.acquire_shared(h.shard_locks[shard]).await;
                let c = proc.read(&h.posts, node);
                for w in 0..p.payload_words {
                    let got = proc.read(&h.payload, node * p.payload_words + w);
                    let want = if c == 0 {
                        0
                    } else {
                        mix64(node as u64, c ^ w as u64)
                    };
                    out.reads_consistent &= got == want;
                }
                let d = proc.read(&h.degree, node);
                if d > 0 {
                    let newest = proc.read(&h.adj, node * p.max_degree + d as usize - 1);
                    out.reads_consistent &= (newest as usize) < p.nodes;
                }
                proc.release_shared(h.shard_locks[shard]);
                proc.work(CYCLES_PER_TIMELINE);
                out.timelines += 1;
            }
            proc.idle(think).await;
        }
    }

    proc.write(&h.stats, me * 4, out.posts);
    proc.write(&h.stats, me * 4 + 1, out.follows);
    proc.write(&h.stats, me * 4 + 2, out.skips);
    proc.write(&h.stats, me * 4 + 3, out.timelines);
    proc.barrier(h.done).await;

    out.graph_ok = if me == 0 {
        Some(verify(proc, p, h).await)
    } else {
        None
    };
    out
}

/// Processor 0's global audit of the graph against the published tallies.
async fn verify<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    p: Params,
    h: &Handles,
) -> bool {
    let mut total_posts = 0u64;
    let mut total_follows = 0u64;
    for q in 0..proc.procs() {
        total_posts += proc.read(&h.stats, q * 4);
        total_follows += proc.read(&h.stats, q * 4 + 1);
    }
    let mut post_sum = 0u64;
    let mut degree_sum = 0u64;
    let mut ok = true;
    for s in 0..p.shards {
        proc.acquire_shared(h.shard_locks[s]).await;
        for node in shard_range(s, p.nodes, p.shards) {
            let c = proc.read(&h.posts, node);
            post_sum += c;
            for w in 0..p.payload_words {
                let got = proc.read(&h.payload, node * p.payload_words + w);
                let want = if c == 0 {
                    0
                } else {
                    mix64(node as u64, c ^ w as u64)
                };
                ok &= got == want;
            }
            let d = proc.read(&h.degree, node);
            ok &= d as usize <= p.max_degree;
            degree_sum += d;
            for e in 0..d as usize {
                ok &= (proc.read(&h.adj, node * p.max_degree + e) as usize) < p.nodes;
            }
        }
        proc.release_shared(h.shard_locks[s]);
    }
    ok && post_sum == total_posts && degree_sum == total_follows
}

/// Whether an outcome set passes verification.
pub fn verified(outcomes: &[Outcome]) -> bool {
    outcomes[0].graph_ok == Some(true) && outcomes.iter().all(|o| o.reads_consistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn updates_and_verifies_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(3, backend), Params::small());
            assert!(verified(&run.results), "{backend:?}: {:?}", run.results);
        }
    }

    #[test]
    fn celebrities_fill_up_and_skips_are_accounted() {
        // Web-like skew on a small graph must exhaust at least one
        // adjacency list, exercising the skip path.
        let mut p = Params::small();
        p.svc.write_pct = 80;
        p.svc.ops_per_client = 60;
        let run = run(MidwayConfig::new(4, BackendKind::Rt), p);
        assert!(verified(&run.results), "{:?}", run.results);
        let skips: u64 = run.results.iter().map(|o| o.skips).sum();
        assert!(skips > 0, "no adjacency list ever filled");
    }

    #[test]
    fn standalone_runs_the_same_streams() {
        let run = run(MidwayConfig::standalone(), Params::small());
        assert!(verified(&run.results));
        // No data moves standalone; the only "messages" are the think-time
        // timer ticks, one per client op.
        assert_eq!(run.messages, Params::small().svc.ops_per_proc() as u64);
    }
}
