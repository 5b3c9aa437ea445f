//! The barrier path: collection on arrival, merging (flat manager or
//! combining tree), and application on release.
//!
//! Two coordination shapes share this module (see
//! [`BarrierShape`](crate::BarrierShape)):
//!
//! * **Flat** — every processor ships its updates to the manager, which
//!   merges P arrivals and sends each processor a personalized release
//!   (merged minus its own contribution). The historical protocol.
//! * **Tree** — processors form a combining tree rooted at the manager:
//!   subtree contributions merge upward, the fully merged set fans
//!   downward, and each node filters out its own contribution locally.
//!   No node handles more than `arity` barrier messages per episode.

use std::sync::Arc;

use midway_net::Transport;
use midway_proto::{BarrierId, TreeStep, UpdateSet};
use midway_sim::Category;

use crate::detect::DetectCx;
use crate::msg::{DsmMsg, NetMsg};

use super::{with_detector, BarrierCoord, DsmNode};

impl DsmNode {
    /// Crosses `barrier`: ships local modifications of the bound data,
    /// waits for everyone, applies everyone else's.
    pub async fn barrier<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, barrier: BarrierId) {
        let idx = barrier.0 as usize;
        self.clock.tick();
        let set = self.collect_barrier(h, idx);
        let time = self.clock.now();
        match self.sites[idx] {
            BarrierCoord::Flat(_) => {
                self.counters.data_bytes_sent += set.data_bytes();
                let mgr = self.cfg.home_map.barrier_manager(barrier, self.procs);
                if mgr == self.me {
                    self.handle_barrier_arrive(h, barrier, self.me, set, time);
                } else {
                    // Packet construction for the shipped data.
                    h.charge(
                        Category::Protocol,
                        self.cfg.cost.copy_cycles(set.data_bytes() as usize, true),
                    );
                    self.link
                        .send(h, mgr, DsmMsg::BarrierArrive { barrier, set, time });
                }
            }
            BarrierCoord::Tree(ref mut site) => {
                let step = match site.arrive_own(set) {
                    Ok(step) => step,
                    Err(e) => {
                        h.protocol_violation(format!("{barrier:?} at tree node {}: {e}", self.me))
                    }
                };
                self.tree_step(h, barrier, step);
            }
        }
        self.pump_until(h, |n| n.barriers[idx].released).await;
        self.barriers[idx].released = false;
        self.counters.barrier_waits += 1;
        // A completed barrier is a synchronization boundary and therefore
        // a checkpointing point.
        self.checkpoint_boundary(h);
    }

    fn collect_barrier<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, idx: usize) -> UpdateSet {
        // With a partitioned binding each processor scans only the ranges
        // it may have written — the discipline the paper's applications
        // follow ("only data at the edges of each partition are shared").
        let b = &self.barriers[idx];
        let partitioned = b.partition.is_some();
        let scan = b.partition.clone().unwrap_or_else(|| b.binding.clone());
        if scan.ranges().is_empty() {
            return UpdateSet::new();
        }
        let last_consist = b.last_consist;
        with_detector!(self, h, |det, cx| det.collect_barrier(
            &mut cx,
            &scan,
            last_consist,
            partitioned
        ))
    }

    pub(super) fn handle_barrier_arrive<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        from: usize,
        set: UpdateSet,
        time: u64,
    ) {
        self.clock.observe(time);
        match self.sites[barrier.0 as usize] {
            BarrierCoord::Flat(None) => h.protocol_violation(format!(
                "arrival at {barrier:?} from processor {from} routed to processor {}, \
                 which is not the barrier's manager",
                self.me
            )),
            BarrierCoord::Flat(Some(ref mut site)) => {
                let release = match site.arrive(from, set) {
                    Ok(release) => release,
                    Err(e) => {
                        h.protocol_violation(format!("{barrier:?} at manager {}: {e}", self.me))
                    }
                };
                if let Some(release) = release {
                    let now = self.clock.tick();
                    let mut own = UpdateSet::new();
                    for (q, set) in release.per_proc.into_iter().enumerate() {
                        if q == self.me {
                            own = set;
                        } else {
                            self.counters.data_bytes_sent += set.data_bytes();
                            h.charge(
                                Category::Protocol,
                                self.cfg.cost.copy_cycles(set.data_bytes() as usize, true),
                            );
                            let msg = DsmMsg::BarrierRelease {
                                barrier,
                                set: Arc::new(set),
                                time: now,
                            };
                            self.link.send(h, q, msg);
                        }
                    }
                    self.finish_barrier(h, barrier, &own, now);
                }
            }
            BarrierCoord::Tree(ref mut site) => {
                let step = match site.arrive_child(from, set) {
                    Ok(step) => step,
                    Err(e) => {
                        h.protocol_violation(format!("{barrier:?} at tree node {}: {e}", self.me))
                    }
                };
                self.tree_step(h, barrier, step);
            }
        }
    }

    /// Acts on a combining-tree site's instruction after an arrival.
    fn tree_step<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        step: TreeStep,
    ) {
        match step {
            TreeStep::Wait => {}
            TreeStep::SendUp { parent, set } => {
                self.counters.data_bytes_sent += set.data_bytes();
                h.charge(
                    Category::Protocol,
                    self.cfg.cost.copy_cycles(set.data_bytes() as usize, true),
                );
                let time = self.clock.now();
                self.link
                    .send(h, parent, DsmMsg::BarrierArrive { barrier, set, time });
            }
            TreeStep::Release { merged } => {
                // The root: the whole cluster has arrived; start the
                // fan-down with the fully merged set.
                let now = self.clock.tick();
                self.tree_fan_down(h, barrier, Arc::new(merged), now);
            }
        }
    }

    /// One hop of the release fan-down: advance this node's site, forward
    /// the merged set to its children, and apply the non-own subset.
    fn tree_fan_down<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        set: Arc<UpdateSet>,
        time: u64,
    ) {
        let BarrierCoord::Tree(ref mut site) = self.sites[barrier.0 as usize] else {
            h.protocol_violation(format!(
                "tree release for {barrier:?} reached processor {}, whose barrier is flat",
                self.me
            ));
        };
        let (children, local) = site.on_release(&set);
        for child in children {
            self.counters.data_bytes_sent += set.data_bytes();
            h.charge(
                Category::Protocol,
                self.cfg.cost.copy_cycles(set.data_bytes() as usize, true),
            );
            let msg = DsmMsg::BarrierRelease {
                barrier,
                set: Arc::clone(&set),
                time,
            };
            self.link.send(h, child, msg);
        }
        self.finish_barrier(h, barrier, &local, time);
    }

    pub(super) fn handle_barrier_release<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        set: Arc<UpdateSet>,
        time: u64,
    ) {
        match self.sites[barrier.0 as usize] {
            BarrierCoord::Flat(_) => self.finish_barrier(h, barrier, &set, time),
            BarrierCoord::Tree(_) => {
                // Keep release times monotone down the tree: observe the
                // parent's stamp, restamp with this node's clock, forward.
                self.clock.observe(time);
                let now = self.clock.tick();
                self.tree_fan_down(h, barrier, set, now);
            }
        }
    }

    pub(super) fn finish_barrier<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        set: &UpdateSet,
        time: u64,
    ) {
        let idx = barrier.0 as usize;
        self.counters.data_bytes_received += set.data_bytes();
        if let Some(log) = &mut self.check {
            log.apply(h.now().cycles(), set.data_bytes());
        }
        with_detector!(self, h, |det, cx| det.apply_barrier(&mut cx, set));
        // Post-images of everything the detector just applied, read back
        // from the store so replay reproduces exactly what memory holds.
        for i in 0..set.items.len() {
            let (addr, len) = (set.items[i].addr, set.items[i].data.len());
            self.wal_write(h, midway_mem::Addr(addr), len);
        }
        let node = &mut self.barriers[idx];
        node.episode += 1;
        node.released = true;
        self.clock.observe(time);
        node.last_consist = self.clock.now();
        self.wal_barrier(h, idx);
    }
}

#[cfg(test)]
mod tests {
    use midway_proto::UpdateSet;
    use midway_sim::SimError;

    use crate::config::{BackendKind, MidwayConfig};
    use crate::msg::DsmMsg;
    use crate::run::Midway;
    use crate::setup::SystemBuilder;

    // These tests forge raw protocol messages through the node's link
    // layer — something no correct application can do through the public
    // API — to check that a duplicate barrier arrival surfaces as a
    // reported protocol violation, not a panic inside the site.

    #[test]
    fn duplicate_flat_arrival_is_a_protocol_violation() {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 4, 1);
        let bar = b.barrier(vec![data.full_range()]);
        let spec = b.build();
        let err = Midway::run(MidwayConfig::new(2, BackendKind::Rt), &spec, async |p| {
            if p.id() == 1 {
                // Two forged arrivals ahead of the real one: the
                // manager must eventually see processor 1 arrive twice
                // in one episode.
                for time in [1, 2] {
                    let msg = DsmMsg::BarrierArrive {
                        barrier: bar,
                        set: UpdateSet::new(),
                        time,
                    };
                    p.node.link.send(p.h, 0, msg);
                }
            }
            p.barrier(bar).await;
        })
        .unwrap_err();
        match err {
            SimError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0, "the manager reports the violation");
                assert!(message.contains("arrived twice"), "{message}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_tree_arrival_is_a_protocol_violation() {
        // 3 processors, arity 2, manager 0: processors 1 and 2 are both
        // children of the root, so the root sees the duplicate directly.
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 4, 1);
        let bar = b.barrier(vec![data.full_range()]);
        let spec = b.build();
        let err = Midway::run(
            MidwayConfig::new(3, BackendKind::Rt).tree_barriers(2),
            &spec,
            async |p| {
                if p.id() == 1 {
                    for time in [1, 2] {
                        let msg = DsmMsg::BarrierArrive {
                            barrier: bar,
                            set: UpdateSet::new(),
                            time,
                        };
                        p.node.link.send(p.h, 0, msg);
                    }
                }
                p.barrier(bar).await;
            },
        )
        .unwrap_err();
        match err {
            SimError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0, "the tree root reports the violation");
                assert!(message.contains("arrived twice"), "{message}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }
}
