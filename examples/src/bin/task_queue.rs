//! A dynamic task queue with lock rebinding — the pattern behind the
//! paper's `quicksort` workload.
//!
//! Run with: `cargo run -p midway-examples --bin task_queue`
//!
//! A producer publishes work items; each item's lock is *rebound* to the
//! slice of the shared array the item covers, so acquiring the item's lock
//! ships exactly that slice. Workers square the numbers in their slice.
//! The example shows why rebinding is interesting for write detection:
//! under VM-DSM a rebound lock ships its full bound data without diffing,
//! while RT-DSM rescans dirtybits under the new binding.

use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};

const ITEMS: usize = 12;
const SLICE: usize = 32;

fn main() {
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", ITEMS * SLICE, 1);
        // `queue[0]` = published count, `queue[1]` = taken count,
        // `queue[2]` = completed count.
        let queue = b.shared_array::<u64>("queue", 3, 1);
        let qlock = b.lock(vec![queue.full_range()]);
        let item_locks: Vec<_> = (0..ITEMS).map(|_| b.lock(vec![])).collect();
        let spec = b.build();

        let run = Midway::run(MidwayConfig::new(4, backend), &spec, async |p| {
            if p.id() == 0 {
                // Producer: fill each slice, rebind its lock, publish it.
                for (item, item_lock) in item_locks.iter().enumerate() {
                    let range = item * SLICE..(item + 1) * SLICE;
                    p.acquire(*item_lock).await;
                    p.rebind(*item_lock, vec![data.range(range.clone())]);
                    for i in range {
                        p.write(&data, i, i as u64 + 1);
                    }
                    p.release(*item_lock);
                    p.acquire(qlock).await;
                    let published = p.read(&queue, 0);
                    p.write(&queue, 0, published + 1);
                    p.release(qlock);
                }
            }
            // Everyone (including the producer) works items to completion.
            let mut mine = 0u64;
            loop {
                p.acquire(qlock).await;
                let published = p.read(&queue, 0);
                let taken = p.read(&queue, 1);
                let completed = p.read(&queue, 2);
                let item = if taken < published {
                    p.write(&queue, 1, taken + 1);
                    Some(taken as usize)
                } else {
                    None
                };
                p.release(qlock);
                match item {
                    Some(item) => {
                        p.acquire(item_locks[item]).await;
                        for i in item * SLICE..(item + 1) * SLICE {
                            let v = p.read(&data, i);
                            p.write(&data, i, v * v);
                        }
                        p.release(item_locks[item]);
                        p.acquire(qlock).await;
                        let c = p.read(&queue, 2);
                        p.write(&queue, 2, c + 1);
                        p.release(qlock);
                        mine += 1;
                    }
                    None if completed == ITEMS as u64 => break,
                    None => p.idle(15_000).await,
                }
            }
            mine
        })
        .expect("simulation failed");

        println!("== {} ==", run.cfg.backend.label());
        println!("items completed per processor: {:?}", run.results);
        assert_eq!(run.results.iter().sum::<u64>(), ITEMS as u64);
        let fulls: u64 = run.counters.iter().map(|c| c.full_data_sends).sum();
        let data_kb: u64 = run.counters.iter().map(|c| c.data_bytes_sent).sum::<u64>() / 1024;
        println!("full-data sends: {fulls}, data transferred: {data_kb} KB\n");
    }
}
