//! Round-trip property tests for the binary trace format, driven by the
//! internal [`SplitMix64`] generator (std-only; the workspace builds
//! offline). Every case derives from a fixed seed and is exactly
//! reproducible.

use midway_apps::{AppKind, Scale};
use midway_core::{
    fnv1a64, AllocSpec, BackendKind, BarrierSpec, Counters, FaultPlan, MidwayConfig,
    ReliableParams, SpecBlueprint, TraceOp,
};
use midway_replay::{record_app, Trace, TraceError, TraceMeta};
use midway_sim::{SplitMix64, MAX_CRASHES};

fn random_ranges(rng: &mut SplitMix64) -> Vec<std::ops::Range<u64>> {
    let n = rng.next_below(4);
    (0..n)
        .map(|_| {
            let start = rng.next_below(1 << 23);
            start..start + 1 + rng.next_below(4096)
        })
        .collect()
}

fn random_op(rng: &mut SplitMix64) -> TraceOp {
    match rng.next_below(7) {
        0 => TraceOp::Work {
            cycles: rng.next_u64() >> rng.next_below(64),
        },
        1 => TraceOp::Idle {
            cycles: rng.next_below(1 << 20),
        },
        2 => {
            let len = 1 + rng.next_below(64) as usize;
            TraceOp::Write {
                addr: rng.next_below(1 << 23),
                data: (0..len).map(|_| rng.next_below(256) as u8).collect(),
            }
        }
        3 => TraceOp::Acquire {
            lock: rng.next_below(8) as u32,
            exclusive: rng.next_below(2) == 1,
        },
        4 => TraceOp::Release {
            lock: rng.next_below(8) as u32,
            exclusive: rng.next_below(2) == 1,
        },
        5 => TraceOp::Rebind {
            lock: rng.next_below(8) as u32,
            ranges: random_ranges(rng),
        },
        _ => TraceOp::Barrier {
            barrier: rng.next_below(4) as u32,
        },
    }
}

fn random_counters(rng: &mut SplitMix64) -> Counters {
    Counters {
        dirtybits_set: rng.next_u64() >> 32,
        dirtybits_misclassified: rng.next_below(1000),
        clean_dirtybits_read: rng.next_below(1000),
        dirty_dirtybits_read: rng.next_below(1000),
        dirtybits_updated: rng.next_below(1000),
        write_faults: rng.next_below(1000),
        pages_diffed: rng.next_below(1000),
        pages_write_protected: rng.next_below(1000),
        twin_bytes_updated: rng.next_below(1 << 30),
        data_bytes_sent: rng.next_u64() >> 16,
        data_bytes_received: rng.next_u64() >> 16,
        redundant_bytes_received: rng.next_below(1 << 30),
        lock_acquires: rng.next_below(1000),
        lock_transfers_served: rng.next_below(1000),
        full_data_sends: rng.next_below(1000),
        barrier_waits: rng.next_below(1000),
        crashes: rng.next_below(8),
        downtime_cycles: rng.next_below(1 << 24),
        fenced_messages: rng.next_below(1000),
        checkpoints_written: rng.next_below(1000),
        checkpoint_bytes: rng.next_below(1 << 24),
        wal_bytes_logged: rng.next_below(1 << 24),
        recovery_replay_bytes: rng.next_below(1 << 24),
        recovery_cycles: rng.next_below(1 << 24),
    }
}

/// A structurally random trace (metadata, blueprint and op streams drawn
/// at random; it need not describe a *runnable* system — the format must
/// round-trip it regardless).
fn random_trace(rng: &mut SplitMix64) -> Trace {
    let procs = 1 + rng.next_below(6) as usize;
    let backend = [
        BackendKind::Rt,
        BackendKind::Vm,
        BackendKind::Blast,
        BackendKind::TwinAll,
        BackendKind::None,
    ][rng.next_below(5) as usize];
    let mut cfg = MidwayConfig::new(procs, backend);
    cfg.history_cap = rng.next_below(4096) as usize;
    cfg.cost.page_write_fault = rng.next_below(1 << 20);
    cfg.cost.dirtybit_read_clean_us = rng.next_f64() * 100.0;
    cfg.net = cfg.net.scaled(1 + rng.next_below(8), 1 + rng.next_below(8));
    if rng.next_below(2) == 1 {
        // Version 3 header fields: a fault plan and channel tuning.
        cfg.faults = FaultPlan::seeded(rng.next_u64())
            .drop_ppm(rng.next_below(100_000) as u32)
            .dup_ppm(rng.next_below(100_000) as u32)
            .reorder_ppm(rng.next_below(100_000) as u32)
            .delay_ppm(rng.next_below(100_000) as u32);
        cfg.faults.enabled = rng.next_below(4) != 0;
        cfg.faults.max_delay_cycles = rng.next_below(1 << 20);
        cfg.faults.reorder_window_cycles = rng.next_below(1 << 16);
        cfg.reliable = ReliableParams {
            rto_cycles: 1 + rng.next_below(1 << 21),
            backoff_cap: rng.next_below(12) as u32,
            timer_cost_cycles: rng.next_below(1 << 12),
        };
    }
    if rng.next_below(2) == 1 {
        // Version 5 header fields: a crash plan and a checkpoint interval.
        for _ in 0..rng.next_below(4) {
            cfg.faults = cfg.faults.with_crash(
                rng.next_below(procs as u64) as usize,
                1 + rng.next_below(1 << 24),
                1 + rng.next_below(1 << 16),
            );
        }
        cfg.checkpoint_every = rng.next_below(32) as u32;
    }
    let allocs = (0..rng.next_below(5))
        .map(|i| AllocSpec {
            name: format!("a{i}"),
            addr: (i + 1) << 22,
            len: 1 + rng.next_below(1 << 16) as usize,
            private: rng.next_below(2) == 1,
            line_shift: 2 + rng.next_below(11) as u32,
        })
        .collect();
    let locks = (0..rng.next_below(4)).map(|_| random_ranges(rng)).collect();
    let barriers = (0..rng.next_below(3))
        .map(|_| BarrierSpec {
            ranges: random_ranges(rng),
            partitions: if rng.next_below(2) == 1 {
                Some((0..procs).map(|_| random_ranges(rng)).collect())
            } else {
                None
            },
        })
        .collect();
    let ops = (0..procs)
        .map(|_| {
            let n = rng.next_below(40) as usize;
            (0..n).map(|_| random_op(rng)).collect()
        })
        .collect();
    Trace {
        meta: TraceMeta {
            app: format!("app{}", rng.next_below(100)),
            scale: "small".to_string(),
            verified: rng.next_below(2) == 1,
            cfg,
            finish_cycles: rng.next_u64() >> rng.next_below(32),
            messages: rng.next_below(1 << 24),
            counters: (0..procs).map(|_| random_counters(rng)).collect(),
        },
        blueprint: SpecBlueprint {
            allocs,
            locks,
            barriers,
        },
        ops,
    }
}

/// decode(encode(t)) == t for arbitrary traces.
#[test]
fn encode_decode_round_trips() {
    let mut rng = SplitMix64::new(0x7ace_0001);
    for case in 0..128 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        let back = Trace::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, trace, "case {case}");
    }
}

/// Any truncation of a valid file is rejected, never misread.
#[test]
fn truncation_is_rejected() {
    let mut rng = SplitMix64::new(0x7ace_0002);
    for _ in 0..16 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        // Every prefix length, for small files; sampled, for larger ones.
        let step = (bytes.len() / 64).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            assert!(
                Trace::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes was accepted",
                bytes.len()
            );
        }
    }
}

/// Any single corrupted byte is rejected by the checksum (FNV-1a steps
/// are injective in the running hash, so one flipped byte always changes
/// the final sum), and a corrupted footer is rejected too.
#[test]
fn corruption_is_rejected() {
    let mut rng = SplitMix64::new(0x7ace_0003);
    for _ in 0..16 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        for _ in 0..32 {
            let mut bad = bytes.clone();
            let i = rng.next_below(bad.len() as u64) as usize;
            let flip = 1u8 << rng.next_below(8);
            bad[i] ^= flip;
            let expect = if i < 4 {
                // Magic bytes are checked before the checksum.
                TraceError::BadMagic
            } else {
                TraceError::BadChecksum
            };
            match Trace::decode(&bad) {
                Err(e) => assert_eq!(e, expect, "flipped byte {i}"),
                Ok(t) => panic!("corrupt file decoded successfully: byte {i}, {t:?}"),
            }
        }
    }
}

/// Every version but the current one is rejected, the previous one
/// included (preserving the checksum so the version check itself is what
/// fires).
#[test]
fn future_versions_are_rejected() {
    let mut rng = SplitMix64::new(0x7ace_0004);
    let trace = random_trace(&mut rng);
    let bytes = trace.encode();
    assert_eq!(
        u64::from(bytes[4]),
        midway_replay::VERSION,
        "version varint directly follows the magic"
    );
    for version in [midway_replay::VERSION - 1, 99] {
        let mut bad = bytes.clone();
        bad[4] = version as u8;
        reseal(&mut bad);
        assert_eq!(Trace::decode(&bad), Err(TraceError::BadVersion(version)));
    }
}

/// Rewrites the FNV-1a 64 footer so a deliberately altered body passes
/// the checksum and reaches the parser.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A recorded run's file is rejected, not misread, when its version is
/// from the future, when a byte is flipped without re-sealing, and when
/// its crash plan claims more than `MAX_CRASHES` crashes or a processor
/// that does not fit in `u32`.
#[test]
fn bad_versions_and_corrupt_crash_plans_are_rejected() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt);
    let (outcome, trace) = record_app(AppKind::Sor, cfg, Scale::Small);
    assert!(outcome.verified);
    let bytes = trace.encode();

    let mut future = bytes.clone();
    future[4] = (midway_replay::VERSION + 1) as u8;
    reseal(&mut future);
    assert_eq!(
        Trace::decode(&future),
        Err(TraceError::BadVersion(midway_replay::VERSION + 1))
    );

    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    assert_eq!(Trace::decode(&flipped), Err(TraceError::BadChecksum));

    // With faults enabled in both, the crash-free file and the same run
    // with one crash of processor 1 first differ at the crash count.
    let mut base = trace.clone();
    base.meta.cfg.faults.enabled = true;
    let base_bytes = base.encode();
    let mut crashed = base.clone();
    crashed.meta.cfg.faults = crashed.meta.cfg.faults.with_crash(1, 5_000, 2_000);
    let crashed_bytes = crashed.encode();
    assert_eq!(Trace::decode(&crashed_bytes).as_ref(), Ok(&crashed));
    let at = (0..base_bytes.len())
        .find(|&i| base_bytes[i] != crashed_bytes[i])
        .expect("a crash plan changes the encoding");
    assert_eq!(
        (base_bytes[at], crashed_bytes[at], crashed_bytes[at + 1]),
        (0, 1, 1)
    );

    let mut too_many = crashed_bytes.clone();
    too_many[at] = MAX_CRASHES as u8 + 1;
    reseal(&mut too_many);
    assert!(matches!(
        Trace::decode(&too_many),
        Err(TraceError::Malformed(_))
    ));

    // Processor 2^35 - 1 as a five-byte varint in place of processor 1.
    let mut wide_proc = crashed_bytes[..=at].to_vec();
    wide_proc.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x7f]);
    wide_proc.extend_from_slice(&crashed_bytes[at + 2..]);
    reseal(&mut wide_proc);
    assert!(matches!(
        Trace::decode(&wide_proc),
        Err(TraceError::Malformed(_))
    ));
}

/// The byte layout is pinned by the length and FNV-1a 64 of one recorded
/// run, taken before the format moved onto the shared codec.
#[test]
fn recorded_trace_bytes_are_pinned() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt);
    let (outcome, trace) = record_app(AppKind::Sor, cfg, Scale::Small);
    assert!(outcome.verified);
    let bytes = trace.encode();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (19_326, 0xae92_ef77_b44f_2611)
    );
}

/// One random mutation of `input`: a bit flip, a truncation, a splice of
/// `input`'s prefix onto a suffix of `donor`, or a maximal ten-byte varint
/// spliced in at a random position (so counts and lengths go huge).
fn mutate(rng: &mut SplitMix64, input: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    let upto = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64 + 1) as usize;
    match rng.next_below(4) {
        0 if !out.is_empty() => {
            let i = upto(rng, out.len() - 1);
            out[i] ^= 1 << rng.next_below(8);
        }
        1 => out.truncate(upto(rng, out.len())),
        2 => {
            let at = upto(rng, out.len());
            out.splice(at..at, [0xff; 9].into_iter().chain([0x01]));
        }
        _ => {
            out.truncate(upto(rng, out.len()));
            out.extend_from_slice(&donor[upto(rng, donor.len())..]);
        }
    }
    out
}

/// Flipped, truncated and spliced traces decode to `Ok` or `Err`, never a
/// panic. The checksum footer is re-sealed after mutation so the body
/// parser, not the checksum, sees the damage.
#[test]
fn mutated_traces_never_panic() {
    let mut rng = SplitMix64::new(0x7ace_0005);
    let pool: Vec<Vec<u8>> = (0..8).map(|_| random_trace(&mut rng).encode()).collect();
    let pick = |rng: &mut SplitMix64| &pool[rng.next_below(pool.len() as u64) as usize];
    for _ in 0..3000 {
        let mut bytes = pick(&mut rng).clone();
        for _ in 0..1 + rng.next_below(3) {
            let donor = pick(&mut rng);
            bytes = mutate(&mut rng, &bytes, donor);
        }
        if bytes.len() >= 12 {
            reseal(&mut bytes);
        }
        let _ = Trace::decode(&bytes);
    }
}
