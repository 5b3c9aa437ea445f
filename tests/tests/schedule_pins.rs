//! Delivery-order pins: one FNV-1a fingerprint per run over everything a
//! changed delivery order would move — per-processor final-memory
//! digests, Table-2 counters, the finish cycle and the delivered-message
//! count.
//!
//! The constants were recorded under the thread-per-processor scheduler
//! and must hold for any driver of the same `(time, src, seq)` order. The
//! runs are the lock-order-dependent applications (where a different
//! interleaving changes who gets a lock first), the scale-out
//! configuration, and a lossy network with a crash on top.

use midway_apps::{run_app, AppKind, AppOutcome, Scale};
use midway_core::{fnv1a64, put_u64, BackendKind, FaultPlan, MidwayConfig};

fn fingerprint(out: &AppOutcome) -> u64 {
    assert!(out.verified, "{} failed verification", out.kind.label());
    let mut bytes = Vec::new();
    for &d in &out.store_digests {
        put_u64(&mut bytes, d);
    }
    for c in &out.counters {
        bytes.extend_from_slice(format!("{c:?}").as_bytes());
    }
    put_u64(&mut bytes, out.finish_time.cycles());
    put_u64(&mut bytes, out.messages);
    fnv1a64(&bytes)
}

#[test]
fn lock_order_dependent_apps_are_pinned() {
    let pins: [(AppKind, BackendKind, u64); 8] = [
        (AppKind::Water, BackendKind::Rt, 0xff3b_9e38_4399_9882),
        (AppKind::Water, BackendKind::Vm, 0xb7f2_b77d_2dc8_9b25),
        (AppKind::Quicksort, BackendKind::Rt, 0x842d_acf6_bacd_4117),
        (AppKind::Quicksort, BackendKind::Vm, 0xed44_e429_eeca_1e3a),
        (AppKind::Cholesky, BackendKind::Rt, 0x45d7_42b7_c284_7080),
        (AppKind::Cholesky, BackendKind::Vm, 0x37cb_2cac_5e33_d4c2),
        (AppKind::KvStore, BackendKind::Rt, 0x3b30_6fe9_b63b_839b),
        (AppKind::KvStore, BackendKind::Vm, 0xcab5_cd75_b3d7_39ee),
    ];
    let got: Vec<_> = pins
        .iter()
        .map(|&(kind, backend, _)| {
            let out = run_app(kind, MidwayConfig::new(8, backend), Scale::Small);
            (kind, backend, fingerprint(&out))
        })
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn scale_out_sor_is_pinned() {
    let cfg = MidwayConfig::new(32, BackendKind::Rt).scale_out(4, 0x5ca1_ab1e);
    let got = fingerprint(&run_app(AppKind::Sor, cfg, Scale::Medium));
    assert_eq!(got, 0xd754_4aec_c712_acbb);
}

#[test]
fn lossy_crashed_sor_is_pinned() {
    let faults = FaultPlan::lossy(7, 10_000).with_crash(1, 400_000, 50_000);
    let cfg = MidwayConfig::new(4, BackendKind::Rt).faults(faults);
    let out = run_app(AppKind::Sor, cfg, Scale::Small);
    assert_eq!(
        out.counters[1].crashes, 1,
        "the crash must land inside the run"
    );
    assert!(out.link_totals().retransmits > 0, "the loss must bite");
    let got = fingerprint(&out);
    assert_eq!(got, 0x98cc_0a4d_0156_8a3f);
}
