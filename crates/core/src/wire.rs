//! Byte-level encoding of [`NetMsg`] for the real transport.
//!
//! The simulator moves messages as in-memory values; sockets move bytes.
//! This module gives [`NetMsg`] (and everything it carries) a
//! [`Wire`] encoding: little-endian scalars, length-prefixed vectors, one
//! tag byte per enum variant. The encoding is exact — decoding an encoded
//! message reproduces it field for field, which the roundtrip tests below
//! pin down — so a protocol engine behind a socket sees the same values
//! one behind the simulator does.
//!
//! Note the encoded length is *not* [`DsmMsg::wire_size`]: that models the
//! paper machine's packet sizes and stays authoritative for accounting.
//! This encoding is merely how the bytes travel on the host.

use midway_net::{put_bytes, put_u32, put_u64, Wire, WireError, WireReader};
use midway_proto::{BarrierId, Binding, LockId, Mode, Update, UpdateItem, UpdateSet};

use crate::msg::{DsmMsg, GrantPayload, NetMsg};

fn encode_mode(mode: Mode, out: &mut Vec<u8>) {
    out.push(match mode {
        Mode::Exclusive => 0,
        Mode::Shared => 1,
    });
}

fn decode_mode(r: &mut WireReader) -> Result<Mode, WireError> {
    match r.u8("mode")? {
        0 => Ok(Mode::Exclusive),
        1 => Ok(Mode::Shared),
        t => Err(WireError(format!("unknown mode tag {t}"))),
    }
}

fn encode_binding(b: &Binding, out: &mut Vec<u8>) {
    put_u64(out, b.version());
    put_u32(out, b.ranges().len() as u32);
    for r in b.ranges() {
        put_u64(out, r.start);
        put_u64(out, r.end);
    }
}

fn decode_binding(r: &mut WireReader) -> Result<Binding, WireError> {
    let version = r.u64("binding version")?;
    // Each range is two `u64`s.
    let n = r.u32_len(16, "binding range count")?;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.u64("range start")?;
        let end = r.u64("range end")?;
        ranges.push(start..end);
    }
    Ok(Binding::from_parts(ranges, version))
}

// `UpdateSet` and `Update` live in `midway-proto`, which does not know
// about the `Wire` trait; the orphan rule keeps the impls out, so they
// encode through free functions here.
fn encode_set(set: &UpdateSet, out: &mut Vec<u8>) {
    put_u32(out, set.items.len() as u32);
    for item in &set.items {
        put_u64(out, item.addr);
        put_u64(out, item.ts);
        put_bytes(out, &item.data);
    }
}

fn decode_set(r: &mut WireReader) -> Result<UpdateSet, WireError> {
    // Each item is an address, a timestamp and a length prefix.
    let n = r.u32_len(20, "update count")?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let addr = r.u64("update addr")?;
        let ts = r.u64("update ts")?;
        let data = r.bytes("update data")?;
        items.push(UpdateItem { addr, data, ts });
    }
    Ok(UpdateSet { items })
}

fn encode_update(u: &Update, out: &mut Vec<u8>) {
    put_u64(out, u.incarnation);
    out.push(u.full as u8);
    encode_set(&u.set, out);
}

fn decode_update(r: &mut WireReader) -> Result<Update, WireError> {
    let incarnation = r.u64("update incarnation")?;
    let full = r.u8("update full flag")? != 0;
    let set = decode_set(r)?;
    Ok(Update {
        incarnation,
        set,
        full,
    })
}

impl Wire for GrantPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GrantPayload::Current => out.push(0),
            GrantPayload::Rt {
                set,
                consist_time,
                binding,
            } => {
                out.push(1);
                encode_set(set, out);
                put_u64(out, *consist_time);
                encode_binding(binding, out);
            }
            GrantPayload::Vm {
                updates,
                full,
                incarnation,
                binding,
            } => {
                out.push(2);
                put_u32(out, updates.len() as u32);
                for u in updates {
                    encode_update(u.as_ref(), out);
                }
                // Only the full snapshot's set travels: its incarnation is
                // the payload's `incarnation` field and its full flag is
                // implied, so the encoding matches the pre-`Arc` format.
                match full {
                    None => out.push(0),
                    Some(u) => {
                        out.push(1);
                        encode_set(&u.set, out);
                    }
                }
                put_u64(out, *incarnation);
                encode_binding(binding, out);
            }
            GrantPayload::Flat { set, binding } => {
                out.push(3);
                encode_set(set, out);
                encode_binding(binding, out);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<GrantPayload, WireError> {
        match r.u8("grant payload tag")? {
            0 => Ok(GrantPayload::Current),
            1 => {
                let set = decode_set(r)?;
                let consist_time = r.u64("consist time")?;
                let binding = decode_binding(r)?;
                Ok(GrantPayload::Rt {
                    set,
                    consist_time,
                    binding,
                })
            }
            2 => {
                // Each update is an incarnation, a flag and a set count.
                let n = r.u32_len(13, "vm update count")?;
                let mut updates = Vec::with_capacity(n);
                for _ in 0..n {
                    updates.push(std::sync::Arc::new(decode_update(r)?));
                }
                let full_set = match r.u8("vm full flag")? {
                    0 => None,
                    1 => Some(decode_set(r)?),
                    t => return Err(WireError(format!("bad vm full flag {t}"))),
                };
                let incarnation = r.u64("vm incarnation")?;
                let binding = decode_binding(r)?;
                let full = full_set.map(|set| {
                    std::sync::Arc::new(Update {
                        incarnation,
                        set,
                        full: true,
                    })
                });
                Ok(GrantPayload::Vm {
                    updates,
                    full,
                    incarnation,
                    binding,
                })
            }
            3 => {
                let set = decode_set(r)?;
                let binding = decode_binding(r)?;
                Ok(GrantPayload::Flat { set, binding })
            }
            t => Err(WireError(format!("unknown grant payload tag {t}"))),
        }
    }
}

impl Wire for DsmMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DsmMsg::AcquireReq { lock, mode, seen } => {
                out.push(0);
                put_u32(out, lock.0);
                encode_mode(*mode, out);
                put_u64(out, seen.0);
                put_u64(out, seen.1);
            }
            DsmMsg::TransferReq {
                lock,
                requester,
                mode,
                seen,
            } => {
                out.push(1);
                put_u32(out, lock.0);
                put_u32(out, *requester as u32);
                encode_mode(*mode, out);
                put_u64(out, seen.0);
                put_u64(out, seen.1);
            }
            DsmMsg::Grant {
                lock,
                mode,
                payload,
            } => {
                out.push(2);
                put_u32(out, lock.0);
                encode_mode(*mode, out);
                payload.encode(out);
            }
            DsmMsg::ReleaseNotify { lock, mode } => {
                out.push(3);
                put_u32(out, lock.0);
                encode_mode(*mode, out);
            }
            DsmMsg::BarrierArrive { barrier, set, time } => {
                out.push(4);
                put_u32(out, barrier.0);
                put_u64(out, *time);
                encode_set(set, out);
            }
            DsmMsg::BarrierRelease { barrier, set, time } => {
                out.push(5);
                put_u32(out, barrier.0);
                put_u64(out, *time);
                encode_set(set, out);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<DsmMsg, WireError> {
        match r.u8("dsm tag")? {
            0 => Ok(DsmMsg::AcquireReq {
                lock: LockId(r.u32("lock")?),
                mode: decode_mode(r)?,
                seen: (r.u64("seen.0")?, r.u64("seen.1")?),
            }),
            1 => Ok(DsmMsg::TransferReq {
                lock: LockId(r.u32("lock")?),
                requester: r.u32("requester")? as usize,
                mode: decode_mode(r)?,
                seen: (r.u64("seen.0")?, r.u64("seen.1")?),
            }),
            2 => Ok(DsmMsg::Grant {
                lock: LockId(r.u32("lock")?),
                mode: decode_mode(r)?,
                payload: GrantPayload::decode(r)?,
            }),
            3 => Ok(DsmMsg::ReleaseNotify {
                lock: LockId(r.u32("lock")?),
                mode: decode_mode(r)?,
            }),
            4 => Ok(DsmMsg::BarrierArrive {
                barrier: BarrierId(r.u32("barrier")?),
                time: r.u64("time")?,
                set: decode_set(r)?,
            }),
            5 => Ok(DsmMsg::BarrierRelease {
                barrier: BarrierId(r.u32("barrier")?),
                time: r.u64("time")?,
                set: std::sync::Arc::new(decode_set(r)?),
            }),
            t => Err(WireError(format!("unknown dsm tag {t}"))),
        }
    }
}

impl Wire for NetMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NetMsg::Raw(m) => {
                out.push(0);
                m.encode(out);
            }
            NetMsg::Data {
                seq,
                ack,
                epoch,
                msg,
            } => {
                out.push(1);
                put_u64(out, *seq);
                put_u64(out, *ack);
                put_u32(out, *epoch);
                msg.encode(out);
            }
            NetMsg::Ack { ack, epoch } => {
                out.push(2);
                put_u64(out, *ack);
                put_u32(out, *epoch);
            }
            NetMsg::Tick => out.push(3),
            NetMsg::RetxCheck { peer } => {
                out.push(4);
                put_u32(out, *peer as u32);
            }
            NetMsg::Crash { down } => {
                out.push(5);
                put_u64(out, *down);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<NetMsg, WireError> {
        match r.u8("net tag")? {
            0 => Ok(NetMsg::Raw(DsmMsg::decode(r)?)),
            1 => Ok(NetMsg::Data {
                seq: r.u64("seq")?,
                ack: r.u64("ack")?,
                epoch: r.u32("epoch")?,
                msg: DsmMsg::decode(r)?,
            }),
            2 => Ok(NetMsg::Ack {
                ack: r.u64("ack")?,
                epoch: r.u32("epoch")?,
            }),
            3 => Ok(NetMsg::Tick),
            4 => Ok(NetMsg::RetxCheck {
                peer: r.u32("peer")? as usize,
            }),
            5 => Ok(NetMsg::Crash {
                down: r.u64("down")?,
            }),
            t => Err(WireError(format!("unknown net tag {t}"))),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use midway_net::{decode_exact, encode_to_vec, fnv1a64};
    use midway_sim::SplitMix64;

    fn roundtrip(msg: &NetMsg) -> NetMsg {
        let bytes = encode_to_vec(msg);
        decode_exact::<NetMsg>(&bytes).expect("roundtrip decodes")
    }

    fn sample_set() -> UpdateSet {
        UpdateSet {
            items: vec![
                UpdateItem {
                    addr: 0x40_0000,
                    data: vec![1, 2, 3, 4],
                    ts: 7,
                },
                UpdateItem {
                    addr: 0x40_0040,
                    data: vec![],
                    ts: 9,
                },
            ],
        }
    }

    fn sample_binding() -> Binding {
        Binding::from_parts(vec![0x40_0000..0x40_0100, 0x41_0000..0x41_0040], 3)
    }

    /// One message per `NetMsg` and `DsmMsg` variant.
    fn sample_msgs() -> Vec<NetMsg> {
        vec![
            NetMsg::Tick,
            NetMsg::RetxCheck { peer: 5 },
            NetMsg::Crash { down: 12_345 },
            NetMsg::Ack { ack: 42, epoch: 0 },
            NetMsg::Ack { ack: 43, epoch: 2 },
            NetMsg::Raw(DsmMsg::AcquireReq {
                lock: LockId(3),
                mode: Mode::Shared,
                seen: (11, 13),
            }),
            NetMsg::Raw(DsmMsg::TransferReq {
                lock: LockId(1),
                requester: 6,
                mode: Mode::Exclusive,
                seen: (0, u64::MAX),
            }),
            NetMsg::Raw(DsmMsg::ReleaseNotify {
                lock: LockId(9),
                mode: Mode::Exclusive,
            }),
            NetMsg::Raw(DsmMsg::BarrierArrive {
                barrier: BarrierId(2),
                set: sample_set(),
                time: 99,
            }),
            NetMsg::Data {
                seq: 17,
                ack: 16,
                epoch: 1,
                msg: DsmMsg::BarrierRelease {
                    barrier: BarrierId(0),
                    set: std::sync::Arc::new(UpdateSet::new()),
                    time: 100,
                },
            },
        ]
    }

    /// One grant per `GrantPayload` variant.
    fn sample_grants() -> Vec<NetMsg> {
        let payloads = vec![
            GrantPayload::Current,
            GrantPayload::Rt {
                set: sample_set(),
                consist_time: 55,
                binding: sample_binding(),
            },
            GrantPayload::Vm {
                updates: vec![
                    std::sync::Arc::new(Update {
                        incarnation: 1,
                        set: sample_set(),
                        full: false,
                    }),
                    std::sync::Arc::new(Update {
                        incarnation: 2,
                        set: UpdateSet::new(),
                        full: true,
                    }),
                ],
                full: Some(std::sync::Arc::new(Update {
                    incarnation: 2,
                    set: sample_set(),
                    full: true,
                })),
                incarnation: 2,
                binding: sample_binding(),
            },
            GrantPayload::Vm {
                updates: vec![],
                full: None,
                incarnation: 0,
                binding: Binding::default(),
            },
            GrantPayload::Flat {
                set: sample_set(),
                binding: sample_binding(),
            },
        ];
        payloads
            .into_iter()
            .map(|payload| {
                NetMsg::Raw(DsmMsg::Grant {
                    lock: LockId(4),
                    mode: Mode::Exclusive,
                    payload,
                })
            })
            .collect()
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in &sample_msgs() {
            let back = roundtrip(msg);
            // NetMsg has no PartialEq; compare debug forms, which show
            // every field.
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn grant_payloads_roundtrip() {
        for msg in &sample_grants() {
            let back = roundtrip(msg);
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    /// The frame layout is pinned by the FNV-1a 64 of every sample
    /// message, recorded before the codec moved onto the shared reader.
    #[test]
    fn netmsg_bytes_are_pinned() {
        let got: Vec<u64> = sample_msgs()
            .iter()
            .chain(&sample_grants())
            .map(|m| fnv1a64(&encode_to_vec(m)))
            .collect();
        let pinned = [
            0xaf63_be4c_8601_b992,
            0x91f0_c748_328f_7576,
            0x2c9e_3c37_9946_cb69,
            0xd98c_64e2_e184_dfbf,
            0xa453_8931_da4b_2dec,
            0xc586_3cd4_a348_06db,
            0x2329_be05_fe75_155f,
            0x53ed_e9fa_547c_d577,
            0xb9cd_fe4a_ab78_9808,
            0x296e_f89c_7c69_4d0f,
            0xabc9_7051_ccab_7b2b,
            0x689e_2e7e_fa80_8671,
            0x350c_6f36_cf4d_8ee6,
            0x3247_3367_7d03_b383,
            0xcf99_df81_c68e_56cc,
        ];
        assert_eq!(got, pinned);
    }

    /// A frame whose binding claims 0xFFFF_FFFF ranges is rejected before
    /// anything is sized from the count.
    #[test]
    fn oversized_counts_are_rejected_without_allocating() {
        let mut frame = vec![0, 2]; // NetMsg::Raw, DsmMsg::Grant
        put_u32(&mut frame, 4); // lock
        frame.push(0); // exclusive
        frame.push(3); // GrantPayload::Flat
        put_u32(&mut frame, 0); // empty update set
        put_u64(&mut frame, 1); // binding version
        put_u32(&mut frame, u32::MAX); // binding range count
        let err = decode_exact::<NetMsg>(&frame).unwrap_err();
        assert!(err.0.contains("binding range count"), "{err}");
    }

    /// One random mutation of `input`: a bit flip, a truncation, a splice of
    /// `input`'s prefix onto a suffix of `donor`, or a maximal ten-byte varint
    /// spliced in at a random position (so counts and lengths go huge).
    pub(crate) fn mutate(rng: &mut SplitMix64, input: &[u8], donor: &[u8]) -> Vec<u8> {
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

    /// Flipped, truncated and spliced frames decode to `Ok` or `Err`,
    /// never a panic or an allocation sized by a corrupt count.
    #[test]
    fn mutated_frames_never_panic() {
        let pool: Vec<Vec<u8>> = sample_msgs()
            .iter()
            .chain(&sample_grants())
            .map(encode_to_vec)
            .collect();
        let pick = |rng: &mut SplitMix64| &pool[rng.next_below(pool.len() as u64) as usize];
        let mut rng = SplitMix64::new(0xf022_0003);
        for _ in 0..5000 {
            let mut frame = pick(&mut rng).clone();
            for _ in 0..1 + rng.next_below(3) {
                let donor = pick(&mut rng);
                frame = mutate(&mut rng, &frame, donor);
            }
            let _ = decode_exact::<NetMsg>(&frame);
        }
    }

    #[test]
    fn truncated_messages_fail_with_context() {
        let bytes = encode_to_vec(&NetMsg::Raw(DsmMsg::BarrierArrive {
            barrier: BarrierId(2),
            set: sample_set(),
            time: 99,
        }));
        for cut in 0..bytes.len() {
            let err = decode_exact::<NetMsg>(&bytes[..cut]).unwrap_err();
            assert!(!err.0.is_empty());
        }
    }
}
