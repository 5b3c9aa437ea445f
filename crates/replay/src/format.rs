//! The binary trace-file format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic   b"MWTR"                      (4 raw bytes)
//! version 5                            (the only version decoded)
//! meta    app, scale (strings: length + UTF-8 bytes), verified (1 byte),
//!         backend (1 byte: `BackendKind::wire_tag`), procs, history_cap,
//!         cost model (Table 1 fields; µs fields as f64 bit patterns),
//!         net model (4 varints),
//!         fault plan (enabled (1 byte) + 7 varints),
//!         reliable channel params (3 varints),
//!         home map (tag (1 byte), sharded adds a seed varint),
//!         barrier shape (tag (1 byte), tree adds an arity varint),
//!         crash plan (count + count × (proc, at, down) varints),
//!         checkpoint_every (1 varint),
//!         finish_cycles, messages,
//!         counters: procs × 24 varints (Table 2 field order, then the
//!         8 crash/recovery counters)
//! blueprint
//!         allocs: n × (name, addr, len, private (1 byte), line_shift)
//!         locks: n × ranges           (ranges: n × (start, len))
//!         barriers: n × (ranges, has_partitions (1 byte), partitions)
//! ops     procs × stream              (stream: n × op)
//!         op: tag (1 byte) + payload:
//!           0 Work    cycles
//!           1 Idle    cycles
//!           2 Write   addr, len, raw bytes
//!           3 Acquire lock, exclusive (1 byte)
//!           4 Release lock, exclusive (1 byte)
//!           5 Rebind  lock, ranges
//!           6 Barrier barrier
//! footer  FNV-1a 64 checksum of every preceding byte (8 bytes LE)
//! ```
//!
//! The format is built on the workspace's shared codec (`midway_net`'s
//! varints, bounds-checked reader and FNV-1a 64, re-exported by
//! `midway_core`). Decoding verifies the magic, checksum and version
//! before anything else, every read is bounds-checked, and no length
//! prefix may claim more items than the bytes that remain, so truncated
//! or corrupted files are rejected rather than misread. A file of any
//! other version is rejected: traces are a cache, and the harnesses
//! re-record on any decode error.

use midway_core::{
    fnv1a64, put_u64, put_varint, AllocSpec, BackendKind, BarrierShape, BarrierSpec, Counters,
    HomeMap, MidwayConfig, ReliableParams, SpecBlueprint, TraceOp, WireError, WireReader,
};
use midway_mem::AddrRange;
use midway_sim::{CrashEvent, FaultPlan, NetModel, MAX_CRASHES};
use midway_stats::CostModel;

use crate::{Trace, TraceMeta};

/// File magic: "MWTR" (MidWay TRace).
pub const MAGIC: [u8; 4] = *b"MWTR";
/// The format version, the only one the decoder accepts. Version 5 added
/// the processor-crash plan, the checkpoint interval and the
/// crash/recovery counters to the header.
pub const VERSION: u64 = 5;

/// Why a trace file was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the `MWTR` magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u64),
    /// The checksum footer does not match the contents.
    BadChecksum,
    /// The file is too short to hold the magic and the checksum footer.
    Truncated,
    /// The body is truncated or holds a value the format does not allow.
    Malformed(String),
    /// The file could not be read at all.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a Midway trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadChecksum => write!(f, "trace checksum mismatch (corrupt file)"),
            TraceError::Truncated => write!(f, "trace file is truncated"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> TraceError {
        TraceError::Malformed(e.0)
    }
}

// ---------------------------------------------------------------- encoding

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_ranges(out: &mut Vec<u8>, ranges: &[AddrRange]) {
    put_varint(out, ranges.len() as u64);
    for r in ranges {
        put_varint(out, r.start);
        put_varint(out, r.end - r.start);
    }
}

/// The cost model's cycle fields, in file order (the encoder and decoder
/// share this one list).
fn cost_cycles(c: &mut CostModel) -> [&mut u64; 16] {
    [
        &mut c.dirtybit_set_word,
        &mut c.dirtybit_set_double,
        &mut c.dirtybit_set_private,
        &mut c.dirtybit_set_area_base,
        &mut c.dirtybit_read_clean,
        &mut c.dirtybit_read_dirty,
        &mut c.dirtybit_update,
        &mut c.dirtybit_set_queue,
        &mut c.dirtybit_set_two_level,
        &mut c.page_write_fault,
        &mut c.page_diff_uniform,
        &mut c.page_diff_alternating,
        &mut c.protect_rw,
        &mut c.protect_ro,
        &mut c.copy_per_kb_cold,
        &mut c.copy_per_kb_warm,
    ]
}

/// The cost model's measured-µs fields, in file order.
fn cost_us(c: &mut CostModel) -> [&mut f64; 4] {
    [
        &mut c.dirtybit_read_clean_us,
        &mut c.dirtybit_read_dirty_us,
        &mut c.dirtybit_update_us,
        &mut c.page_diff_uniform_us,
    ]
}

/// Every counter, in file order: Table 2's fields, then crash/recovery.
fn counter_fields(c: &mut Counters) -> [&mut u64; 24] {
    [
        &mut c.dirtybits_set,
        &mut c.dirtybits_misclassified,
        &mut c.clean_dirtybits_read,
        &mut c.dirty_dirtybits_read,
        &mut c.dirtybits_updated,
        &mut c.write_faults,
        &mut c.pages_diffed,
        &mut c.pages_write_protected,
        &mut c.twin_bytes_updated,
        &mut c.data_bytes_sent,
        &mut c.data_bytes_received,
        &mut c.redundant_bytes_received,
        &mut c.lock_acquires,
        &mut c.lock_transfers_served,
        &mut c.full_data_sends,
        &mut c.barrier_waits,
        &mut c.crashes,
        &mut c.downtime_cycles,
        &mut c.fenced_messages,
        &mut c.checkpoints_written,
        &mut c.checkpoint_bytes,
        &mut c.wal_bytes_logged,
        &mut c.recovery_replay_bytes,
        &mut c.recovery_cycles,
    ]
}

fn put_cost(out: &mut Vec<u8>, c: &CostModel) {
    let mut c = *c;
    put_varint(out, u64::from(c.mhz));
    put_varint(out, c.page_size as u64);
    for v in cost_cycles(&mut c) {
        put_varint(out, *v);
    }
    for v in cost_us(&mut c) {
        put_u64(out, v.to_bits());
    }
}

fn put_net(out: &mut Vec<u8>, n: &NetModel) {
    put_varint(out, n.latency_cycles);
    put_varint(out, n.per_byte_millicycles);
    put_varint(out, n.send_overhead_cycles);
    put_varint(out, n.recv_overhead_cycles);
}

fn put_faults(out: &mut Vec<u8>, f: &FaultPlan) {
    out.push(u8::from(f.enabled));
    put_varint(out, f.seed);
    put_varint(out, u64::from(f.drop_ppm));
    put_varint(out, u64::from(f.dup_ppm));
    put_varint(out, u64::from(f.reorder_ppm));
    put_varint(out, u64::from(f.delay_ppm));
    put_varint(out, f.max_delay_cycles);
    put_varint(out, f.reorder_window_cycles);
}

fn put_reliable(out: &mut Vec<u8>, p: &ReliableParams) {
    put_varint(out, p.rto_cycles);
    put_varint(out, u64::from(p.backoff_cap));
    put_varint(out, p.timer_cost_cycles);
}

fn put_home_map(out: &mut Vec<u8>, h: HomeMap) {
    match h {
        HomeMap::Modulo => out.push(0),
        HomeMap::Sharded { seed } => {
            out.push(1);
            put_varint(out, seed);
        }
    }
}

fn put_barrier_shape(out: &mut Vec<u8>, b: BarrierShape) {
    match b {
        BarrierShape::Flat => out.push(0),
        BarrierShape::Tree { arity } => {
            out.push(1);
            put_varint(out, u64::from(arity));
        }
    }
}

fn put_crash_plan(out: &mut Vec<u8>, f: &FaultPlan) {
    let crashes = f.crashes();
    put_varint(out, crashes.len() as u64);
    for c in crashes {
        put_varint(out, u64::from(c.proc));
        put_varint(out, c.at);
        put_varint(out, c.down);
    }
}

fn put_counters(out: &mut Vec<u8>, c: &Counters) {
    let mut c = *c;
    for v in counter_fields(&mut c) {
        put_varint(out, *v);
    }
}

fn put_op(out: &mut Vec<u8>, op: &TraceOp) {
    match op {
        TraceOp::Work { cycles } => {
            out.push(0);
            put_varint(out, *cycles);
        }
        TraceOp::Idle { cycles } => {
            out.push(1);
            put_varint(out, *cycles);
        }
        TraceOp::Write { addr, data } => {
            out.push(2);
            put_varint(out, *addr);
            put_varint(out, data.len() as u64);
            out.extend_from_slice(data);
        }
        TraceOp::Acquire { lock, exclusive } => {
            out.push(3);
            put_varint(out, u64::from(*lock));
            out.push(u8::from(*exclusive));
        }
        TraceOp::Release { lock, exclusive } => {
            out.push(4);
            put_varint(out, u64::from(*lock));
            out.push(u8::from(*exclusive));
        }
        TraceOp::Rebind { lock, ranges } => {
            out.push(5);
            put_varint(out, u64::from(*lock));
            put_ranges(out, ranges);
        }
        TraceOp::Barrier { barrier } => {
            out.push(6);
            put_varint(out, u64::from(*barrier));
        }
    }
}

/// Encodes a trace into the `MWTR` byte format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, VERSION);

    let m = &trace.meta;
    put_string(&mut out, &m.app);
    put_string(&mut out, &m.scale);
    out.push(u8::from(m.verified));
    out.push(m.cfg.backend.wire_tag());
    put_varint(&mut out, m.cfg.procs as u64);
    put_varint(&mut out, m.cfg.history_cap as u64);
    put_cost(&mut out, &m.cfg.cost);
    put_net(&mut out, &m.cfg.net);
    put_faults(&mut out, &m.cfg.faults);
    put_reliable(&mut out, &m.cfg.reliable);
    put_home_map(&mut out, m.cfg.home_map);
    put_barrier_shape(&mut out, m.cfg.barrier);
    put_crash_plan(&mut out, &m.cfg.faults);
    put_varint(&mut out, u64::from(m.cfg.checkpoint_every));
    put_varint(&mut out, m.finish_cycles);
    put_varint(&mut out, m.messages);
    assert_eq!(
        m.counters.len(),
        m.cfg.procs,
        "one counter set per processor"
    );
    for c in &m.counters {
        put_counters(&mut out, c);
    }

    let bp = &trace.blueprint;
    put_varint(&mut out, bp.allocs.len() as u64);
    for a in &bp.allocs {
        put_string(&mut out, &a.name);
        put_varint(&mut out, a.addr);
        put_varint(&mut out, a.len as u64);
        out.push(u8::from(a.private));
        put_varint(&mut out, u64::from(a.line_shift));
    }
    put_varint(&mut out, bp.locks.len() as u64);
    for l in &bp.locks {
        put_ranges(&mut out, l);
    }
    put_varint(&mut out, bp.barriers.len() as u64);
    for b in &bp.barriers {
        put_ranges(&mut out, &b.ranges);
        match &b.partitions {
            None => out.push(0),
            Some(ps) => {
                out.push(1);
                put_varint(&mut out, ps.len() as u64);
                for p in ps {
                    put_ranges(&mut out, p);
                }
            }
        }
    }

    assert_eq!(trace.ops.len(), m.cfg.procs, "one op stream per processor");
    for stream in &trace.ops {
        put_varint(&mut out, stream.len() as u64);
        for op in stream {
            put_op(&mut out, op);
        }
    }

    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

// ---------------------------------------------------------------- decoding

fn get_flag(r: &mut WireReader<'_>, what: &str) -> Result<bool, WireError> {
    Ok(r.u8(what)? != 0)
}

fn get_u32(r: &mut WireReader<'_>, what: &str) -> Result<u32, WireError> {
    u32::try_from(r.varint(what)?).map_err(|_| WireError::new("field exceeds u32"))
}

fn get_string(r: &mut WireReader<'_>, what: &str) -> Result<String, WireError> {
    let n = r.varint_len(1, what)?;
    String::from_utf8(r.raw(n, what)?.to_vec()).map_err(|_| WireError::new("non-UTF-8 string"))
}

fn get_ranges(r: &mut WireReader<'_>) -> Result<Vec<AddrRange>, WireError> {
    // Each range is at least a start and a length varint.
    (0..r.varint_len(2, "range count")?)
        .map(|_| {
            let start = r.varint("range start")?;
            let end = start
                .checked_add(r.varint("range length")?)
                .ok_or_else(|| WireError::new("range end overflows u64"))?;
            Ok(start..end)
        })
        .collect()
}

fn get_cost(r: &mut WireReader<'_>) -> Result<CostModel, WireError> {
    let mut c = CostModel::r3000_mach();
    c.mhz = r.varint("mhz")? as u32;
    c.page_size = r.varint("page size")? as usize;
    for f in cost_cycles(&mut c) {
        *f = r.varint("cost")?;
    }
    for f in cost_us(&mut c) {
        *f = f64::from_bits(r.u64("cost µs")?);
    }
    Ok(c)
}

fn get_net(r: &mut WireReader<'_>) -> Result<NetModel, WireError> {
    Ok(NetModel {
        latency_cycles: r.varint("latency")?,
        per_byte_millicycles: r.varint("per-byte cost")?,
        send_overhead_cycles: r.varint("send overhead")?,
        recv_overhead_cycles: r.varint("recv overhead")?,
    })
}

fn get_faults(r: &mut WireReader<'_>) -> Result<FaultPlan, WireError> {
    let enabled = get_flag(r, "faults enabled")?;
    let mut f = FaultPlan::seeded(r.varint("fault seed")?);
    f.enabled = enabled;
    f.drop_ppm = get_u32(r, "drop ppm")?;
    f.dup_ppm = get_u32(r, "dup ppm")?;
    f.reorder_ppm = get_u32(r, "reorder ppm")?;
    f.delay_ppm = get_u32(r, "delay ppm")?;
    f.max_delay_cycles = r.varint("max delay")?;
    f.reorder_window_cycles = r.varint("reorder window")?;
    Ok(f)
}

fn get_reliable(r: &mut WireReader<'_>) -> Result<ReliableParams, WireError> {
    Ok(ReliableParams {
        rto_cycles: r.varint("rto")?,
        backoff_cap: get_u32(r, "backoff cap")?,
        timer_cost_cycles: r.varint("timer cost")?,
    })
}

fn get_home_map(r: &mut WireReader<'_>) -> Result<HomeMap, WireError> {
    match r.u8("home map")? {
        0 => Ok(HomeMap::Modulo),
        1 => Ok(HomeMap::Sharded {
            seed: r.varint("home seed")?,
        }),
        _ => Err(WireError::new("unknown home-map tag")),
    }
}

fn get_barrier_shape(r: &mut WireReader<'_>) -> Result<BarrierShape, WireError> {
    match r.u8("barrier shape")? {
        0 => Ok(BarrierShape::Flat),
        1 => {
            let arity = get_u32(r, "tree arity")?;
            if arity < 2 {
                return Err(WireError::new("tree barrier arity below 2"));
            }
            Ok(BarrierShape::Tree { arity })
        }
        _ => Err(WireError::new("unknown barrier-shape tag")),
    }
}

fn get_crash_plan(r: &mut WireReader<'_>, f: &mut FaultPlan) -> Result<(), WireError> {
    let n = r.varint_len(3, "crash count")?;
    if n > MAX_CRASHES {
        return Err(WireError::new("crash plan exceeds MAX_CRASHES"));
    }
    for i in 0..n {
        f.crashes[i] = CrashEvent {
            proc: get_u32(r, "crash proc")?,
            at: r.varint("crash at")?,
            down: r.varint("crash down")?,
        };
    }
    f.crash_len = n as u8;
    Ok(())
}

fn get_counters(r: &mut WireReader<'_>) -> Result<Counters, WireError> {
    let mut c = Counters::default();
    for f in counter_fields(&mut c) {
        *f = r.varint("counter")?;
    }
    Ok(c)
}

fn get_op(r: &mut WireReader<'_>) -> Result<TraceOp, WireError> {
    Ok(match r.u8("op tag")? {
        0 => TraceOp::Work {
            cycles: r.varint("work cycles")?,
        },
        1 => TraceOp::Idle {
            cycles: r.varint("idle cycles")?,
        },
        2 => {
            let addr = r.varint("write addr")?;
            let n = r.varint_len(1, "write length")?;
            TraceOp::Write {
                addr,
                data: r.raw(n, "write bytes")?.to_vec(),
            }
        }
        3 => TraceOp::Acquire {
            lock: r.varint("lock")? as u32,
            exclusive: get_flag(r, "exclusive")?,
        },
        4 => TraceOp::Release {
            lock: r.varint("lock")? as u32,
            exclusive: get_flag(r, "exclusive")?,
        },
        5 => TraceOp::Rebind {
            lock: r.varint("lock")? as u32,
            ranges: get_ranges(r)?,
        },
        6 => TraceOp::Barrier {
            barrier: r.varint("barrier")? as u32,
        },
        _ => return Err(WireError::new("unknown op tag")),
    })
}

/// Decodes an `MWTR` byte buffer back into a trace.
pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(TraceError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let (payload, footer) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    if fnv1a64(payload) != sum {
        return Err(TraceError::BadChecksum);
    }
    let mut r = WireReader::new(&payload[MAGIC.len()..]);
    let version = r.varint("version")?;
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    Ok(decode_body(&mut r)?)
}

/// Decodes everything between the version and the checksum footer.
fn decode_body(r: &mut WireReader<'_>) -> Result<Trace, WireError> {
    let app = get_string(r, "app")?;
    let scale = get_string(r, "scale")?;
    let verified = get_flag(r, "verified")?;
    let backend = BackendKind::from_wire_tag(r.u8("backend")?)
        .ok_or_else(|| WireError::new("unknown backend tag"))?;
    let procs = r.varint_len(1, "procs")?;
    if procs == 0 {
        return Err(WireError::new("zero processors"));
    }
    let history_cap = r.varint("history cap")? as usize;
    let cost = get_cost(r)?;
    let net = get_net(r)?;
    let mut faults = get_faults(r)?;
    let reliable = get_reliable(r)?;
    let home_map = get_home_map(r)?;
    let barrier = get_barrier_shape(r)?;
    get_crash_plan(r, &mut faults)?;
    let checkpoint_every = get_u32(r, "checkpoint interval")?;
    let finish_cycles = r.varint("finish cycles")?;
    let messages = r.varint("messages")?;
    let counters = (0..procs)
        .map(|_| get_counters(r))
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = MidwayConfig {
        procs,
        backend,
        cost,
        net,
        history_cap,
        record: false,
        faults,
        reliable,
        home_map,
        barrier,
        checkpoint_every,
        // Checking is a per-replay choice, never a property of the file.
        check: false,
    };

    let allocs = (0..r.varint_len(4, "alloc count")?)
        .map(|_| {
            Ok(AllocSpec {
                name: get_string(r, "alloc name")?,
                addr: r.varint("alloc addr")?,
                len: r.varint("alloc len")? as usize,
                private: get_flag(r, "alloc private")?,
                line_shift: r.varint("alloc line shift")? as u32,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let locks = (0..r.varint_len(1, "lock count")?)
        .map(|_| get_ranges(r))
        .collect::<Result<Vec<_>, _>>()?;
    let barriers = (0..r.varint_len(1, "barrier count")?)
        .map(|_| {
            let ranges = get_ranges(r)?;
            let partitions = match r.u8("has partitions")? {
                0 => None,
                _ => Some(
                    (0..r.varint_len(1, "partition count")?)
                        .map(|_| get_ranges(r))
                        .collect::<Result<Vec<_>, _>>()?,
                ),
            };
            Ok(BarrierSpec { ranges, partitions })
        })
        .collect::<Result<Vec<_>, WireError>>()?;

    let ops = (0..procs)
        .map(|_| {
            (0..r.varint_len(1, "op count")?)
                .map(|_| get_op(r))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after op streams"));
    }

    Ok(Trace {
        meta: TraceMeta {
            app,
            scale,
            verified,
            cfg,
            finish_cycles,
            messages,
            counters,
        },
        blueprint: SpecBlueprint {
            allocs,
            locks,
            barriers,
        },
        ops,
    })
}
