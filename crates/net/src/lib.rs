//! Transport abstraction for the Midway DSM reproduction.
//!
//! The DSM protocol engine in `midway-core` was written against the
//! virtual-time simulator's `ProcHandle`. This crate extracts that
//! surface into the [`Transport`] trait and provides the second
//! implementation the paper's real 8-node cluster calls for:
//! [`RealTransport`], which runs one OS thread per processor over real
//! loopback sockets with a wall clock standing in for the virtual clock.
//!
//! ```text
//!                    protocol engine (midway-core)
//!                               │ generic over
//!                               ▼
//!                        trait Transport
//!                        ┌──────┴────────┐
//!             ProcHandle<M>          RealTransport<M: Wire>
//!          (midway-sim, impl #1)      (this crate, impl #2)
//!          virtual time, exactly     wall clock, OS threads,
//!          reproducible              TCP or lossy UDP loopback
//! ```
//!
//! Real frames are serialized with the dependency-free [`Wire`] codec;
//! [`RealCluster::run`] is the socket-backed counterpart of the
//! simulator's `Cluster::run_async`.

mod hub;
mod real;
mod transport;
mod wire;

pub use real::{
    RealCluster, RealConfig, RealError, RealMode, RealOutcome, RealTransport, MAX_UDP_PAYLOAD,
};
pub use transport::Transport;
pub use wire::{
    decode_exact, encode_to_vec, fnv1a64, put_bytes, put_u32, put_u64, put_varint, Wire, WireError,
    WireReader,
};
