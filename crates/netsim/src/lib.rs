//! # vcoord-netsim
//!
//! A deterministic, synchronous discrete-event network simulator — the
//! workspace's stand-in for p2psim (which the paper uses for Vivaldi) and for
//! the authors' bespoke event-driven NPS simulator.
//!
//! Following the workspace guide conformance notes (`DESIGN.md`): the
//! simulation is CPU-bound and deterministic, so the engine is *synchronous*
//! event-driven code — no async runtime — in the spirit of smoltcp's
//! "standalone, event-driven" design. Parallelism (across independent
//! simulation runs) belongs to the caller, not this engine.
//!
//! * [`Engine`] / [`World`] / [`Scheduler`] — the event loop. Protocols
//!   implement [`World`]; the engine owns the clock and the queue and
//!   guarantees deterministic FIFO ordering among same-timestamp events.
//! * [`Injected`] — a world's slot for state installed at the injection
//!   instant; an empty slot clones empty, a filled one refuses to clone.
//! * [`SeedStream`] — labelled, portable RNG streams derived from one master
//!   seed (ChaCha12; stable across platforms and `rand` upgrades).
//! * [`LinkModel`] — smoltcp-style fault injection (probe loss, jitter) used
//!   by the examples' `--loss`/`--jitter` flags.

#![forbid(unsafe_code)]

mod engine;
mod link;
mod seed;
mod time;

pub use engine::{Engine, Injected, NodeId, Scheduler, World};
pub use link::LinkModel;
/// The trait a [`SeedStream`] stream draws words through, for callers with
/// no `rand` dependency of their own.
pub use rand::RngCore;
pub use seed::SeedStream;
pub use time::{from_ms_f64, Duration, Time, TICK_MS};
