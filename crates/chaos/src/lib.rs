//! Fault injection for the coordinate sims.
//!
//! The paper studies attacks on a pristine network; this crate supplies the
//! *benign* adversity a deployment actually faces — churn, correlated loss
//! bursts, RTT spikes, partitions — so the `chaos-*` figure family can ask
//! whether the defenses still discriminate when the baseline is noisy
//! (does frog-boiling hide inside churn? do drift caps false-positive on
//! loss bursts?).
//!
//! Three pieces:
//!
//! - [`ChaosPlan`] — a declarative, seeded fault schedule (who crashes
//!   when, which windows partition which groups, the Gilbert–Elliott burst
//!   regime). Plans are plain data: serializable, comparable, and
//!   composable through the builder methods.
//! - [`BurstModel`] — the two-state Gilbert–Elliott chain upgrading
//!   `netsim::link::LinkModel` from i.i.d. loss to correlated bursts.
//! - [`ChaosState`] — the per-run interpreter the sims thread through
//!   their probe paths: [`ChaosState::advance`] applies due churn,
//!   [`ChaosState::probe_fate`] decides whether a probe times out.
//!
//! ## Determinism and inertness
//!
//! All randomness is drawn from the plan's own seeded stream, never from
//! the sims' streams, so installing an **empty** plan consumes zero draws
//! and a chaos-enabled sim is bitwise identical to a plain one (pinned by
//! proptest in `vcoord`'s `chaos_properties` suite). A sim with no plan
//! installed pays one `Option` discriminant check per probe — the
//! `no_alloc_chaos` tests hold the hot loops to their exact PR 7
//! allocation budgets.

#![forbid(unsafe_code)]

mod gilbert;
mod plan;
mod runtime;

pub use gilbert::{BurstFate, BurstModel};
pub use plan::{ChaosPlan, ChurnEvent, ChurnKind, PartitionWindow};
pub use runtime::{ChaosCounters, ChaosState, ProbeFate};
