//! # vcoord-metrics
//!
//! The evaluation pipeline of the CoNEXT'06 study (§5.1):
//!
//! * [`relative_error`] — the paper's error definition,
//!   `|actual − predicted| / min(actual, predicted)`.
//! * [`EvalPlan`] — per-node relative errors over all pairs or a fixed random
//!   peer sample, evaluated against a latency matrix.
//! * [`Cdf`] — cumulative distributions for the many CDF figures.
//! * [`TimeSeries`] — tick-indexed series with tail-window summaries, for the
//!   error-vs-time figures.
//! * [`FilterLedger`] — accounting of NPS security-filter events (malicious
//!   vs honest references filtered), for figures 20 and 22.
//! * [`Confusion`] — node-level detection quality (TP/FP/TN/FN with
//!   TPR/FPR), for the defense sweeps and ROC figures.
//! * [`random_baseline`] — the worst-case *random coordinate system* where
//!   every component is drawn from `[-50000, 50000]`.
//! * [`stats`] — small summary-statistics helpers.
//! * [`worker_threads`] — worker-pool sizing under one process-wide budget,
//!   shared by both parallel seams in the workspace (job grid, [`EvalPlan`]
//!   chunked evaluation).

#![forbid(unsafe_code)]

pub mod cdf;
pub mod detection;
pub mod error;
pub mod ledger;
pub mod parallel;
pub mod series;
pub mod stats;

pub use cdf::Cdf;
pub use detection::Confusion;
pub use error::{random_baseline, random_baseline_with, relative_error, EvalPlan};
pub use ledger::FilterLedger;
pub use parallel::worker_threads;
pub use series::TimeSeries;
