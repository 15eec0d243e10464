//! Attack strategies against Internet coordinate systems (paper §4/§5).
//!
//! The taxonomy of §4 maps onto these implementations:
//!
//! | class | Vivaldi (§5.3) | NPS (§5.4) |
//! |-------|----------------|------------|
//! | Disorder | [`vivaldi::VivaldiDisorder`] | [`nps::NpsSimpleDisorder`], [`nps::NpsAntiDetection`] |
//! | Repulsion | [`vivaldi::VivaldiRepulsion`] (incl. subset targeting) | — |
//! | Isolation (collusion) | [`vivaldi::VivaldiCollusionRepel`], [`vivaldi::VivaldiCollusionLure`] | [`nps::NpsCollusionIsolation`] |
//! | System control | emerges from error propagation in 4-layer NPS (fig. 24/25) | idem |
//! | Combined | [`vivaldi::VivaldiCombined`] | [`nps::NpsCombined`] |
//!
//! All coordinate/delay arithmetic shared between strategies lives in
//! [`geometry`], which is unit-tested against the paper's closed forms.

pub(crate) mod geometry;
pub(crate) mod nps;
pub(crate) mod vivaldi;
