//! The ICC / Banyan protocol family (§4–§7 of the paper).
//!
//! * [`engine::ChainedEngine`] — the replica state machine, in
//!   [`engine::PathMode::IccOnly`] (slow path, the ICC baseline) or
//!   [`engine::PathMode::Banyan`] (integrated fast path) flavor.
//! * [`unlock`] — fast-vote support tracking and the Definition 7.6
//!   unlock conditions.
//! * [`round`] — per-round vote tables and flags.

pub mod engine;
pub mod round;
pub mod unlock;

pub use engine::{ByzantineMode, ChainedEngine, PathMode};
pub use unlock::UnlockState;
