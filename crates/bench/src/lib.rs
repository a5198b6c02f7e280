//! Paper-reproduction harness for the Banyan reproduction: one runner, one
//! sweep vocabulary, three binaries.
//!
//! * [`runner`] — a [`runner::Scenario`] in, a [`runner::Outcome`] out;
//!   every experiment shares its measurement methodology (§9.2 of the
//!   paper);
//! * [`sweep`] — closed-loop saturation sweeps, knee detection, and the
//!   one [`sweep::COLUMNS`] list their table and JSON are rendered from;
//! * [`goldens`] — the committed reports that pin the two binaries below;
//! * `--bin paper -- <experiment> [secs]` — every table and figure of the
//!   paper's §9 plus the ablations; `paper list` prints the index;
//! * `--bin saturation_sweep` — the sweeps, with their CI gates;
//! * `--bin crypto_microbench` — wall-clock CI gates with thresholds.
//!
//! Codec, hashing and signature timings are not measured here: they are
//! the `types.*` and `crypto.*` rows of the repository benchmark.

#![warn(missing_docs)]

pub mod goldens;
pub mod runner;
pub mod sweep;
