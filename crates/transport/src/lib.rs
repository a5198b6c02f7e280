//! TCP transport for the Banyan BFT engines.
//!
//! The same [`banyan_types::engine::Engine`] state machines that run under
//! the discrete-event simulator run here over real sockets: length-prefixed
//! frames on `std::net::TcpStream`, and one engine loop per replica that
//! owns the timer heap, dials, reads and writes every one of its
//! non-blocking sockets itself and waits on all of them in one `ppoll(2)`.
//! No async runtime and no helper threads: one thread per replica
//! (`docs/ARCHITECTURE.md`, "Concurrent pool & replica loop"). The loop's
//! body is one step that reads no clock, so the tests run whole clusters
//! of it in one thread in virtual time.
//!
//! The public runners in [`runner`] and [`pipeline`] are thin calls into
//! the one loop (the private `replica` module) that differ only in the
//! pool they attach and whether the replica crashes and rejoins.
//!
//! Synthetic payloads stay synthetic on the wire (16 bytes + declared
//! size); bandwidth-sensitive measurements live in `banyan-simnet`, whose
//! egress model charges the declared size. Payloads come from each
//! engine's [`banyan_types::app::ProposalSource`], and finalized blocks go
//! to the [`banyan_types::app::App`] passed to
//! [`runner::run_replica_full`].
//!
//! # Examples
//!
//! ```no_run
//! use banyan_core::builder::ClusterBuilder;
//! use banyan_transport::run_local_cluster;
//!
//! let engines = ClusterBuilder::new(4, 1, 1)
//!     .expect("valid parameters")
//!     .payload_size(1024)
//!     .build_banyan();
//! let reports = run_local_cluster(engines, std::time::Duration::from_secs(5));
//! assert_eq!(reports.len(), 4);
//! ```

mod conn;
pub mod framing;
pub mod pipeline;
mod poll;
mod replica;
pub mod runner;

pub use framing::{encode_frame, read_frame, write_hello, write_msg, Frame, MAX_FRAME};
pub use pipeline::{
    run_replica_pipelined, PipelineConfig, PipelineRunReport, PipelineStats, PipelineStatsSnapshot,
};
pub use runner::{run_local_cluster, run_replica_full, TcpRunReport};

/// Serializes the tests that run replicas over loopback sockets: on
/// small (single-core CI) machines letting them overlap starves whole
/// replicas of CPU for seconds at a time, flaking their timing
/// assertions. Poisoning is ignored — one failed test must not cascade.
#[cfg(test)]
pub(crate) fn loopback_serial_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
