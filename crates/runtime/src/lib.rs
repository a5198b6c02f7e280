//! The shared replica layer.
//!
//! Every deployment of a Banyan [`Engine`](banyan_types::engine::Engine) —
//! the discrete-event simulator (`banyan-simnet`) and the TCP runner
//! (`banyan-transport`) — must handle frames, timers, crashes and catch-up
//! *identically*, or the repo's core claim ("simulation results transfer
//! to real sockets because both drive the same engine") falls apart. This
//! crate is that single implementation:
//!
//! * [`queue::EventQueue`] — the deterministic min-heap every driver
//!   schedules on: entries pop by time, ties broken by insertion sequence.
//! * [`driver::Replica`] — one replica step: per-frame dispatch (engine,
//!   request pool, frontier probes, catch-up), timers (those of rounds
//!   the engine has left are dropped undelivered), action routing, crash
//!   and rejoin. Its effects go to a [`driver::ReplicaIo`], the only thing a
//!   driver writes.
//!
//! Nothing here performs I/O, reads a clock or draws randomness; drivers
//! inject time and transport. That keeps every run reproducible from its
//! inputs.

pub mod driver;
pub mod queue;

pub use driver::{Due, Replica, ReplicaIo};
pub use queue::EventQueue;
