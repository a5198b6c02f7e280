//! The one TCP replica event loop. Every public runner
//! ([`run_replica_full`](crate::runner::run_replica_full),
//! [`run_replica_restarting`](crate::runner::run_replica_restarting),
//! [`run_replica_pipelined`](crate::pipeline::run_replica_pipelined)) is a
//! thin call into [`run`].
//!
//! Thread layout per replica:
//!
//! ```text
//!  acceptor ──spawns──► readers (one per inbound connection: decode frames)
//!                          │
//!                          ├─ inline ──────────────────────────┐
//!                          │                                   ▼
//!                          └─ staged ─► verify workers ─► event channel
//!                             (only with a PipelineConfig)     │
//!                                                              ▼
//!            engine loop (the calling thread)
//!              · shared with the simulator: EngineDriver (timers, action
//!                routing); ReplicaPool::{flush, intake, observe_outbound,
//!                observe_inbound, retire}; catchup::Inbound::classify and
//!                CatchUpState::drive
//!              · this loop's own: wall-clock time, the sockets, the
//!                fetch-peer rotation, crash / rejoin phases
//!              · Outbox: each outbound message encoded once (a broadcast
//!                once for all peers) and staged per peer
//!                                                              │
//!                              one batch per peer per engine step
//!                                                              ▼
//!            writers (one per peer: dial, redial on drop, drain a bounded
//!            queue of batches, one flush per drain — a slow peer never
//!            blocks the engine)
//! ```
//!
//! An engine step is everything the loop does between two waits: one
//! event (or timer wake-up), the timers due, the pool's gossip and a
//! catch-up drive. Its frames reach a peer's writer as one batch, handed
//! off just before the loop waits again, and the writer writes whatever
//! batches are queued and flushes once. Per-peer FIFO order is the order
//! of `transmit` calls, so the gossip-before-propose ordering at init and
//! rejoin holds on every connection.
//!
//! The verify stage is the loop's only fork, taken where a reader hands a
//! frame on (`Ingress`): inline readers send straight into the event
//! channel — no extra thread hop — staged ones to the verify worker
//! `from % W`. The engine loop itself is the shared
//! [`EngineDriver`]: it owns the timer heap (same deterministic
//! `(time, seq)` ordering the simulator uses, same stale-timer filtering)
//! and routes engine actions. What a replica does besides its engine —
//! gossip, dissemination intake, lease observation, commit retirement,
//! probe answering, catch-up — is `banyan_mempool::ReplicaPool`'s and
//! `banyan_storage::catchup`'s, the same code the simulator runs; this
//! module only supplies wall-clock time, sockets and the one decision a
//! socketed driver makes blind: which peer to fetch from.
//!
//! The acceptor blocks in `accept`; at stop the loop wakes it with one
//! connection to its own listener. Readers block in `read` with no
//! timeout, so a frame whose sender stalls between header and body is
//! never abandoned half-read. To stop, the acceptor shuts down its clone
//! of every accepted stream, which wakes the blocked readers with EOF; the
//! engine thread absorbs the event channel until every reader (and verify
//! worker) has hung up, so no decoded frame is lost at close.

use std::io::{BufReader, BufWriter, Write};
use std::iter;
use std::mem;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};

use banyan_mempool::{ReplicaPool, SharedConcurrentPool};
use banyan_runtime::driver::{AppSink, EngineDriver};
use banyan_storage::catchup::{frontier_info, CatchUpState, Inbound};
use banyan_types::app::App;
use banyan_types::engine::{CommitEntry, Engine, Outbound};
use banyan_types::ids::ReplicaId;
use banyan_types::message::Message;
use banyan_types::time::Time;

use crate::framing::{encode_frame, read_frame, write_hello, Frame};
use crate::pipeline::{PipelineConfig, PipelineStats, PipelineStatsSnapshot, VerifyStage};
use crate::runner::{TcpRestart, TcpRunReport};

/// Event-channel capacity into the engine loop.
const EVENT_QUEUE: usize = 4096;
/// Outbound-queue capacity per peer writer, in batches (engine steps).
const PEER_QUEUE: usize = 1024;
/// Per-step catch-up deadline (wall clock, 250 ms). Loopback round trips
/// are far below this; a lapsed window re-probes or rotates peers.
const CATCHUP_TIMEOUT: banyan_types::time::Duration = banyan_types::time::Duration(250_000_000);

type Event = (ReplicaId, Message);

/// The optional verify stage: its sizing and the pool its workers feed.
pub(crate) type Stage = (PipelineConfig, Option<SharedConcurrentPool>);

/// Where a reader hands a decoded frame — the loop's only fork.
#[derive(Clone)]
enum Ingress {
    /// Straight into the event channel.
    Inline(Sender<Event>),
    /// To a verify worker, counted `decoded`; same routing rule as
    /// [`VerifyStage::sender_for`].
    Staged(Vec<Sender<Event>>, Arc<PipelineStats>),
}

impl Ingress {
    /// Hands one frame on; `false` once the receiving side is gone.
    fn deliver(&self, from: ReplicaId, msg: Message) -> bool {
        match self {
            Ingress::Inline(tx) => tx.send((from, msg)).is_ok(),
            Ingress::Staged(txs, stats) => {
                stats.decoded.fetch_add(1, Ordering::Relaxed);
                txs[from.as_usize() % txs.len()].send((from, msg)).is_ok()
            }
        }
    }
}

/// One inbound connection: a hello, then frames until the stream ends
/// (peer gone, or shut down by the acceptor at stop).
fn read_frames(stream: TcpStream, ingress: &Ingress) {
    let mut reader = BufReader::new(stream);
    let Ok(Frame::Hello { .. }) = read_frame(&mut reader) else {
        return;
    };
    loop {
        match read_frame(&mut reader) {
            Ok(Frame::Msg { from, msg }) => {
                if !ingress.deliver(from, msg) {
                    return;
                }
            }
            Ok(Frame::Hello { .. }) => {}
            Err(_) => return,
        }
    }
}

/// Accepts inbound connections until `stop`, one reader thread each, then
/// wakes and joins every reader. `accept` blocks: whoever sets `stop`
/// then connects to `listener` once, so the acceptor wakes to see it.
fn spawn_acceptor(
    listener: TcpListener,
    ingress: Ingress,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::spawn(move || {
        // A clone of each accepted stream, kept to shut it down at stop.
        let mut readers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
        loop {
            let accepted = listener.accept();
            // Release/Acquire: `stop` is stored before the wake-up dial.
            if stop.load(Ordering::Acquire) {
                break;
            }
            let Ok((stream, _)) = accepted else {
                // A transient failure (a dialer that gave up, descriptors
                // exhausted): retry after a pause rather than spin.
                thread::sleep(Duration::from_millis(5));
                continue;
            };
            stream.set_nodelay(true).ok();
            let Ok(wake) = stream.try_clone() else {
                continue; // dropped: the peer's writer redials
            };
            // Peers that crashed and redialed leave finished readers behind.
            readers.retain(|(_, reader)| !reader.is_finished());
            let ingress = ingress.clone();
            readers.push((wake, thread::spawn(move || read_frames(stream, &ingress))));
        }
        for (wake, reader) in readers {
            let _ = wake.shutdown(Shutdown::Both);
            reader.join().expect("reader thread");
        }
    })
}

/// What an engine step hands one peer's writer: its frames for that peer,
/// encoded and in send order. A broadcast's frame is one allocation that
/// every peer's batch shares.
type Batch = Vec<Arc<Vec<u8>>>;

/// One peer's writer: dials (with retries — peers start in arbitrary
/// order), says hello and drains `rx`, redialing whenever the connection
/// drops so a peer that crashes and resumes listening becomes reachable
/// again (messages sent while it was down are lost, as on any wire).
/// Each wake-up writes every batch queued by then and flushes once.
/// Detached: it exits when `rx` disconnects or at its next `stop` check,
/// and joining it could wait on a hung peer's full socket buffer.
fn spawn_writer(me: ReplicaId, addr: SocketAddr, rx: Receiver<Batch>, stop: Arc<AtomicBool>) {
    thread::spawn(move || {
        'reconnect: while !stop.load(Ordering::Relaxed) {
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) if !stop.load(Ordering::Relaxed) => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => return,
                }
            };
            stream.set_nodelay(true).ok();
            let mut writer = BufWriter::new(stream);
            if write_hello(&mut writer, me).is_err() {
                continue 'reconnect;
            }
            while let Ok(batch) = rx.recv() {
                let written = iter::once(batch)
                    .chain(rx.try_iter())
                    .flatten()
                    .try_for_each(|frame| writer.write_all(&frame));
                if written.and_then(|()| writer.flush()).is_err() {
                    continue 'reconnect;
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            return; // outbound channel closed: the run is over
        }
    });
}

/// The sending side of the loop. `transmit` encodes each outbound message
/// once and stages the frame for every peer it addresses; `hand_off` ends
/// the engine step, giving each peer's writer its staged frames in one
/// queue operation.
struct Outbox<P> {
    me: ReplicaId,
    /// Observes every block this replica puts on the wire into the pool's
    /// lease table (speculative drain), and supplies the gossip.
    pool: Option<P>,
    /// Per peer (`None` at this replica's own index): its writer's queue
    /// and the frames staged for it in this step.
    peers: Vec<Option<(Sender<Batch>, Batch)>>,
    /// Frames a writer accepted. A batch refused by a full queue is
    /// dropped, its frames not sent.
    frames_sent: u64,
    /// Blocks served in catch-up batches, counted at the server (as in
    /// the simulator).
    sync_blocks_served: u64,
}

impl<P: ReplicaPool> Outbox<P> {
    /// Spawns a writer for every peer but `me`.
    fn connect(
        me: ReplicaId,
        pool: Option<P>,
        peers: &[SocketAddr],
        stop: &Arc<AtomicBool>,
    ) -> Self {
        let peers = peers
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                (i != me.as_usize()).then(|| {
                    let (tx, rx) = bounded(PEER_QUEUE);
                    spawn_writer(me, addr, rx, stop.clone());
                    (tx, Batch::new())
                })
            })
            .collect();
        Outbox {
            me,
            pool,
            peers,
            frames_sent: 0,
            sync_blocks_served: 0,
        }
    }

    fn transmit(&mut self, out: Outbound) {
        if let Some(pool) = &self.pool {
            pool.observe_outbound(&out);
        }
        let (Outbound::Broadcast(msg) | Outbound::Send(_, msg)) = &out;
        self.sync_blocks_served += msg.sync_batch_blocks().len() as u64;
        // Only a body past `u32::MAX` bytes fails to encode; no peer could
        // take it.
        let frame = |msg: &Message| encode_frame(self.me, msg).ok().map(Arc::new);
        match &out {
            Outbound::Broadcast(msg) => {
                let Some(frame) = frame(msg) else { return };
                for (_, staged) in self.peers.iter_mut().flatten() {
                    staged.push(frame.clone());
                }
            }
            Outbound::Send(to, msg) => {
                if let Some(Some((_, staged))) = self.peers.get_mut(to.as_usize()) {
                    staged.extend(frame(msg));
                }
            }
        }
    }

    /// Gossip: whatever the local pool has queued goes out — a `Forward`
    /// broadcast, or per-peer `Forward`/`Announce` sends when the pool has
    /// per-peer queues.
    fn gossip(&mut self) {
        // Collected first: `transmit` observes into the same pool.
        let mut frames = Vec::new();
        if let Some(pool) = &self.pool {
            pool.flush(&mut |out| frames.push(out));
        }
        frames.into_iter().for_each(|out| self.transmit(out));
    }

    /// Ends the engine step: each peer's staged frames go to its writer in
    /// one `try_send`. A full queue (a peer that stopped reading) refuses
    /// the batch, and its frames are lost, as on any wire.
    fn hand_off(&mut self) {
        for (writer, staged) in self.peers.iter_mut().flatten() {
            if staged.is_empty() {
                continue;
            }
            let frames = staged.len() as u64;
            if writer.try_send(mem::take(staged)).is_ok() {
                self.frames_sent += frames;
            }
        }
    }
}

/// Retires every commit in the local pool
/// ([`ReplicaPool::retire`] — exactly-once dedup, lease
/// retirement/release) before handing the block to the inner [`App`].
struct DedupApp<A, P> {
    app: A,
    pool: Option<P>,
}

impl<A: App, P: ReplicaPool> App for DedupApp<A, P> {
    fn deliver(&mut self, entry: &CommitEntry) {
        if let Some(pool) = &self.pool {
            pool.retire(entry);
        }
        self.app.deliver(entry);
    }
}

/// A rejoined replica's catch-up: the storage layer's machine plus the
/// one thing only this driver decides, whom to fetch from.
struct CatchUp {
    me: ReplicaId,
    n: usize,
    /// `Some` from rejoin on; kept once done, for its counters.
    machine: Option<CatchUpState>,
    /// Fetch-peer rotation: the driver cannot know which peers are up, so
    /// a stalled window retries elsewhere (the machine's stall budget
    /// bounds the rotation).
    rotor: usize,
    recovery_ms: u64,
}

impl CatchUp {
    /// Drives the machine, if one is still catching up. The event loop
    /// wakes at least every 10 ms and calls this on every pass, so a
    /// lapsed probe/fetch deadline needs no timer.
    fn drive(&mut self, engine: &dyn Engine, now: Time, transmit: &mut impl FnMut(Outbound)) {
        let Some(machine) = self.machine.as_mut().filter(|m| !m.is_done()) else {
            return;
        };
        let (me, n, rotor) = (self.me.as_usize(), self.n, &mut self.rotor);
        // Rotate through the other replicas in id order.
        let pick_peer = || {
            if n < 2 {
                return None; // nobody to ask
            }
            let off = 1 + *rotor % (n - 1);
            *rotor += 1;
            Some(ReplicaId(((me + off) % n) as u16))
        };
        machine.on_progress(engine.finalized_round());
        if !machine.drive(now, pick_peer, transmit) {
            self.recovery_ms = now.since(machine.started_at()).as_nanos() / 1_000_000;
        }
    }
}

/// Runs `engine` over TCP for `run_for`: inline when `stage` is `None`,
/// with verify workers between readers and this thread otherwise;
/// crashing and rejoining mid-run when `restart` says so. Returns the run
/// report and the verify stage's frame accounting (all zero when inline).
///
/// # Errors
///
/// Returns an I/O error if binding `listen` fails.
// The parameters are the three public runners' parameters, unioned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<P: ReplicaPool>(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<P>,
    stage: Option<Stage>,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    run_for: Duration,
    mut restart: Option<TcpRestart>,
) -> std::io::Result<(TcpRunReport, PipelineStatsSnapshot)> {
    let me = engine.id();
    let start = Instant::now();
    let now = || Time(start.elapsed().as_nanos() as u64);
    let stop = Arc::new(AtomicBool::new(false));

    let listener = TcpListener::bind(listen)?;
    let wake_acceptor = listener.local_addr()?;
    let (event_tx, event_rx) = bounded::<Event>(EVENT_QUEUE);
    let mut verify =
        stage.map(|(config, pool)| VerifyStage::spawn(&config, pool, event_tx.clone()));
    let ingress = match &verify {
        Some(stage) => Ingress::Staged(stage.senders(), stage.stats.clone()),
        None => Ingress::Inline(event_tx.clone()),
    };
    // Readers and workers now hold the only event senders, so the channel
    // disconnects exactly when the last of them has exited.
    drop(event_tx);
    let acceptor = spawn_acceptor(listener, ingress, stop.clone());

    // The shared driver owns timers, stale filtering and action routing;
    // the outbox is the only transport-specific piece of the loop.
    let mut outbox = Outbox::connect(me, pool.clone(), &peers, &stop);
    let mut messages_received = 0u64;

    let sink = AppSink {
        inner: Vec::<CommitEntry>::new(),
        app: DedupApp {
            app,
            pool: pool.clone(),
        },
    };
    // Disseminate before proposing: requests already pooled locally are
    // forwarded ahead of the init proposal in every per-peer channel, so
    // per-connection ordering lands them in peer pools before any block
    // that could commit them (a quorum excluding this replica can commit
    // its init proposal arbitrarily soon after it is sent).
    outbox.gossip();
    let mut first_life = EngineDriver::new(engine, sink);
    first_life.init(now(), |out| outbox.transmit(out));
    // `None` while the replica is down mid-restart; the sink (the commit
    // log already delivered to the app) is parked in `down_sink` so the
    // report spans both lives.
    let mut driver = Some(first_life);
    let mut down_sink = None;
    let mut stale_accum = 0u64;
    let mut catchup = CatchUp {
        me,
        n: peers.len(),
        machine: None,
        rotor: 0,
        recovery_ms: 0,
    };

    while start.elapsed() < run_for {
        if let Some(plan) = &restart {
            if driver.is_some() && start.elapsed() >= plan.crash_after {
                // Crash: drop the engine and its timer heap. All volatile
                // state is gone; only durable storage (the WAL) and the
                // commits already delivered downstream survive.
                let d = driver.take().expect("engine up");
                stale_accum += d.stale_timers_dropped();
                down_sink = Some(d.into_sink());
            }
            if driver.is_none() && start.elapsed() >= plan.rejoin_after {
                let plan = restart.take().expect("restart plan");
                // Rebuild from durable state only (reopens the WAL).
                let engine = (plan.rebuild)();
                assert_eq!(engine.id(), me, "restart rebuilt the wrong replica");
                let frontier = engine.finalized_round();
                let mut d = EngineDriver::new(engine, down_sink.take().expect("parked sink"));
                // Same gossip-before-propose ordering as the first life:
                // requests pooled while down go out ahead of the rejoin
                // proposal.
                outbox.gossip();
                d.init(now(), |out| outbox.transmit(out));
                catchup.machine = Some(CatchUpState::new(frontier, now(), CATCHUP_TIMEOUT));
                catchup.drive(d.engine(), now(), &mut |out| outbox.transmit(out));
                driver = Some(d);
            }
        }
        let Some(d) = driver.as_mut() else {
            // Down: a dead process reads nothing. Drain and discard so
            // the bounded channel never backpressures the readers. What
            // the last step before the crash sent still leaves.
            outbox.hand_off();
            while event_rx.try_recv().is_ok() {}
            thread::sleep(Duration::from_millis(2));
            continue;
        };

        d.fire_due(now(), |out| outbox.transmit(out));
        outbox.gossip();
        catchup.drive(d.engine(), now(), &mut |out| outbox.transmit(out));
        // The step is over: its frames leave, one batch per peer. Then
        // wait for the next event or timer; on timeout the loop simply
        // re-checks timers and the deadline.
        outbox.hand_off();
        let wait = d
            .next_deadline()
            .map(|at| Duration::from_nanos(at.0.saturating_sub(now().0)))
            .unwrap_or(Duration::from_millis(10))
            .min(Duration::from_millis(10));
        let Ok((from, msg)) = event_rx.recv_timeout(wait) else {
            continue;
        };
        messages_received += 1;
        match Inbound::classify(msg) {
            // Feeds the pool, never the engine (the same contract the
            // simulator enforces). Inline only: the verify workers absorb
            // dissemination frames before the event channel.
            Inbound::Dissemination(frame) => {
                if let Some(pool) = &pool {
                    pool.intake(from, frame);
                }
            }
            // Answered from the engine's commit frontier without
            // delivering (engines stay pure).
            Inbound::FrontierProbe => {
                outbox.transmit(frontier_info(from, d.engine().finalized_round()));
            }
            Inbound::FrontierInfo(finalized) => {
                if let Some(machine) = &mut catchup.machine {
                    machine.on_frontier(finalized);
                }
                catchup.drive(d.engine(), now(), &mut |out| outbox.transmit(out));
            }
            Inbound::Engine(msg) => {
                // Speculative drain: arriving blocks are observed too —
                // here when inline; the verify workers already recorded
                // the lease under the hash they computed.
                if let (None, Some(pool)) = (&verify, &pool) {
                    pool.observe_inbound(&msg);
                }
                d.handle_message(from, msg, now(), |out| outbox.transmit(out));
                // Adopted batches may have advanced the frontier.
                catchup.drive(d.engine(), now(), &mut |out| outbox.transmit(out));
            }
        }
    }

    // The last step's frames leave. Then a loss-free close: wake the
    // acceptor (which wakes the readers), release the verify stage's own
    // input senders, and absorb the tail until every reader and worker
    // has hung up — so none of them blocks on a full channel and every
    // decoded frame is accounted for.
    outbox.hand_off();
    stop.store(true, Ordering::Release);
    // Our own listener, bound and listening: the dial ends its `accept`.
    let _ = TcpStream::connect(wake_acceptor);
    if let Some(stage) = &mut verify {
        stage.close();
    }
    while event_rx.recv().is_ok() {
        messages_received += 1;
    }
    acceptor.join().expect("acceptor thread");
    let stats = verify.map(|stage| {
        let stats = stage.stats.clone();
        stage.shutdown();
        stats.snapshot()
    });

    let (commits, stale_timers_dropped, wal_bytes, verified) = match driver {
        Some(d) => {
            let stale = stale_accum + d.stale_timers_dropped();
            let wal = d.engine().wal_bytes();
            let verify = d.engine().verify_stats();
            (d.into_sink().inner, stale, wal, verify)
        }
        // Crashed and never rejoined before the deadline: report the
        // first life's commits.
        None => (
            down_sink.map(|s| s.inner).unwrap_or_default(),
            stale_accum,
            0,
            Default::default(),
        ),
    };
    let report = TcpRunReport {
        commits,
        messages_received,
        messages_sent: outbox.frames_sent,
        stale_timers_dropped,
        sync_requests: catchup
            .machine
            .as_ref()
            .map_or(0, CatchUpState::requests_issued),
        sync_blocks_served: outbox.sync_blocks_served,
        restart_recovery_ms: catchup.recovery_ms,
        wal_bytes,
        sigs_verified: verified.sigs_verified,
        verify_batches: verified.verify_batches,
        cert_cache_hits: verified.cert_cache_hits,
        verify_cpu_ms: verified.verify_cpu_ms(),
    };
    Ok((report, stats.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::write_msg;
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::SharedMempool;
    use banyan_types::app::NullApp;
    use banyan_types::message::SyncMsg;
    use banyan_types::time::Duration as BDuration;

    /// Addresses nobody listens on: a writer dialing one never connects,
    /// so it never drains its queue.
    fn unreachable_addrs(k: usize) -> Vec<SocketAddr> {
        let listeners: Vec<TcpListener> = (0..k)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect()
    }

    /// `messages_sent` counts frames a writer accepted. Replica 1 floods
    /// the replica with `FrontierProbe`s while its own address refuses
    /// connections, so the answers pile up in its writer's queue; once
    /// `PEER_QUEUE` batches wait there, the rest are refused, and must not
    /// count as sent. The engine's Δ outlasts the run, so no timer adds
    /// traffic of its own.
    #[test]
    fn answers_refused_by_a_full_peer_queue_are_not_counted_as_sent() {
        let _serial = crate::loopback_serial_lock();
        const PROBES: usize = PEER_QUEUE + 200;
        let replica = TcpListener::bind("127.0.0.1:0").expect("bind");
        let listen = replica.local_addr().expect("addr");
        drop(replica);
        let mut peers = vec![listen];
        peers.extend(unreachable_addrs(3));

        let engine = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_secs(60))
            .build_hotstuff()
            .swap_remove(0);
        let run_for = Duration::from_millis(2000);
        let run = thread::spawn(move || {
            let pool = None::<SharedMempool>;
            run(engine, NullApp, pool, None, listen, peers, run_for, None)
        });

        let mut wire = Vec::new();
        write_hello(&mut wire, ReplicaId(1)).expect("hello");
        let probe = Message::Sync(SyncMsg::FrontierProbe);
        for _ in 0..PROBES {
            write_msg(&mut wire, ReplicaId(1), &probe).expect("encode");
        }
        let mut out = loop {
            match TcpStream::connect(listen) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        out.write_all(&wire).expect("probes");
        drop(out);

        let (report, _) = run.join().expect("replica thread").expect("replica run");
        assert_eq!(report.messages_received, PROBES as u64, "every probe read");
        assert!(
            report.messages_sent >= PEER_QUEUE as u64,
            "the queue took fewer than PEER_QUEUE answers: {}",
            report.messages_sent
        );
        assert!(
            report.messages_sent < PROBES as u64,
            "{} frames counted as sent, but at most PEER_QUEUE of the {PROBES} answers fit replica 1's queue",
            report.messages_sent
        );
    }

    /// A sender that stalls 120 ms between a frame's header and its body
    /// must not desynchronize the reader: the frame arrives intact, inline
    /// and staged. The frame is a `FrontierProbe`, and the replica runs
    /// HotStuff — which ignores sync traffic — so the `FrontierInfo` that
    /// comes back can only be the driver's answer.
    #[test]
    fn stalled_frame_arrives_intact_and_the_driver_answers_the_probe() {
        let _serial = crate::loopback_serial_lock();
        for staged in [false, true] {
            let replica = TcpListener::bind("127.0.0.1:0").expect("bind");
            let me_as_peer = TcpListener::bind("127.0.0.1:0").expect("bind");
            let listen = replica.local_addr().expect("addr");
            let peers = vec![listen, me_as_peer.local_addr().expect("addr")];
            drop(replica);

            let engine = ClusterBuilder::new(4, 1, 1)
                .unwrap()
                .build_hotstuff()
                .swap_remove(0);
            let stage = staged.then(|| (PipelineConfig::default(), None));
            let run_for = Duration::from_millis(1500);
            let run = thread::spawn(move || {
                let pool = None::<SharedMempool>;
                run(engine, NullApp, pool, stage, listen, peers, run_for, None)
            });

            // Play replica 1: hello, then a probe split after its 6-byte
            // header.
            let mut out = loop {
                match TcpStream::connect(listen) {
                    Ok(s) => break s,
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            };
            out.set_nodelay(true).expect("nodelay");
            write_hello(&mut out, ReplicaId(1)).expect("hello");
            let mut frame = Vec::new();
            write_msg(
                &mut frame,
                ReplicaId(1),
                &Message::Sync(SyncMsg::FrontierProbe),
            )
            .expect("encode");
            out.write_all(&frame[..6]).expect("header");
            thread::sleep(Duration::from_millis(120));
            out.write_all(&frame[6..]).expect("body");

            // Everything the replica sends replica 1, until it hangs up.
            let (inbound, _) = me_as_peer.accept().expect("replica dials its peer");
            inbound
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut inbound = BufReader::new(inbound);
            let mut answers = 0;
            while let Ok(frame) = read_frame(&mut inbound) {
                if let Frame::Msg {
                    msg: Message::Sync(SyncMsg::FrontierInfo { .. }),
                    ..
                } = frame
                {
                    answers += 1;
                }
            }

            let (report, stats) = run.join().expect("replica thread").expect("replica run");
            assert_eq!(
                report.messages_received, 1,
                "staged={staged}: the stalled frame was lost or mangled"
            );
            assert_eq!(
                answers, 1,
                "staged={staged}: probe not answered by the driver"
            );
            if staged {
                assert_eq!((stats.decoded, stats.verified, stats.rejected), (1, 1, 0));
            }
        }
    }
}
