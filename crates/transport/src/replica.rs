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
//!                once for all peers) into every addressed peer's backlog
//!                                                              │
//!                 non-blocking writes at the end of every engine step
//!                                                              ▼
//!            one outbound socket per peer (a dialer thread connects it,
//!            and redials after a write error, without blocking the loop)
//! ```
//!
//! An engine step is everything the loop does between two waits: the
//! event it waited for and up to `STEP_EVENTS - 1` more already queued,
//! the timers due, the pool's gossip and a catch-up drive. Just before the
//! loop waits again, each peer's backlog is written to its socket with
//! `write_vectored` until the backlog is empty or the socket would block;
//! a full socket delays only that peer, whose backlog then caps the wait
//! so the rest is retried soon. A frame the socket took only part of
//! resumes at its offset. Per-peer FIFO order is the order of `transmit`
//! calls, so the gossip-before-propose ordering at init and rejoin holds on
//! every connection.
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

use std::collections::VecDeque;
use std::io::{self, BufReader, IoSlice, Write};
use std::iter;
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
/// Events one engine step takes: the one it waited for and those already
/// queued behind it, so replies to a burst leave in one write per peer.
const STEP_EVENTS: usize = 64;
/// Frames one peer's backlog holds. Past it, what is sent to a peer that
/// stopped reading (or is not connected) is lost, as on any wire.
const BACKLOG: usize = 4096;
/// The loop's longest wait while a backlog holds frames its socket could
/// not take yet.
const RETRY_WRITE: Duration = Duration::from_micros(200);
/// Frames one `write_vectored` call hands the kernel.
const IOV: usize = 64;
/// A dialer's longest pause between connection attempts. The first is
/// 100 µs and each failure doubles it: peers started together begin
/// listening within about a millisecond of each other, and one that is
/// down costs an attempt every 20 ms.
const REDIAL: Duration = Duration::from_millis(20);
/// Per-step catch-up deadline (wall clock, 250 ms). Loopback round trips
/// are far below this; a lapsed window re-probes or rotates peers.
const CATCHUP_TIMEOUT: banyan_types::time::Duration = banyan_types::time::Duration(250_000_000);

type Event = (ReplicaId, Message);
/// A stream a dialer connected, and the index of the peer it reaches.
type Dialed = (usize, TcpStream);

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
/// (peer gone, or shut down by the acceptor at stop). The hello names the
/// sender of every frame on the connection: a frame naming anyone else,
/// or a second hello, ends it.
fn read_frames(stream: TcpStream, ingress: &Ingress) {
    let mut reader = BufReader::new(stream);
    let Ok(Frame::Hello { from: peer }) = read_frame(&mut reader) else {
        return;
    };
    while let Ok(Frame::Msg { from, msg }) = read_frame(&mut reader) {
        if from != peer || !ingress.deliver(from, msg) {
            return;
        }
    }
}

/// Accepts inbound connections until `stop`, one reader thread each, then
/// wakes and joins every reader. `accept` blocks: whoever sets `stop`
/// then connects to `listener` once, so the acceptor wakes to see it.
fn spawn_acceptor(
    me: ReplicaId,
    listener: TcpListener,
    ingress: Ingress,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    named(me, "acceptor")
        .spawn(move || {
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
                    continue; // dropped: the peer redials
                };
                // Peers that crashed and redialed leave finished readers behind.
                readers.retain(|(_, reader)| !reader.is_finished());
                let ingress = ingress.clone();
                let reader = named(me, "reader")
                    .spawn(move || read_frames(stream, &ingress))
                    .expect("spawn reader thread");
                readers.push((wake, reader));
            }
            for (wake, reader) in readers {
                let _ = wake.shutdown(Shutdown::Both);
                reader.join().expect("reader thread");
            }
        })
        .expect("spawn acceptor thread")
}

/// A builder for this replica's `role` thread, named for per-role CPU
/// accounting (`/proc/<pid>/task/*/comm`).
fn named(me: ReplicaId, role: &str) -> thread::Builder {
    thread::Builder::new().name(format!("replica-{}-{role}", me.0))
}

/// Connects to `addr`, says hello, and makes the stream non-blocking.
fn dial(me: ReplicaId, addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_hello(&mut stream, me)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Dials peer `peer` until it answers (peers start in arbitrary order, and
/// one that crashed may resume listening), then hands the stream back on
/// `dialed`. Detached: it exits at its next `stop` check, and joining it
/// could wait on a connect to a dead host.
fn spawn_dialer(
    me: ReplicaId,
    peer: usize,
    addr: SocketAddr,
    dialed: Sender<Dialed>,
    stop: Arc<AtomicBool>,
) {
    named(me, "dialer")
        .spawn(move || {
            let mut pause = Duration::from_micros(100);
            while !stop.load(Ordering::Relaxed) {
                match dial(me, addr) {
                    Ok(stream) => {
                        let _ = dialed.send((peer, stream));
                        return;
                    }
                    Err(_) => {
                        thread::sleep(pause);
                        pause = (pause * 2).min(REDIAL);
                    }
                }
            }
        })
        .expect("spawn dialer thread");
}

/// One peer's outbound connection and the frames not yet written to it.
struct Peer {
    addr: SocketAddr,
    /// `None` while a dialer connects (exactly one is then running).
    stream: Option<TcpStream>,
    /// Encoded frames in `transmit` order. A broadcast's frame is one
    /// allocation every peer's backlog shares.
    backlog: VecDeque<Arc<Vec<u8>>>,
    /// Bytes of the head frame already written.
    written: usize,
}

impl Peer {
    /// Queues `frame` unless the backlog is full; `true` if it was taken.
    fn stage(&mut self, frame: &Arc<Vec<u8>>) -> bool {
        let room = self.backlog.len() < BACKLOG;
        if room {
            self.backlog.push_back(frame.clone());
        }
        room
    }

    /// Writes the backlog until it is empty or the socket would block.
    fn write(&mut self) -> io::Result<()> {
        let Some(stream) = &mut self.stream else {
            return Ok(());
        };
        while let Some(head) = self.backlog.front() {
            let mut iov = [IoSlice::new(&[]); IOV];
            for (slot, frame) in iov.iter_mut().zip(&self.backlog) {
                *slot = IoSlice::new(frame);
            }
            iov[0] = IoSlice::new(&head[self.written..]);
            let mut n = match stream.write_vectored(&iov[..self.backlog.len().min(IOV)]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // Retire what the kernel took; a frame it took only part of
            // stays at the head, to resume at `written`.
            while let Some(head) = self.backlog.front() {
                let left = head.len() - self.written;
                if n < left {
                    self.written += n;
                    break;
                }
                n -= left;
                self.written = 0;
                self.backlog.pop_front();
            }
        }
        Ok(())
    }
}

/// The sending side of the loop. `transmit` encodes each outbound message
/// once into the backlog of every peer it addresses; `hand_off` ends the
/// engine step, writing every backlog its socket will take.
struct Outbox<P> {
    me: ReplicaId,
    /// Observes every block this replica puts on the wire into the pool's
    /// lease table (speculative drain), and supplies the gossip.
    pool: Option<P>,
    /// Per peer; `None` at this replica's own index.
    peers: Vec<Option<Peer>>,
    /// Where dialers hand back the streams they connected: a clone of
    /// `dialer_tx` goes to each.
    dialed: Receiver<Dialed>,
    dialer_tx: Sender<Dialed>,
    stop: Arc<AtomicBool>,
    /// Frames a backlog accepted. A frame a full backlog refuses is
    /// dropped, not sent.
    frames_sent: u64,
    /// Blocks served in catch-up batches, counted at the server (as in
    /// the simulator).
    sync_blocks_served: u64,
}

impl<P: ReplicaPool> Outbox<P> {
    /// Dials every peer but `me` once, here, so the first connections wait
    /// on no thread; a peer not listening yet gets a dialer.
    fn connect(
        me: ReplicaId,
        pool: Option<P>,
        peers: &[SocketAddr],
        stop: &Arc<AtomicBool>,
    ) -> Self {
        let (dialer_tx, dialed) = bounded(peers.len().max(1));
        let peers = peers
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                (i != me.as_usize()).then(|| {
                    let stream = dial(me, addr).ok();
                    if stream.is_none() {
                        spawn_dialer(me, i, addr, dialer_tx.clone(), stop.clone());
                    }
                    Peer {
                        addr,
                        stream,
                        backlog: VecDeque::new(),
                        written: 0,
                    }
                })
            })
            .collect();
        Outbox {
            me,
            pool,
            peers,
            dialed,
            dialer_tx,
            stop: stop.clone(),
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
        let me = self.me;
        let frame = |msg: &Message| encode_frame(me, msg).ok().map(Arc::new);
        match &out {
            Outbound::Broadcast(msg) => {
                let Some(frame) = frame(msg) else { return };
                for peer in self.peers.iter_mut().flatten() {
                    self.frames_sent += u64::from(peer.stage(&frame));
                }
            }
            Outbound::Send(to, msg) => {
                if let Some(Some(peer)) = self.peers.get_mut(to.as_usize()) {
                    if let Some(frame) = frame(msg) {
                        self.frames_sent += u64::from(peer.stage(&frame));
                    }
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

    /// Ends the engine step: streams the dialers connected are taken in,
    /// then every backlog is written until it is empty or its socket would
    /// block. A write error drops the connection, and with it the frame it
    /// cut; the rest of the backlog waits for a dialer to reconnect.
    fn hand_off(&mut self) {
        for (i, stream) in self.dialed.try_iter() {
            if let Some(Some(peer)) = self.peers.get_mut(i) {
                peer.stream = Some(stream);
            }
        }
        for (i, peer) in self.peers.iter_mut().enumerate() {
            let Some(peer) = peer else { continue };
            if peer.write().is_ok() {
                continue;
            }
            peer.stream = None;
            if peer.written > 0 {
                peer.backlog.pop_front();
                peer.written = 0;
            }
            spawn_dialer(
                self.me,
                i,
                peer.addr,
                self.dialer_tx.clone(),
                self.stop.clone(),
            );
        }
    }

    /// True while some backlog holds frames not yet written.
    fn pending(&self) -> bool {
        self.peers
            .iter()
            .flatten()
            .any(|peer| !peer.backlog.is_empty())
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
    let acceptor = spawn_acceptor(me, listener, ingress, stop.clone());

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
        // The step is over: its frames leave, each peer's in as few
        // writes as its socket takes. Then wait for the next event or
        // timer — briefly while a socket refused part of a backlog; on
        // timeout the loop simply re-checks timers and the deadline.
        outbox.hand_off();
        let mut wait = d
            .next_deadline()
            .map(|at| Duration::from_nanos(at.0.saturating_sub(now().0)))
            .unwrap_or(Duration::from_millis(10))
            .min(Duration::from_millis(10));
        if outbox.pending() {
            wait = wait.min(RETRY_WRITE);
        }
        let Ok(first) = event_rx.recv_timeout(wait) else {
            continue;
        };
        let queued = event_rx.try_iter().take(STEP_EVENTS - 1);
        for (from, msg) in iter::once(first).chain(queued) {
            messages_received += 1;
            match Inbound::classify(msg) {
                // Feeds the pool, never the engine (the same contract the
                // simulator enforces). Inline only: the verify workers
                // absorb dissemination frames before the event channel.
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
    use std::sync::mpsc;

    /// Addresses nobody listens on: a dialer never connects to one, so
    /// its backlog is never written.
    fn unreachable_addrs(k: usize) -> Vec<SocketAddr> {
        let listeners: Vec<TcpListener> = (0..k)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect()
    }

    fn listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    /// Replica 0 on `peers[0]`, on a thread of its own, running HotStuff:
    /// its Δ outlasts the run, so no timer adds traffic of its own, and it
    /// ignores sync traffic, so every `FrontierInfo` it sends is the
    /// driver's answer to a probe. The report arrives on the channel.
    fn spawn_replica(peers: Vec<SocketAddr>, run_for: Duration) -> mpsc::Receiver<TcpRunReport> {
        let engine = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_secs(60))
            .build_hotstuff()
            .swap_remove(0);
        let (done, report) = mpsc::channel();
        thread::spawn(move || {
            let pool = None::<SharedMempool>;
            let listen = peers[0];
            let run = run(engine, NullApp, pool, None, listen, peers, run_for, None);
            let _ = done.send(run.expect("replica run").0);
        });
        report
    }

    /// Dials the replica at `listen`, retrying until it listens.
    fn dial_replica(listen: SocketAddr) -> TcpStream {
        loop {
            match TcpStream::connect(listen) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// `n` probes framed as sent by `from`.
    fn probes(from: ReplicaId, n: usize) -> Vec<u8> {
        let mut wire = Vec::new();
        for _ in 0..n {
            write_msg(&mut wire, from, &Message::Sync(SyncMsg::FrontierProbe)).expect("encode");
        }
        wire
    }

    /// The `FrontierInfo` frames the replica sends the peer `listener`
    /// plays, counted until the replica hangs up or `timeout` passes.
    fn answers_on(listener: &TcpListener, timeout: Duration) -> usize {
        let (inbound, _) = listener.accept().expect("replica dials its peer");
        inbound.set_read_timeout(Some(timeout)).expect("timeout");
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
        answers
    }

    /// `messages_sent` counts frames a backlog accepted. Replica 1 floods
    /// the replica with `FrontierProbe`s while its own address refuses
    /// connections, so the answers pile up in its backlog; once `BACKLOG`
    /// frames wait there, the rest are refused, and must not count as
    /// sent.
    #[test]
    fn answers_refused_by_a_full_peer_queue_are_not_counted_as_sent() {
        let _serial = crate::loopback_serial_lock();
        const PROBES: usize = BACKLOG + 200;
        let peers = unreachable_addrs(4);
        let listen = peers[0];
        let report = spawn_replica(peers, Duration::from_millis(2000));

        let mut out = dial_replica(listen);
        write_hello(&mut out, ReplicaId(1)).expect("hello");
        out.write_all(&probes(ReplicaId(1), PROBES))
            .expect("probes");
        drop(out);

        let report = report.recv().expect("replica run");
        assert_eq!(report.messages_received, PROBES as u64, "every probe read");
        assert!(
            report.messages_sent >= BACKLOG as u64,
            "the backlog took fewer than BACKLOG answers: {}",
            report.messages_sent
        );
        assert!(
            report.messages_sent < PROBES as u64,
            "{} frames counted as sent, but at most BACKLOG of the {PROBES} answers fit replica 1's backlog",
            report.messages_sent
        );
    }

    /// A peer that accepts and never reads fills its socket, then its
    /// backlog, and must not stall the loop: the replica still answers
    /// another peer's probe and returns on time.
    #[test]
    fn a_peer_that_never_reads_does_not_stall_the_loop() {
        let _serial = crate::loopback_serial_lock();
        // Their 16-byte answers outgrow what a loopback connection buffers
        // for a reader that never reads (about 4 MB on Linux) plus
        // `BACKLOG`; the last assertion checks that they did.
        const PROBES: usize = 300_000;
        let (stalled, stalled_addr) = listener();
        let (reading, reading_addr) = listener();
        let mut peers = unreachable_addrs(2);
        let listen = peers[0];
        peers.splice(1..1, [stalled_addr, reading_addr]);
        let run_for = Duration::from_millis(2000);
        let deadline = Instant::now() + run_for + Duration::from_secs(1);
        let report = spawn_replica(peers, run_for);

        // As replica 1: connected to, never read from, and flooding the
        // replica with probes whose answers it will not take.
        let (_never_read, _) = stalled.accept().expect("replica dials replica 1");
        let mut flood = dial_replica(listen);
        flood.set_write_timeout(Some(run_for)).expect("timeout");
        write_hello(&mut flood, ReplicaId(1)).expect("hello");
        let _ = flood.write_all(&probes(ReplicaId(1), PROBES));
        // As replica 2: one probe after the flood.
        let mut asker = dial_replica(listen);
        write_hello(&mut asker, ReplicaId(2)).expect("hello");
        asker.write_all(&probes(ReplicaId(2), 1)).expect("probe");
        let answers = answers_on(&reading, deadline - Instant::now());

        let left = deadline.saturating_duration_since(Instant::now());
        let report = report
            .recv_timeout(left)
            .expect("the replica ran past run_for + 1 s: the peer that never reads stalled it");
        assert_eq!(answers, 1, "replica 2's probe was not answered");
        assert_eq!(report.messages_received, PROBES as u64 + 1);
        assert!(
            report.messages_sent < PROBES as u64,
            "all {} frames were taken: replica 1's socket never filled",
            report.messages_sent
        );
    }

    /// `k` distinct messages of ~1.2 MiB each: eight outgrow what a
    /// loopback connection buffers for a reader that has not read yet.
    fn large_forwards(k: u64) -> Vec<Message> {
        use banyan_types::message::{DisseminationMsg, PendingRequest};
        (0..k)
            .map(|k| {
                let requests = (0..48_000)
                    .map(|i| PendingRequest {
                        id: k << 32 | i,
                        client: k as u16,
                        size: 64,
                        submitted_at: Time(i),
                    })
                    .collect();
                Message::Dissemination(DisseminationMsg::Forward { requests })
            })
            .collect()
    }

    /// A frame the socket takes only part of resumes at its offset: what a
    /// slow peer finally reads is `write_msg`'s bytes for the same
    /// messages, in `transmit` order, behind the hello.
    #[test]
    fn a_frame_cut_by_a_full_socket_resumes_at_its_offset() {
        use std::io::Read;
        let (slow, slow_addr) = listener();
        let peers = vec![unreachable_addrs(1)[0], slow_addr];
        let stop = Arc::new(AtomicBool::new(false));
        let mut outbox = Outbox::connect(ReplicaId(0), None::<SharedMempool>, &peers, &stop);

        let msgs = large_forwards(8);
        for msg in &msgs {
            outbox.transmit(Outbound::Send(ReplicaId(1), msg.clone()));
        }
        outbox.hand_off();
        let peer = outbox.peers[1].as_ref().expect("peer 1");
        assert!(
            peer.written > 0,
            "the socket did not cut a frame: {} frames left, none begun",
            peer.backlog.len()
        );

        let (mut conn, _) = slow.accept().expect("accept");
        let reader = thread::spawn(move || {
            let mut wire = Vec::new();
            let mut chunk = [0u8; 64 << 10];
            // Slowly: the socket fills again, and frames are cut again.
            while let Ok(n @ 1..) = conn.read(&mut chunk) {
                wire.extend_from_slice(&chunk[..n]);
                thread::sleep(Duration::from_micros(200));
            }
            wire
        });
        while outbox.pending() {
            outbox.hand_off();
            thread::sleep(Duration::from_micros(100));
        }
        drop(outbox);

        let mut want = Vec::new();
        write_hello(&mut want, ReplicaId(0)).expect("hello");
        for msg in &msgs {
            write_msg(&mut want, ReplicaId(0), msg).expect("encode");
        }
        let got = reader.join().expect("reader");
        assert_eq!(got.len(), want.len(), "bytes read");
        assert!(got == want, "the bytes differ from write_msg's");
    }

    /// A write error drops the connection and the frame it cut; a dialer
    /// reconnects, and the rest of the backlog follows a fresh hello.
    #[test]
    fn a_write_error_redials_and_resumes_at_a_frame_boundary() {
        use std::io::Read;
        let (peer, addr) = listener();
        let peers = vec![unreachable_addrs(1)[0], addr];
        let stop = Arc::new(AtomicBool::new(false));
        let mut outbox = Outbox::connect(ReplicaId(0), None::<SharedMempool>, &peers, &stop);
        let (first, _) = peer.accept().expect("accept");

        let msgs = large_forwards(8);
        for msg in &msgs {
            outbox.transmit(Outbound::Send(ReplicaId(1), msg.clone()));
        }
        outbox.hand_off();
        assert!(outbox.peers[1].as_ref().expect("peer 1").written > 0);
        // Closing with unread bytes resets the connection.
        drop(first);
        let cut_at = Instant::now();
        while outbox.peers[1].as_ref().expect("peer 1").stream.is_some() {
            assert!(cut_at.elapsed() < Duration::from_secs(5), "no write error");
            outbox.hand_off();
            thread::sleep(Duration::from_millis(1));
        }
        let rest = outbox.peers[1].as_ref().expect("peer 1").backlog.len();

        let (mut second, _) = peer.accept().expect("the peer is redialed");
        let reader = thread::spawn(move || {
            let mut wire = Vec::new();
            second.read_to_end(&mut wire).map(|_| wire)
        });
        while outbox.pending() {
            outbox.hand_off();
            thread::sleep(Duration::from_micros(100));
        }
        drop(outbox);

        let mut want = Vec::new();
        write_hello(&mut want, ReplicaId(0)).expect("hello");
        for msg in &msgs[msgs.len() - rest..] {
            write_msg(&mut want, ReplicaId(0), msg).expect("encode");
        }
        let got = reader.join().expect("reader").expect("read");
        assert_eq!(got.len(), want.len(), "bytes read after the redial");
        assert!(
            got == want,
            "the redialed stream is not hello + whole frames"
        );
    }

    /// The hello names a connection's sender. Replica 1's connection
    /// carries a probe of its own, then one framed as replica 2, then
    /// another of its own; a second connection says hello twice. Only the
    /// first probe is read and answered, and the answer goes to replica
    /// 1: neither connection can make the replica send replica 2 anything.
    #[test]
    fn a_frame_naming_another_sender_ends_the_connection() {
        let _serial = crate::loopback_serial_lock();
        let (one, one_addr) = listener();
        let (two, two_addr) = listener();
        let mut peers = unreachable_addrs(2);
        let listen = peers[0];
        peers.splice(1..1, [one_addr, two_addr]);
        let run_for = Duration::from_millis(1000);
        let report = spawn_replica(peers, run_for);

        let mut spoof = dial_replica(listen);
        write_hello(&mut spoof, ReplicaId(1)).expect("hello");
        for from in [1, 2, 1] {
            spoof.write_all(&probes(ReplicaId(from), 1)).expect("probe");
        }
        let mut rehello = dial_replica(listen);
        write_hello(&mut rehello, ReplicaId(1)).expect("hello");
        write_hello(&mut rehello, ReplicaId(1)).expect("second hello");
        rehello.write_all(&probes(ReplicaId(1), 1)).expect("probe");

        let timeout = run_for + Duration::from_secs(5);
        assert_eq!(answers_on(&one, timeout), 1, "replica 1's answers");
        assert_eq!(answers_on(&two, timeout), 0, "answers sent to replica 2");
        let report = report.recv().expect("replica run");
        assert_eq!(report.messages_received, 1, "frames read");
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
