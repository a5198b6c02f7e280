//! The one TCP replica event loop. Every public runner
//! ([`run_replica_full`](crate::runner::run_replica_full),
//! [`run_replica_restarting`](crate::runner::run_replica_restarting),
//! [`run_replica_pipelined`](crate::pipeline::run_replica_pipelined)) is a
//! thin call into [`run`].
//!
//! Thread layout per replica:
//!
//! ```text
//!   listener · inbound connections · waker · backlogged outbound sockets
//!                          │ one ppoll(2)
//!                          ▼
//!            engine loop (the calling thread)
//!              · accepts, reads each ready connection (FrameBuf: whole
//!                frames split off, a partial one kept for the next read)
//!              │
//!              ├─ inline: frames join this step's events ─────┐
//!              │                                              │
//!              └─ staged: try_send to worker from % W ─► verify workers
//!                 (only with a PipelineConfig)     │ (payload hashes)
//!                                                  │ every frame back on
//!                                                  │ a channel, then a
//!                                                  │ wake-up if parked
//!                                                  ▼          ▼
//!              · the replica step the simulator runs too
//!                (banyan_runtime::Replica: frame dispatch, timers, gossip,
//!                crash, rejoin, catch-up)
//!              · this loop's own: wall-clock time, the sockets, the
//!                fetch-peer rotation, when to crash and rejoin
//!              · Outbox: each outbound message encoded once (a broadcast
//!                once for all peers) into every addressed peer's backlog
//!                                                             │
//!                 non-blocking writes at the end of every engine step
//!                                                             ▼
//!            one outbound socket per peer (a dialer thread connects it,
//!            and redials after a write error, without blocking the loop)
//! ```
//!
//! A replica runs this one thread, plus a dialer only while a peer is
//! unreachable, plus W verify workers when staged.
//!
//! An engine step is everything the loop does between two waits: the
//! timers due, the pool's gossip, and the frames it read (at most
//! `READ_BUDGET` bytes from each connection) or the workers handed back.
//! Just before the loop waits again, each peer's backlog is written to its
//! socket with `write_vectored` until the backlog is empty or the socket
//! would block (and earlier, when a frame finds the backlog full); a full
//! socket delays only that peer, whose socket the wait then watches for
//! room. A frame the socket took only part of resumes at its offset.
//! Per-peer FIFO order is the order of `transmit` calls, so the
//! gossip-before-propose ordering at init holds on every connection.
//!
//! The verify stage is the loop's only fork, taken where a frame is
//! decoded: inline, it joins the step's events — no channel, no thread
//! hop — staged, it goes to the verify worker `from % W` by `try_send`,
//! which walks the payload commitment of every block it carries and
//! hands it back. From the step's events on, a frame meets the same code
//! on both paths. A full worker queue refuses the frame; the loop holds
//! it and stops reading that connection until the worker takes it, so the
//! bytes back up in the kernel as TCP intends. (A blocking send could
//! deadlock: the worker may itself be waiting on the loop's full event
//! channel.)
//!
//! What the loop does with a frame, a due timer, a crash or a rejoin is
//! [`Replica`]'s — the simulator runs the same code. This module supplies
//! only wall-clock time, the sockets (through [`ReplicaIo`]) and the one
//! decision a socketed driver makes blind: which peer to fetch from.
//!
//! Verify workers, dialers and a client's push into an idle pool reach
//! the parked loop through the waker: a socket pair whose read end the
//! wait watches. They write one byte only when the loop says it is
//! parked, so a busy loop pays no syscall for them. The pool's wake-up
//! matters most: an idle rank-0 leader holds its proposal until a request
//! reaches its pool (the replica's idle hold), so a parked loop that
//! missed the push would leave the request waiting until the wait timed
//! out. At stop the loop closes its sockets, releases the verify stage's
//! inputs and absorbs the event channel until every worker has hung up,
//! so no frame handed to the stage is lost at close.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::mem;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

use banyan_mempool::{ArrivalHook, ReplicaPool, WorkloadBatch};
use banyan_runtime::driver::{Due, Replica, ReplicaIo};
use banyan_types::app::App;
use banyan_types::engine::{CommitEntry, Engine, Outbound};
use banyan_types::ids::ReplicaId;
use banyan_types::message::Message;
use banyan_types::time::Time;

use crate::framing::{encode_frame, write_hello, Frame, FrameBuf};
use crate::pipeline::{PipelineConfig, PipelineStatsSnapshot, VerifyStage};
use crate::poll::{self, PollFd, READABLE, WRITABLE};
use crate::runner::{TcpRestart, TcpRunReport};

/// Capacity of the channel verify workers return events on.
const EVENT_QUEUE: usize = 4096;
/// Bytes one engine step reads from one connection at most, so a peer
/// that floods cannot starve the others.
const READ_BUDGET: usize = 1 << 20;
/// Frames one peer's backlog holds. Past it, what is sent to a peer that
/// stopped reading (or is not connected) is lost, as on any wire.
const BACKLOG: usize = 4096;
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

/// Wakes the loop out of its wait from another thread: one byte into a
/// socket pair whose read end the wait watches, written only while the
/// loop is parked, so work handed to a busy loop costs no syscall (the
/// rule `compat/crossbeam`'s channel follows for its condvars).
struct Waker {
    /// True from just before the loop's last look at its queues until
    /// its wait returns.
    parked: AtomicBool,
    tx: UnixStream,
}

impl Waker {
    /// The waker and the read end the loop watches, both non-blocking.
    fn pair() -> io::Result<(Arc<Waker>, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let parked = AtomicBool::new(false);
        Ok((Arc::new(Waker { parked, tx }), rx))
    }

    /// The loop is about to wait: after this it looks at its queues one
    /// last time, and what is queued later wakes it.
    fn park(&self) {
        self.parked.store(true, Ordering::Relaxed);
        // Pairs with the fence in `wake`: either the loop's last look
        // sees what a waker queued, or that waker sees `parked`.
        fence(Ordering::SeqCst);
    }

    /// The loop's wait is over.
    fn unpark(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Called after queuing work for the loop: a byte if it is parked.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.swap(false, Ordering::Relaxed) {
            // A full pair already holds a wake-up the loop has not read.
            let _ = (&self.tx).write(&[1]);
        }
    }
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
/// `dialed` and wakes the loop. Detached: it exits at its next `stop`
/// check, and joining it could wait on a connect to a dead host.
fn spawn_dialer(
    me: ReplicaId,
    peer: usize,
    addr: SocketAddr,
    dialed: Sender<Dialed>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
) {
    named(me, "dialer")
        .spawn(move || {
            let mut pause = Duration::from_micros(100);
            while !stop.load(Ordering::Relaxed) {
                match dial(me, addr) {
                    Ok(stream) => {
                        let _ = dialed.send((peer, stream));
                        waker.wake();
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

/// One inbound connection: its non-blocking stream, the bytes of a frame
/// still arriving, and the sender its hello named.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    /// Set by the hello; every later frame must name it.
    peer: Option<ReplicaId>,
    /// A frame its verify worker's queue had no room for. While one is
    /// held the connection is neither read nor waited on.
    held: Option<Event>,
    /// The last wait found the socket readable, or hung up.
    ready: bool,
}

impl Conn {
    /// Hands the held frame on, if any; `false` while it is still held.
    fn release(&mut self, deliver: &mut impl FnMut(Event) -> Option<Event>) -> bool {
        if let Some(event) = self.held.take() {
            self.held = deliver(event);
        }
        self.held.is_none()
    }

    /// Hands on, in order, the held frame, the frames already buffered,
    /// and — if the last wait found the socket ready — those completed by
    /// up to `READ_BUDGET` more bytes, until the socket is drained or a
    /// frame is held. `false` once the connection is over: end of stream,
    /// an error, a frame that is no frame, or one that breaks the sender
    /// binding (a frame before the hello or naming another replica, or a
    /// second hello).
    fn pump(&mut self, deliver: &mut impl FnMut(Event) -> Option<Event>) -> bool {
        let mut read = mem::take(&mut self.ready);
        let mut budget = READ_BUDGET;
        if !self.release(deliver) {
            return true;
        }
        loop {
            loop {
                match self.frames.next_frame() {
                    Ok(None) => break,
                    Ok(Some(Frame::Hello { from })) if self.peer.is_none() => {
                        self.peer = Some(from);
                    }
                    Ok(Some(Frame::Msg { from, msg })) if self.peer == Some(from) => {
                        self.held = deliver((from, msg));
                        if self.held.is_some() {
                            return true;
                        }
                    }
                    _ => return false,
                }
            }
            if !read || budget == 0 {
                return true;
            }
            match self.frames.fill(&mut self.stream) {
                Ok(0) => return false,
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    // A read short of the free space drained the socket:
                    // another would only return `WouldBlock`.
                    read = self.frames.free() == 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// The receiving side of the loop: the listener, every accepted
/// connection, and the waker's read end — all non-blocking, all watched
/// by the one wait.
struct Inbox {
    listener: TcpListener,
    conns: Vec<Conn>,
    waker: Arc<Waker>,
    wakes: UnixStream,
    /// The wait's descriptor list, kept to reuse its allocation.
    fds: Vec<PollFd>,
}

impl Inbox {
    fn bind(listen: SocketAddr) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let (waker, wakes) = Waker::pair()?;
        Ok(Inbox {
            listener,
            conns: Vec::new(),
            waker,
            wakes,
            fds: Vec::new(),
        })
    }

    /// Takes in every connection waiting on the listener. One that fails
    /// (a dialer that gave up, descriptors exhausted) is left: its peer
    /// redials.
    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(Conn {
                            stream,
                            frames: FrameBuf::default(),
                            peer: None,
                            held: None,
                            ready: true,
                        });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Blocks until a connection is readable or arrives, an outbound
    /// socket in `writable` can take bytes, the waker fires, or `timeout`
    /// passes; then marks the ready connections and accepts the new ones.
    fn wait<'a>(&mut self, writable: impl Iterator<Item = &'a TcpStream>, timeout: Duration) {
        self.fds.clear();
        self.fds.push(PollFd::new(&self.wakes, READABLE));
        self.fds.push(PollFd::new(&self.listener, READABLE));
        let unheld = |conn: &&mut Conn| conn.held.is_none();
        for conn in self.conns.iter_mut().filter(unheld) {
            self.fds.push(PollFd::new(&conn.stream, READABLE));
        }
        self.fds
            .extend(writable.map(|stream| PollFd::new(stream, WRITABLE)));
        // Should the wait itself fail, every socket is tried: a read that
        // finds nothing costs one `WouldBlock`.
        let waited = poll::wait(&mut self.fds, timeout).is_ok();
        self.waker.unpark();
        let mut fds = self.fds.iter().map(|fd| !waited || fd.ready());
        let (woken, arrived) = (fds.next() == Some(true), fds.next() == Some(true));
        for (conn, ready) in self.conns.iter_mut().filter(unheld).zip(fds) {
            conn.ready = ready;
        }
        if woken {
            while let Ok(1..) = (&self.wakes).read(&mut [0; 64]) {}
        }
        if arrived {
            self.accept();
        }
    }

    /// Hands every connection's frames to `deliver` ([`Conn::pump`]),
    /// dropping the connections that are over.
    fn read(&mut self, deliver: &mut impl FnMut(Event) -> Option<Event>) {
        self.conns.retain_mut(|conn| conn.pump(deliver));
    }

    /// Offers the held frames again, up to the first one taken; `true` if
    /// one was (the rest are offered again when the step reads).
    fn release_held(&mut self, deliver: &mut impl FnMut(Event) -> Option<Event>) -> bool {
        let mut held = self.conns.iter_mut().filter(|conn| conn.held.is_some());
        held.any(|conn| conn.release(deliver))
    }
}

/// Where the loop hands a decoded frame — its only fork. Inline, the
/// frame joins this step's `events`; staged, it goes to verify worker
/// `from % W`, counted `decoded`, and comes back if that worker's queue
/// is full, for the connection to hold.
fn deliver(verify: Option<&VerifyStage>, events: &mut Vec<Event>, event: Event) -> Option<Event> {
    let Some(stage) = verify else {
        events.push(event);
        return None;
    };
    match stage.sender_for(event.0).try_send(event) {
        Ok(()) => {
            stage.stats.decoded.fetch_add(1, Ordering::Relaxed);
            None
        }
        Err(TrySendError::Full(event)) => Some(event),
        Err(TrySendError::Disconnected(_)) => None,
    }
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
    /// Queues `frame` unless the backlog is full and its socket takes
    /// nothing more; `true` if it was taken. A step that answers more
    /// than `BACKLOG` frames to one peer (a burst read while the loop was
    /// descheduled) writes early, so it refuses only what the socket
    /// would not take either — not what merely waited for the step's end.
    /// A write error is left to [`Outbox::hand_off`], which meets it again.
    fn stage(&mut self, frame: &Arc<Vec<u8>>) -> bool {
        if self.backlog.len() >= BACKLOG {
            let _ = self.write();
        }
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
struct Outbox {
    me: ReplicaId,
    /// Per peer; `None` at this replica's own index.
    peers: Vec<Option<Peer>>,
    /// Where dialers hand back the streams they connected: a clone of
    /// `dialer_tx` goes to each, with the waker.
    dialed: Receiver<Dialed>,
    dialer_tx: Sender<Dialed>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    /// Frames a backlog accepted. A frame a full backlog refuses is
    /// dropped, not sent.
    frames_sent: u64,
}

impl Outbox {
    /// Dials every peer but `me` once, here, so the first connections wait
    /// on no thread; a peer not listening yet gets a dialer.
    fn connect(
        me: ReplicaId,
        peers: &[SocketAddr],
        stop: &Arc<AtomicBool>,
        waker: &Arc<Waker>,
    ) -> Self {
        let (dialer_tx, dialed) = bounded(peers.len().max(1));
        let peers = peers
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                (i != me.as_usize()).then(|| {
                    let stream = dial(me, addr).ok();
                    if stream.is_none() {
                        let (tx, stop, waker) = (dialer_tx.clone(), stop.clone(), waker.clone());
                        spawn_dialer(me, i, addr, tx, stop, waker);
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
            peers,
            dialed,
            dialer_tx,
            stop: stop.clone(),
            waker: waker.clone(),
            frames_sent: 0,
        }
    }

    fn transmit(&mut self, out: Outbound) {
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
            let (tx, stop, waker) = (
                self.dialer_tx.clone(),
                self.stop.clone(),
                self.waker.clone(),
            );
            spawn_dialer(self.me, i, peer.addr, tx, stop, waker);
        }
    }

    /// The connected sockets whose backlog still holds frames: the wait
    /// watches them for room.
    fn backlogged(&self) -> impl Iterator<Item = &TcpStream> {
        let peers = self.peers.iter().flatten();
        peers
            .filter(|peer| !peer.backlog.is_empty())
            .filter_map(|peer| peer.stream.as_ref())
    }
}

/// The loop's [`ReplicaIo`]: frames go into the outbox, commits to the
/// app and the run report, and fetches rotate through the other replicas.
struct Effects<A> {
    outbox: Outbox,
    app: A,
    commits: Vec<CommitEntry>,
    /// Fetch-peer rotation: the loop cannot know which peers are up, so a
    /// stalled window retries elsewhere (the catch-up machine's stall
    /// budget bounds the rotation).
    rotor: usize,
}

impl<A: App> ReplicaIo for Effects<A> {
    fn transmit(&mut self, out: Outbound) {
        self.outbox.transmit(out);
    }

    fn commit(&mut self, entry: CommitEntry, _batch: Option<WorkloadBatch>) {
        self.app.deliver(&entry);
        self.commits.push(entry);
    }

    /// The other replicas in id order, one per fetch.
    fn fetch_peer(&mut self) -> Option<ReplicaId> {
        let (me, n) = (self.outbox.me.as_usize(), self.outbox.peers.len());
        if n < 2 {
            return None; // nobody to ask
        }
        let off = 1 + self.rotor % (n - 1);
        self.rotor += 1;
        Some(ReplicaId(((me + off) % n) as u16))
    }
}

/// Runs `engine` over TCP for `run_for`: inline when `stage` is `None`,
/// with verify workers hashing payloads between the socket reads and the
/// engine otherwise; crashing and rejoining mid-run when `restart` says
/// so. Returns the run report and the verify stage's frame accounting
/// (all zero when inline).
///
/// # Errors
///
/// Returns an I/O error if binding `listen` (or creating the waker)
/// fails.
// The parameters are the three public runners' parameters, unioned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<P: ReplicaPool>(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<P>,
    stage: Option<PipelineConfig>,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    run_for: Duration,
    mut restart: Option<TcpRestart>,
) -> std::io::Result<(TcpRunReport, PipelineStatsSnapshot)> {
    let me = engine.id();
    let start = Instant::now();
    let now = || Time(start.elapsed().as_nanos() as u64);
    let stop = Arc::new(AtomicBool::new(false));

    let mut inbox = Inbox::bind(listen)?;
    // Staged only: the workers, and the channel they hand every frame back
    // on. The workers hold its only senders, so it disconnects exactly
    // when the last of them has exited.
    let verify = stage.map(|config| {
        let (event_tx, events) = bounded::<Event>(EVENT_QUEUE);
        let waker = inbox.waker.clone();
        let stage = VerifyStage::spawn(&config, event_tx, move || waker.wake());
        (stage, events)
    });

    let mut io = Effects {
        outbox: Outbox::connect(me, &peers, &stop, &inbox.waker),
        app,
        commits: Vec::new(),
        rotor: 0,
    };
    let mut messages_received = 0u64;
    // The step's events, kept to reuse their allocation.
    let mut events: Vec<Event> = Vec::new();

    // A request entering an idle pool is flagged for the loop's last look
    // before it parks, then wakes the loop if it is parked already.
    // Relaxed: `Waker::park` and `Waker::wake` fence, so either the look
    // sees the flag or the hook sees `parked`.
    let arrived = Arc::new(AtomicBool::new(false));
    if let Some(pool) = &pool {
        let (flag, waker) = (arrived.clone(), inbox.waker.clone());
        pool.set_arrival_hook(ArrivalHook::new(move || {
            flag.store(true, Ordering::Relaxed);
            waker.wake();
        }));
    }
    let mut replica = Replica::new(engine, pool, CATCHUP_TIMEOUT);
    // Disseminate before proposing: requests already pooled locally are
    // forwarded ahead of the init proposal in every per-peer channel, so
    // per-connection ordering lands them in peer pools before any block
    // that could commit them (a quorum excluding this replica can commit
    // its init proposal arbitrarily soon after it is sent).
    replica.flush(now(), &mut io);
    replica.init(now(), &mut io);

    while start.elapsed() < run_for {
        // The next crash or rejoin, as an offset from start.
        let mut phase = None;
        if let Some(plan) = &restart {
            if replica.is_up() && start.elapsed() >= plan.crash_after {
                // Crash: all volatile state is gone; only durable storage
                // (the WAL) and the commits already delivered survive.
                replica.crash();
            }
            if !replica.is_up() && start.elapsed() >= plan.rejoin_after {
                let plan = restart.take().expect("restart plan");
                // Rebuild from durable state only (reopens the WAL).
                replica.rejoin((plan.rebuild)(), now(), &mut io);
            } else {
                phase = Some(if replica.is_up() {
                    plan.crash_after
                } else {
                    plan.rejoin_after
                });
            }
        }
        let step = now();
        while replica.on_timer(step, &mut io) != Due::Nothing {}
        let backlog = replica.flush(step, &mut io);
        // The step is over: its frames leave, each peer's in as few
        // writes as its socket takes. Then wait for a frame, an event,
        // room on a backlogged socket, the next timer or the next crash
        // or rejoin; on timeout the loop simply re-checks them all.
        io.outbox.hand_off();
        let mut wait = replica
            .next_deadline()
            .map(|at| Duration::from_nanos(at.0.saturating_sub(now().0)))
            .unwrap_or(Duration::from_millis(10))
            .min(Duration::from_millis(10));
        if let Some(phase) = phase {
            wait = wait.min(phase.saturating_sub(start.elapsed()));
        }
        let stage = verify.as_ref().map(|(stage, _)| stage);
        let mut route = |event| deliver(stage, &mut events, event);
        // Parked first, then one last look at everything a waker
        // announces: what arrives after the look wakes the wait. Gossip a
        // flush left queued goes out at once too.
        inbox.waker.park();
        let queued = arrived.swap(false, Ordering::Relaxed)
            || backlog
            || verify
                .as_ref()
                .is_some_and(|(_, events)| !events.is_empty())
            || !io.outbox.dialed.is_empty()
            || inbox.release_held(&mut route);
        inbox.wait(
            io.outbox.backlogged(),
            if queued { Duration::ZERO } else { wait },
        );
        inbox.read(&mut route);
        if let Some((_, verified)) = &verify {
            events.extend(verified.try_iter().take(EVENT_QUEUE));
        }
        // While down, as with a dead process, every frame is dropped
        // unhandled; reading them on keeps every peer's connection moving.
        for (from, msg) in events.drain(..) {
            messages_received += 1;
            replica.on_frame(from, msg, now(), &mut io);
        }
    }

    // The last step's frames leave. Then a loss-free close: stop reading
    // (dropping the inbox closes every socket it owns), release the verify
    // stage's inputs, and absorb the tail until every worker has hung up —
    // so none of them blocks on a full channel and every frame handed to
    // the stage is accounted for.
    io.outbox.hand_off();
    // Relaxed: `stop` publishes nothing; a dialer that sees it just exits.
    stop.store(true, Ordering::Relaxed);
    drop(inbox);
    let stats = verify.map(|(mut stage, events)| {
        stage.close();
        while events.recv().is_ok() {
            messages_received += 1;
        }
        let stats = stage.stats.clone();
        stage.shutdown();
        stats.snapshot()
    });

    // Crashed and never rejoined before the deadline: no engine to read.
    let engine = replica.engine();
    let verified = engine.map(|e| e.verify_stats()).unwrap_or_default();
    let report = TcpRunReport {
        commits: io.commits,
        messages_received,
        messages_sent: io.outbox.frames_sent,
        stale_timers_dropped: replica.stale_timers_dropped(),
        sync_requests: replica.sync_requests(),
        sync_blocks_served: replica.sync_blocks_served(),
        restart_recovery_ms: replica.recovery_ms(),
        wal_bytes: engine.map_or(0, |e| e.wal_bytes()),
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
    use crate::framing::{read_frame, write_msg};
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::SharedMempool;
    use banyan_types::app::NullApp;
    use banyan_types::message::SyncMsg;
    use banyan_types::time::Duration as BDuration;
    use std::io::BufReader;
    use std::sync::mpsc;

    /// An outbox on `peers` as replica 0, with no pool.
    fn outbox(peers: &[SocketAddr]) -> Outbox {
        let stop = Arc::new(AtomicBool::new(false));
        let (waker, _) = Waker::pair().expect("waker");
        Outbox::connect(ReplicaId(0), peers, &stop, &waker)
    }

    /// True while some backlog holds frames not yet written.
    fn pending(outbox: &Outbox) -> bool {
        outbox
            .peers
            .iter()
            .flatten()
            .any(|peer| !peer.backlog.is_empty())
    }

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
    /// driver's answer to a probe. Staged when `stage` says so. The report
    /// and the stage's accounting arrive on the channel.
    fn spawn_replica(
        peers: Vec<SocketAddr>,
        run_for: Duration,
        stage: Option<PipelineConfig>,
    ) -> mpsc::Receiver<(TcpRunReport, PipelineStatsSnapshot)> {
        let engine = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_secs(60))
            .build_hotstuff()
            .swap_remove(0);
        let (done, report) = mpsc::channel();
        thread::spawn(move || {
            let pool = None::<SharedMempool>;
            let listen = peers[0];
            let run = run(engine, NullApp, pool, stage, listen, peers, run_for, None);
            let _ = done.send(run.expect("replica run"));
        });
        report
    }

    /// Reads what the replica sends the peer on `inbound` until it sends
    /// a `FrontierInfo`: the answer to a probe.
    fn next_answer(inbound: &mut impl Read) -> io::Result<()> {
        loop {
            if let Frame::Msg {
                msg: Message::Sync(SyncMsg::FrontierInfo { .. }),
                ..
            } = read_frame(inbound)?
            {
                return Ok(());
            }
        }
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
        let report = spawn_replica(peers, Duration::from_millis(2000), None);

        let mut out = dial_replica(listen);
        write_hello(&mut out, ReplicaId(1)).expect("hello");
        out.write_all(&probes(ReplicaId(1), PROBES))
            .expect("probes");
        drop(out);

        let (report, _) = report.recv().expect("replica run");
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
        let report = spawn_replica(peers, run_for, None);

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
        let (report, _) = report
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
        let (slow, slow_addr) = listener();
        let mut outbox = outbox(&[unreachable_addrs(1)[0], slow_addr]);

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
        while pending(&outbox) {
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
        let (peer, addr) = listener();
        let mut outbox = outbox(&[unreachable_addrs(1)[0], addr]);
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
        while pending(&outbox) {
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
        let report = spawn_replica(peers, run_for, None);

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
        let (report, _) = report.recv().expect("replica run");
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
            let stage = staged.then(PipelineConfig::default);
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
                assert_eq!((stats.decoded, stats.verified), (1, 1));
            }
        }
    }

    /// A staged replica does with every frame what an inline one does:
    /// gossip reaches the pool, a carried workload batch is leased, a
    /// block whose payload claims to be a batch but is none reaches the
    /// engine all the same, and every frame counts as received. Replica 1
    /// sends them, then a probe, on one connection. The replica runs
    /// HotStuff, which ignores sync traffic, so only the loop acts on the
    /// blocks.
    #[test]
    fn a_staged_replica_does_with_every_frame_what_an_inline_one_does() {
        use banyan_crypto::Signature;
        use banyan_mempool::{ConcurrentPool, Mempool, WorkloadBatch};
        use banyan_types::block::Block;
        use banyan_types::ids::{BlockHash, Rank, Round};
        use banyan_types::message::{DisseminationMsg, PendingRequest};
        use banyan_types::payload::Payload;
        let _serial = crate::loopback_serial_lock();
        let request = |id| PendingRequest {
            id,
            client: 0,
            size: 64,
            submitted_at: Time::ZERO,
        };
        let carrying = |payload| {
            let block = Block {
                round: Round(1),
                proposer: ReplicaId(1),
                rank: Rank(0),
                parent: BlockHash::ZERO,
                proposed_at: Time::ZERO,
                payload,
                signature: Signature::zero(),
            };
            Message::Sync(SyncMsg::Response { block })
        };
        let batch = WorkloadBatch {
            requests: vec![request(3)],
        };
        let frames = [
            Message::Dissemination(DisseminationMsg::Forward {
                requests: vec![request(1), request(2)],
            }),
            carrying(batch.into_payload()),
            carrying(Payload::inline(b"BanyanWB\xFF\xFF\xFF\xFF".to_vec())),
            Message::Sync(SyncMsg::FrontierProbe),
        ];
        let mut wire = Vec::new();
        write_hello(&mut wire, ReplicaId(1)).expect("hello");
        for msg in &frames {
            write_msg(&mut wire, ReplicaId(1), msg).expect("encode");
        }

        for staged in [false, true] {
            let (one, _two, peers) = two_peers();
            let listen = peers[0];
            let chunk = PipelineConfig::default().payload_chunk;
            let pool = ConcurrentPool::new(Mempool::new(64).with_speculation(chunk), 64);
            let engine = ClusterBuilder::new(4, 1, 1)
                .unwrap()
                .delta(BDuration::from_secs(60))
                .build_hotstuff()
                .swap_remove(0);
            let (stage, replica_pool) = (staged.then(PipelineConfig::default), Some(pool.clone()));
            let run_for = Duration::from_millis(1000);
            let replica = thread::spawn(move || {
                run(
                    engine,
                    NullApp,
                    replica_pool,
                    stage,
                    listen,
                    peers,
                    run_for,
                    None,
                )
            });
            dial_replica(listen).write_all(&wire).expect("frames");
            let answers = answers_on(&one, run_for + Duration::from_secs(5));

            let (report, stats) = replica
                .join()
                .expect("replica thread")
                .expect("replica run");
            assert_eq!(answers, 1, "staged={staged}: the probe was not answered");
            assert_eq!(
                report.messages_received,
                frames.len() as u64,
                "staged={staged}: frames received"
            );
            assert_eq!(pool.len(), 2, "staged={staged}: gossip missed the pool");
            assert_eq!(
                pool.pool().live_leases(),
                1,
                "staged={staged}: leases recorded"
            );
            if staged {
                assert_eq!((stats.decoded, stats.verified), (4, 4), "{stats:?}");
            }
        }
    }

    /// Peers 1 and 2 as listeners in the test, peer 0 the replica, peer
    /// 3 unreachable: the two listeners and the addresses.
    fn two_peers() -> (TcpListener, TcpListener, Vec<SocketAddr>) {
        let (one, one_addr) = listener();
        let (two, two_addr) = listener();
        let mut peers = unreachable_addrs(2);
        peers.splice(1..1, [one_addr, two_addr]);
        (one, two, peers)
    }

    /// Replica 1 floods probes while replica 2 sends its hello and
    /// probes a byte at a time, waiting for each answer before the next
    /// probe. The loop reads both: replica 2's probes are answered one by
    /// one, in order, while the flood runs, and every flooded probe is
    /// read and answered too.
    #[test]
    fn a_flooding_peer_does_not_starve_one_dribbling_bytes() {
        let _serial = crate::loopback_serial_lock();
        const DRIBBLED: usize = 5;
        let (one, two, peers) = two_peers();
        let listen = peers[0];
        let run_for = Duration::from_millis(3000);
        let report = spawn_replica(peers, run_for, None);
        let flood_answers =
            thread::spawn(move || answers_on(&one, run_for + Duration::from_secs(5)));
        let (answers, _) = two.accept().expect("replica dials replica 2");
        answers
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut answers = BufReader::new(answers);

        let dribbling = Arc::new(AtomicBool::new(true));
        let flood = {
            let dribbling = dribbling.clone();
            let mut flood = dial_replica(listen);
            write_hello(&mut flood, ReplicaId(1)).expect("hello");
            let chunk = probes(ReplicaId(1), 1_000);
            thread::spawn(move || {
                let mut sent = 0;
                // Capped so that the answers fit what a loopback
                // connection buffers, however slowly they are read: past
                // that, a full backlog would refuse some.
                while dribbling.load(Ordering::Relaxed) && sent < 20_000 {
                    flood.write_all(&chunk).expect("flood");
                    sent += 1_000;
                    thread::sleep(Duration::from_millis(2));
                }
                sent
            })
        };
        let mut dribble = dial_replica(listen);
        dribble.set_nodelay(true).expect("nodelay");
        let mut hello = Vec::new();
        write_hello(&mut hello, ReplicaId(2)).expect("hello");
        for k in 0..DRIBBLED {
            let wire = if k == 0 {
                [hello.clone(), probes(ReplicaId(2), 1)].concat()
            } else {
                probes(ReplicaId(2), 1)
            };
            for byte in wire {
                dribble.write_all(&[byte]).expect("dribble");
                thread::sleep(Duration::from_millis(1));
            }
            next_answer(&mut answers).unwrap_or_else(|e| panic!("probe {k} unanswered: {e}"));
        }
        dribbling.store(false, Ordering::Relaxed);
        let flooded = flood.join().expect("flood");

        let (report, _) = report.recv().expect("replica run");
        assert_eq!(report.messages_received, (flooded + DRIBBLED) as u64);
        assert_eq!(flood_answers.join().expect("answers"), flooded);
    }

    /// A connection that never says hello — one silent, one stopped
    /// inside a header — delays no other peer: replica 1's probe is
    /// answered within a second.
    #[test]
    fn a_connection_that_never_says_hello_delays_no_one() {
        let _serial = crate::loopback_serial_lock();
        let (one, _two, peers) = two_peers();
        let listen = peers[0];
        let report = spawn_replica(peers, Duration::from_millis(1500), None);

        let _silent = dial_replica(listen);
        let mut stopped = dial_replica(listen);
        stopped.write_all(&[9, 0, 0]).expect("part of a header");
        let mut asker = dial_replica(listen);
        write_hello(&mut asker, ReplicaId(1)).expect("hello");
        asker.write_all(&probes(ReplicaId(1), 1)).expect("probe");
        let (answers, _) = one.accept().expect("replica dials replica 1");
        answers
            .set_read_timeout(Some(Duration::from_secs(1)))
            .expect("timeout");
        next_answer(&mut BufReader::new(answers)).expect("the probe waited on a silent connection");

        let (report, _) = report.recv().expect("replica run");
        assert_eq!(report.messages_received, 1, "frames read");
    }

    /// Staged with one verify worker, a flood fills the worker's queue.
    /// The loop holds the frame that found it full and stops reading that
    /// connection until the worker takes it: it neither blocks (a blocking
    /// send deadlocks once the worker waits on the loop's full event
    /// channel) nor drops a frame. Replica 2's probe is still answered,
    /// the run returns within `run_for` + 1 s, and every frame read is
    /// accounted for.
    #[test]
    fn a_full_verify_queue_pauses_one_connection_not_the_loop() {
        let _serial = crate::loopback_serial_lock();
        const PROBES: usize = 60_000;
        let (_one, two, peers) = two_peers();
        let listen = peers[0];
        let run_for = Duration::from_millis(2000);
        let deadline = Instant::now() + run_for + Duration::from_secs(1);
        let stage = PipelineConfig::default().with_verify_workers(1);
        let report = spawn_replica(peers, run_for, Some(stage));

        let mut flood = dial_replica(listen);
        flood.set_write_timeout(Some(run_for)).expect("timeout");
        write_hello(&mut flood, ReplicaId(1)).expect("hello");
        flood
            .write_all(&probes(ReplicaId(1), PROBES))
            .expect("flood");
        let mut asker = dial_replica(listen);
        write_hello(&mut asker, ReplicaId(2)).expect("hello");
        asker.write_all(&probes(ReplicaId(2), 1)).expect("probe");
        let answers = answers_on(&two, deadline - Instant::now());

        let left = deadline.saturating_duration_since(Instant::now());
        let (report, s) = report
            .recv_timeout(left)
            .expect("the replica ran past run_for + 1 s: the full queue stalled it");
        assert_eq!(answers, 1, "replica 2's probe was not answered");
        assert_eq!(s.decoded, s.verified, "{s:?}");
        assert_eq!(s.decoded, PROBES as u64 + 1, "frames held back were lost");
        assert_eq!(report.messages_received, PROBES as u64 + 1);
    }

    /// A backlog the socket refused is finished on `POLLOUT`: the wait
    /// watches the backlogged socket and returns once the slow peer makes
    /// room. Each wait here may sleep 10 s and no timer is in play, so a
    /// wait that did not watch the socket would sleep through.
    #[test]
    fn a_refused_backlog_is_finished_when_its_socket_has_room() {
        let (slow, slow_addr) = listener();
        let mut outbox = outbox(&[unreachable_addrs(1)[0], slow_addr]);
        let mut inbox = Inbox::bind("127.0.0.1:0".parse().expect("addr")).expect("bind");
        let msgs = large_forwards(8);
        for msg in &msgs {
            outbox.transmit(Outbound::Send(ReplicaId(1), msg.clone()));
        }
        outbox.hand_off();
        assert!(pending(&outbox), "the socket took every frame at once");

        let (mut conn, _) = slow.accept().expect("accept");
        let reader = thread::spawn(move || {
            thread::sleep(Duration::from_millis(200));
            let mut wire = Vec::new();
            conn.read_to_end(&mut wire).map(|_| wire)
        });
        while pending(&outbox) {
            let waited = Instant::now();
            inbox.wait(outbox.backlogged(), Duration::from_secs(10));
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "the wait slept through room on the socket"
            );
            outbox.hand_off();
        }
        drop(outbox);

        let mut want = Vec::new();
        write_hello(&mut want, ReplicaId(0)).expect("hello");
        for msg in &msgs {
            write_msg(&mut want, ReplicaId(0), msg).expect("encode");
        }
        let got = reader.join().expect("reader").expect("read");
        assert_eq!(got.len(), want.len(), "bytes read");
        assert!(got == want, "the bytes differ from write_msg's");
    }
}
