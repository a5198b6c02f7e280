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
//!   engine loop (the calling thread)
//!     · reads each ready connection (conn::Conns)
//!       │ inline: frames join the step's events     staged: try_send to
//!       │      ◄── every frame back, a wake-up ──── verify worker from % W
//!       ▼          if parked                        (payload hashes)
//!     · the replica step the simulator runs too (banyan_runtime::Replica)
//!     · each outbound message encoded once into every addressed peer's
//!       backlog (conn::Peers), written at the step's end
//!                          ▼
//!   one outbound socket per peer (a dialer thread connects it, and
//!   redials after a write error, without blocking the loop)
//! ```
//!
//! A replica runs this one thread, plus a dialer only while a peer is
//! unreachable, plus W verify workers when staged.
//!
//! This module is the shell: the `ppoll` wait, the listener, the waker,
//! the dialers and [`run`]. What happens to the bytes is
//! [`conn`](crate::conn)'s, and what happens to a frame, a timer, a crash
//! or a rejoin is [`Replica`]'s; the shell adds wall-clock time and the
//! one choice a socketed driver makes blind: which peer to fetch from.
//!
//! An engine step is everything between two waits: the timers due, the
//! pool's gossip, and the frames read or handed back. At its end each
//! peer's backlog is written; a full socket delays only that peer, whose
//! socket the wait then watches for room. The verify stage is the loop's
//! only fork: staged, a frame goes to worker `from % W` by `try_send` (a
//! blocking send could deadlock on the loop's full event channel), and a
//! full worker queue refuses it for the connection to hold.
//!
//! Workers, dialers and a client's push into an idle pool wake the parked
//! loop through a socket pair the wait watches, writing a byte only while
//! the loop is parked: an idle rank-0 leader holds its proposal until a
//! request reaches its pool, so a missed push would wait out the timeout.
//! At stop the loop absorbs the event channel until every worker has hung
//! up, so no frame handed to the stage is lost.

use std::io::{self, Read, Write};
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
use banyan_types::time::Time;

use crate::conn::{Conns, Event, Peers};
use crate::framing::write_hello;
use crate::pipeline::{PipelineConfig, PipelineStatsSnapshot, VerifyStage};
use crate::poll::{self, PollFd, READABLE, WRITABLE};
use crate::runner::{TcpRestart, TcpRunReport};

/// Capacity of the channel verify workers return events on.
const EVENT_QUEUE: usize = 4096;
/// A dialer's longest pause between connection attempts. The first is
/// 100 µs and each failure doubles it: peers started together begin
/// listening within about a millisecond of each other, and one that is
/// down costs an attempt every 20 ms.
const REDIAL: Duration = Duration::from_millis(20);
/// Per-step catch-up deadline (wall clock, 250 ms). Loopback round trips
/// are far below this; a lapsed window re-probes or rotates peers.
const CATCHUP_TIMEOUT: banyan_types::time::Duration = banyan_types::time::Duration(250_000_000);

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

/// Connects to `addr`, says hello, and makes the stream non-blocking.
fn dial(me: ReplicaId, addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_hello(&mut stream, me)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// The dialers: this replica, the peers' addresses, the channel that
/// hands connected streams back to the loop, and the stop flag and waker
/// every dialer thread shares.
struct Dialer {
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    tx: Sender<Dialed>,
    dialed: Receiver<Dialed>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl Dialer {
    fn new(me: ReplicaId, addrs: Vec<SocketAddr>, waker: Arc<Waker>) -> Self {
        let (tx, dialed) = bounded(addrs.len().max(1));
        let stop = Arc::new(AtomicBool::new(false));
        Dialer {
            me,
            addrs,
            tx,
            dialed,
            stop,
            waker,
        }
    }

    /// The peers' backlogs, each peer dialed once, here, so the first
    /// connections wait on no thread; one not listening yet gets a dialer.
    fn connect(&self) -> Peers<TcpStream> {
        let connect = |i| dial(self.me, self.addrs[i]).map_err(|_| self.spawn(i)).ok();
        Peers::new(self.me, self.addrs.len(), connect)
    }

    /// Ends the engine step: streams the dialers connected are taken in,
    /// then every backlog is written ([`Peers::write`]); a peer whose
    /// write failed gets a dialer.
    fn hand_off(&self, peers: &mut Peers<TcpStream>) {
        for (i, stream) in self.dialed.try_iter() {
            peers.connected(i, stream);
        }
        peers.write(|i| self.spawn(i));
    }

    /// Dials peer `i` on a thread until it answers (peers start in
    /// arbitrary order, and one that crashed may resume listening), then
    /// hands the stream back and wakes the loop. Detached: it exits at its
    /// next `stop` check, and joining it could wait on a connect to a
    /// dead host. Named for per-role CPU accounting
    /// (`/proc/<pid>/task/*/comm`).
    fn spawn(&self, i: usize) {
        let (me, addr, tx) = (self.me, self.addrs[i], self.tx.clone());
        let (stop, waker) = (self.stop.clone(), self.waker.clone());
        thread::Builder::new()
            .name(format!("replica-{}-dialer", me.0))
            .spawn(move || {
                let mut pause = Duration::from_micros(100);
                while !stop.load(Ordering::Relaxed) {
                    match dial(me, addr) {
                        Ok(stream) => {
                            let _ = tx.send((i, stream));
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
}

/// The receiving side of the loop: the listener, every accepted
/// connection, and the waker's read end — all non-blocking, all watched
/// by the one wait.
struct Inbox {
    listener: TcpListener,
    conns: Conns<TcpStream>,
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
            conns: Conns::default(),
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
                        self.conns.push(stream);
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
        let conns = self.conns.watched();
        self.fds
            .extend(conns.map(|stream| PollFd::new(stream, READABLE)));
        self.fds
            .extend(writable.map(|stream| PollFd::new(stream, WRITABLE)));
        // Should the wait itself fail, every socket is tried: a read that
        // finds nothing costs one `WouldBlock`.
        let waited = poll::wait(&mut self.fds, timeout).is_ok();
        self.waker.unpark();
        let mut fds = self.fds.iter().map(|fd| !waited || fd.ready());
        let (woken, arrived) = (fds.next() == Some(true), fds.next() == Some(true));
        self.conns.mark_ready(fds);
        if woken {
            while let Ok(1..) = (&self.wakes).read(&mut [0; 64]) {}
        }
        if arrived {
            self.accept();
        }
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

/// The loop's [`ReplicaIo`]: frames go into the peers' backlogs, commits
/// to the app and the run report, and fetches rotate through the other
/// replicas.
struct Effects<A> {
    peers: Peers<TcpStream>,
    dialer: Dialer,
    app: A,
    commits: Vec<CommitEntry>,
    /// Fetch-peer rotation: the loop cannot know which peers are up, so a
    /// stalled window retries elsewhere (the catch-up machine's stall
    /// budget bounds the rotation).
    rotor: usize,
}

impl<A: App> ReplicaIo for Effects<A> {
    fn transmit(&mut self, out: Outbound) {
        self.peers.transmit(out);
    }

    fn commit(&mut self, entry: CommitEntry, _batch: Option<WorkloadBatch>) {
        self.app.deliver(&entry);
        self.commits.push(entry);
    }

    /// The other replicas in id order, one per fetch.
    fn fetch_peer(&mut self) -> Option<ReplicaId> {
        let (me, n) = (self.dialer.me.as_usize(), self.dialer.addrs.len());
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

    let dialer = Dialer::new(me, peers, inbox.waker.clone());
    let mut io = Effects {
        peers: dialer.connect(),
        dialer,
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
        io.dialer.hand_off(&mut io.peers);
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
            || !io.dialer.dialed.is_empty()
            || inbox.conns.release(&mut route);
        inbox.wait(
            io.peers.backlogged(),
            if queued { Duration::ZERO } else { wait },
        );
        inbox.conns.read(&mut route);
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
    io.dialer.hand_off(&mut io.peers);
    // Relaxed: `stop` publishes nothing; a dialer that sees it just exits.
    io.dialer.stop.store(true, Ordering::Relaxed);
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
        messages_sent: io.peers.frames_sent,
        frames_refused: io.peers.frames_refused,
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
    use crate::conn::tests::{framed, info, step, Script};
    use crate::conn::{BACKLOG, READ_BUDGET};
    use crate::framing::{encode_frame, read_frame, write_msg, Frame};
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::SharedMempool;
    use banyan_types::app::NullApp;
    use banyan_types::message::{DisseminationMsg, Message, PendingRequest, SyncMsg};
    use banyan_types::time::Duration as BDuration;
    use std::io::BufReader;
    use std::iter;

    // Scripted: the byte path's rules on seeded sockets; no thread, no
    // clock, no loopback.

    /// The backlogs of replica 0, peer `i + 1` on `scripts[i]`.
    fn scripted(scripts: Vec<Script>) -> Peers<Script> {
        let mut scripts = scripts.into_iter();
        Peers::new(ReplicaId(0), scripts.len() + 1, |_| scripts.next())
    }

    /// Connections reading `inputs`, up to `most` bytes a call.
    fn reading(most: usize, inputs: Vec<Vec<u8>>) -> Conns<Script> {
        let mut conns = Conns::default();
        for (seed, input) in (20..).zip(inputs) {
            conns.push(Script::new(seed).with(|s| (s.most, s.input) = (most, input)));
        }
        conns
    }

    fn hello(from: u16) -> Vec<u8> {
        let mut wire = Vec::new();
        write_hello(&mut wire, ReplicaId(from)).expect("hello");
        wire
    }

    /// `n` probes framed as sent by `from`.
    fn probes(from: u16, n: usize) -> Vec<u8> {
        encode_frame(ReplicaId(from), &probe())
            .expect("encode")
            .repeat(n)
    }

    fn probe() -> Message {
        Message::Sync(SyncMsg::FrontierProbe)
    }

    /// `messages_sent` counts the frames a backlog accepted, and
    /// `frames_refused` the rest: of `BACKLOG + 200` answers staged for a
    /// peer whose socket never takes a byte, the last 200 are refused.
    #[test]
    fn answers_refused_by_a_full_peer_queue_are_not_counted_as_sent() {
        let mut peers = scripted(vec![Script::new(1).with(|s| s.blocked = u64::MAX)]);
        let staged = BACKLOG as u64 + 200;
        for k in 0..staged {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        peers.write(|_| panic!("no write error"));
        assert_eq!(peers.frames_refused, 200);
        assert_eq!(peers.frames_sent + peers.frames_refused, staged);
    }

    /// A peer that never reads fills its backlog and does not stall the
    /// loop: what passes its backlog is refused at once, and another
    /// peer's frame, staged after all of it, leaves in the same step.
    #[test]
    fn a_peer_that_never_reads_does_not_stall_the_loop() {
        let reading = Script::new(3).with(|s| s.most = 7);
        let wire = reading.wire.clone();
        let mut peers = scripted(vec![Script::new(2).with(|s| s.blocked = u64::MAX), reading]);
        for k in 0..3 * BACKLOG as u64 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        peers.transmit(Outbound::Send(ReplicaId(2), info(0)));
        peers.write(|_| panic!("no write error"));
        assert_eq!(*wire.borrow(), framed(iter::once(info(0))));
        assert_eq!(peers.frames_refused, 2 * BACKLOG as u64);
    }

    /// A frame the socket takes only part of resumes at its offset: a
    /// slow peer, taking a few bytes a call between runs of `WouldBlock`,
    /// gets `write_msg`'s bytes for the same messages in `transmit` order.
    #[test]
    fn a_frame_cut_by_a_full_socket_resumes_at_its_offset() {
        let slow = Script::new(4).with(|s| (s.most, s.stall) = (5, 3));
        let wire = slow.wire.clone();
        let mut peers = scripted(vec![slow]);
        for k in 0..200 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        let ends: Vec<usize> = (0..=200).map(|k| framed((0..k).map(info)).len()).collect();
        let mut cuts = 0;
        while peers.backlogged().next().is_some() {
            peers.write(|_| panic!("no write error"));
            cuts += usize::from(ends.binary_search(&wire.borrow().len()).is_err());
        }
        assert!(cuts > 0, "the socket never cut a frame");
        assert!(
            *wire.borrow() == framed((0..200).map(info)),
            "not write_msg's bytes"
        );
    }

    /// A write error drops the stream and the frame it cut, and reports
    /// the peer for a redial; the rest of the backlog follows on the new
    /// stream as whole frames.
    #[test]
    fn a_write_error_redials_and_resumes_at_a_frame_boundary() {
        let reset_at = framed((0..6).map(info)).len() + 3;
        let first = Script::new(5).with(|s| (s.most, s.reset_at) = (5, Some(reset_at)));
        let first_wire = first.wire.clone();
        let mut peers = scripted(vec![first]);
        for k in 0..20 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        let mut redials = Vec::new();
        peers.write(|i| redials.push(i));
        assert_eq!(redials, [1], "peers reported for a redial");
        assert_eq!(first_wire.borrow().len(), reset_at);

        let second = Script::new(6).with(|s| s.most = 5);
        let second_wire = second.wire.clone();
        peers.connected(1, second);
        peers.write(|_| panic!("no second write error"));
        // Frame 6 was cut; frames 7.. follow whole.
        assert!(*second_wire.borrow() == framed((7..20).map(info)));
    }

    /// The hello names a connection's sender. One connection carries a
    /// probe of replica 1's own, then one framed as replica 2, then
    /// another of its own; a second says hello twice; a third sends a
    /// probe before any hello. Only the first probe is delivered, and
    /// every connection ends.
    #[test]
    fn a_frame_naming_another_sender_ends_the_connection() {
        let spoof = [hello(1), probes(1, 1), probes(2, 1), probes(1, 1)].concat();
        let rehello = [hello(1), hello(1), probes(1, 1)].concat();
        let mut conns = reading(3, vec![spoof, rehello, probes(1, 1)]);
        let got: Vec<Event> = (0..100).flat_map(|_| step(&mut conns)).collect();
        assert_eq!(got, [(ReplicaId(1), probe())]);
        assert_eq!(
            conns.watched().count(),
            0,
            "a connection outlived its spoof"
        );
    }

    /// Replica 1 floods probes while replica 2 sends its hello and probes
    /// a byte a read. Every step reads both: the flood at most
    /// `READ_BUDGET` bytes (plus the one read that crossed it), the
    /// dribble its byte, so replica 2's probes arrive at the steps they
    /// would without the flood. Both arrive whole and in order.
    #[test]
    fn a_flooding_peer_does_not_starve_one_dribbling_bytes() {
        let len = probes(1, 1).len();
        let flooded = 3 * READ_BUDGET / len;
        let dribble = [hello(2), probes(2, 3)].concat();
        let mut conns = reading(usize::MAX, vec![[hello(1), probes(1, flooded)].concat()]);
        conns.push(Script::new(8).with(|s| (s.most, s.input) = (1, dribble.clone())));
        let (mut from_flood, mut arrivals) = (0, Vec::new());
        for at in 0..dribble.len() {
            let events = step(&mut conns);
            let flood = events.iter().filter(|e| e.0 == ReplicaId(1)).count();
            assert!(
                flood * len <= READ_BUDGET + (64 << 10),
                "step {at}: {flood} flooded"
            );
            from_flood += flood;
            assert!(events.iter().all(|e| e.1 == probe()));
            arrivals.extend(events.iter().filter(|e| e.0 == ReplicaId(2)).map(|_| at));
        }
        let hello = dribble.len() - 3 * len;
        assert_eq!(arrivals, [1, 2, 3].map(|j| hello + j * len - 1));
        assert_eq!(from_flood, flooded, "flooded probes delivered");
    }

    /// A connection that never says hello — one silent, one stopped
    /// inside a header — delays no other: replica 1's probe is delivered
    /// in the first step, and the silent two stay open.
    #[test]
    fn a_connection_that_never_says_hello_delays_no_one() {
        let asker = [hello(1), probes(1, 1)].concat();
        let mut conns = reading(64 << 10, vec![vec![], vec![9, 0, 0], asker]);
        assert_eq!(step(&mut conns), [(ReplicaId(1), probe())]);
        assert_eq!(step(&mut conns), []);
        assert_eq!(conns.watched().count(), 3);
    }

    /// Staged, a frame whose verify worker's queue is full is held: its
    /// connection is neither waited on nor read until the worker takes
    /// it, while a connection routed to another worker is read on. The
    /// held frame and the rest then follow in order, none lost or
    /// repeated. Replica 1's worker here takes 10 frames a step.
    #[test]
    fn a_full_verify_queue_pauses_one_connection_not_the_loop() {
        const PROBES: usize = 1_000;
        let flood = [hello(1), probes(1, PROBES)].concat();
        let mut conns = reading(64 << 10, vec![flood, [hello(2), probes(2, 1)].concat()]);
        let mut got = Vec::new();
        for steps in 0.. {
            assert!(steps < 10 * PROBES, "the held frames never drained");
            let mut room = 10;
            let mut deliver = |event: Event| {
                if event.0 == ReplicaId(1) && room == 0 {
                    return Some(event);
                }
                room -= usize::from(event.0 == ReplicaId(1));
                got.push(event.0);
                None
            };
            conns.release(&mut deliver);
            conns.mark_ready(iter::repeat(true));
            conns.read(&mut deliver);
            if got.len() == PROBES + 1 {
                break;
            }
            assert_eq!(conns.watched().count(), 1, "a held connection is watched");
        }
        assert!(got.contains(&ReplicaId(2)), "replica 2's probe was held up");
        assert_eq!(
            got.iter().filter(|&&from| from == ReplicaId(1)).count(),
            PROBES
        );
    }

    // Over loopback: what needs the shell's sockets and wait.

    /// Addresses nobody listens on: a dialer never connects to one, so
    /// its backlog is never written.
    /// The `FrontierInfo` answers the replica sends the peer listening on
    /// `listener`, read until it hangs up or `timeout` passes unread.
    fn answers_on(listener: &TcpListener, timeout: Duration) -> usize {
        let (inbound, _) = listener.accept().expect("the replica dials its peer");
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

    fn unreachable_addrs(k: usize) -> Vec<SocketAddr> {
        let listeners: Vec<_> = (0..k).map(|_| listener()).collect();
        listeners.iter().map(|(_, addr)| *addr).collect()
    }

    fn listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    fn request(id: u64) -> PendingRequest {
        let submitted_at = Time::ZERO;
        PendingRequest {
            id,
            client: 0,
            size: 64,
            submitted_at,
        }
    }

    /// A frame the socket refused is finished on `POLLOUT`: the wait
    /// watches the backlogged socket and returns once the slow peer makes
    /// room. Each wait here may sleep 10 s and no timer is in play, so a
    /// wait that did not watch the socket would sleep through. The ~9 MB
    /// frame outgrows what a loopback connection buffers for a reader
    /// that has not read yet.
    #[test]
    fn a_refused_backlog_is_finished_when_its_socket_has_room() {
        let (slow, slow_addr) = listener();
        let (waker, _) = Waker::pair().expect("waker");
        let addrs = vec![unreachable_addrs(1)[0], slow_addr];
        let dialer = Dialer::new(ReplicaId(0), addrs, waker);
        let mut peers = dialer.connect();
        let mut inbox = Inbox::bind("127.0.0.1:0".parse().expect("addr")).expect("bind");
        let requests = vec![request(1); 400_000];
        let msg = Message::Dissemination(DisseminationMsg::Forward { requests });
        peers.transmit(Outbound::Send(ReplicaId(1), msg.clone()));
        dialer.hand_off(&mut peers);
        let pending = |peers: &Peers<_>| peers.backlogged().next().is_some();
        assert!(pending(&peers), "the socket took the frame at once");

        let (mut conn, _) = slow.accept().expect("accept");
        let reader = thread::spawn(move || {
            thread::sleep(Duration::from_millis(200));
            let mut wire = Vec::new();
            conn.read_to_end(&mut wire).map(|_| wire)
        });
        while pending(&peers) {
            let waited = Instant::now();
            inbox.wait(peers.backlogged(), Duration::from_secs(10));
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "the wait slept through room"
            );
            dialer.hand_off(&mut peers);
        }
        drop(peers);

        let want = [hello(0), framed(iter::once(msg))].concat();
        let got = reader.join().expect("reader").expect("read");
        assert_eq!(got.len(), want.len(), "bytes read");
        assert!(got == want, "the bytes differ from write_msg's");
    }

    /// A sender that stalls 120 ms three bytes into a frame's six-byte
    /// header, and again between the header and the body, must not
    /// desynchronize the reader: the frame arrives intact, inline and
    /// staged. The frame is a `FrontierProbe`, and the replica runs
    /// HotStuff — which ignores sync traffic — so the `FrontierInfo` that
    /// comes back can only be the driver's answer.
    #[test]
    fn stalled_frame_arrives_intact_and_the_driver_answers_the_probe() {
        let _serial = crate::loopback_serial_lock();
        let mut wire = hello(1);
        let stalls = [wire.len() + 3, wire.len() + 6];
        wire.extend(probes(1, 1));
        for staged in [false, true] {
            let (one, one_addr) = listener();
            let mut peers = unreachable_addrs(4);
            peers[1] = one_addr;
            let listen = peers[0];
            let engine = ClusterBuilder::new(4, 1, 1)
                .unwrap()
                .build_hotstuff()
                .swap_remove(0);
            let stage = staged.then(PipelineConfig::default);
            let run_for = Duration::from_millis(1000);
            let replica = thread::spawn(move || {
                let pool = None::<SharedMempool>;
                run(engine, NullApp, pool, stage, listen, peers, run_for, None)
            });
            let mut out = loop {
                match TcpStream::connect(listen) {
                    Ok(s) => break s,
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            };
            out.set_nodelay(true).expect("nodelay");
            let mut sent = 0;
            for at in stalls.into_iter().chain([wire.len()]) {
                out.write_all(&wire[sent..at]).expect("part of the probe");
                thread::sleep(Duration::from_millis(120));
                sent = at;
            }

            let timeout = run_for + Duration::from_secs(5);
            let answers = answers_on(&one, timeout);
            let (report, stats) = replica
                .join()
                .expect("replica thread")
                .expect("replica run");
            assert_eq!(
                report.messages_received, 1,
                "staged={staged}: the stalled frame was lost or mangled"
            );
            assert_eq!(answers, 1, "staged={staged}: probe not answered by the driver");
            if staged {
                assert_eq!((stats.decoded, stats.verified), (1, 1));
            }
        }
    }

    /// Inline and staged, a replica does with every frame what the other
    /// does: gossip reaches the pool, a carried workload batch is leased,
    /// a block whose payload claims to be a batch but is none reaches the
    /// engine all the same, and every frame counts as received. Replica 1
    /// sends them, then a probe, on one connection. The replica runs
    /// HotStuff, which ignores sync traffic, so only the loop acts on the
    /// blocks, and the one `FrontierInfo` that comes back can only be the
    /// driver's answer.
    #[test]
    fn a_staged_replica_does_with_every_frame_what_an_inline_one_does() {
        use banyan_crypto::Signature;
        use banyan_mempool::{ConcurrentPool, Mempool};
        use banyan_types::block::Block;
        use banyan_types::ids::{BlockHash, Rank, Round};
        use banyan_types::payload::Payload;
        let _serial = crate::loopback_serial_lock();
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
            probe(),
        ];
        let mut wire = hello(1);
        for msg in &frames {
            write_msg(&mut wire, ReplicaId(1), msg).expect("encode");
        }

        for staged in [false, true] {
            let (one, one_addr) = listener();
            let mut peers = unreachable_addrs(4);
            peers[1] = one_addr;
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
            let mut out = loop {
                match TcpStream::connect(listen) {
                    Ok(s) => break s,
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            };
            out.set_nodelay(true).expect("nodelay");
            out.write_all(&wire).expect("frames");
            let answers = answers_on(&one, run_for + Duration::from_secs(5));

            let replica = replica.join().expect("replica thread");
            let (report, stats) = replica.expect("replica run");
            assert_eq!(answers, 1, "staged={staged}: the probe was not answered");
            let received = report.messages_received;
            assert_eq!(received, 4, "staged={staged}: a frame was lost or mangled");
            assert_eq!(pool.len(), 2, "staged={staged}: gossip missed the pool");
            let leases = pool.pool().live_leases();
            assert_eq!(leases, 1, "staged={staged}: leases recorded");
            if staged {
                assert_eq!((stats.decoded, stats.verified), (4, 4), "{stats:?}");
            }
        }
    }
}
