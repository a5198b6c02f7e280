//! The one TCP replica event loop. Every public runner
//! ([`run_replica_full`](crate::runner::run_replica_full),
//! [`run_replica_restarting`](crate::runner::run_replica_restarting),
//! [`run_replica_pipelined`](crate::pipeline::run_replica_pipelined)) is a
//! thin call into [`run`]. A replica is one thread:
//!
//! ```text
//!   listener · inbound connections · waker · backlogged outbound sockets
//!                          │ one ppoll(2), until the step's deadline
//!                          ▼
//!   engine loop (the calling thread): read the clock, then one step
//!     · reads each ready connection (conn::Conns): frames join the
//!       step's events
//!     · the replica step the simulator runs too (banyan_runtime::Replica)
//!     · each outbound message encoded once into every addressed peer's
//!       backlog (conn::Peers), written at the step's end; a peer without
//!       a socket is dialed (non-blocking connect) when its redial is due
//! ```
//!
//! [`Shell::step`] is everything between two waits, over any `Read +
//! Write` stream, given `now`; it reads no clock and returns its next
//! deadline. [`run`] adds the sockets, the wall clock and the wait; the
//! tests' `LocalNet` steps n shells over seeded pipes in virtual time.
//! The bytes are [`conn`](crate::conn)'s, and a frame, timer, crash or
//! rejoin is [`Replica`]'s; the shell adds the one choice a socketed
//! driver makes blind: which peer to fetch from. A full socket delays
//! only its peer, whose socket the wait then watches. The engine
//! recognises a relayed copy of a block it holds by equality, so each
//! block's payload is hashed once per replica, on this thread. The loop
//! waits until the earliest live timer: [`Replica::next_deadline`] drops
//! the timers of rounds already left before it answers.
//!
//! A client's push into an idle pool wakes the parked loop through a
//! socket pair the wait watches, writing a byte only while the loop is
//! parked: an idle rank-0 leader holds its proposal until a request
//! reaches its pool, so a missed push would wait out the timeout.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banyan_mempool::{ArrivalHook, ReplicaPool, WorkloadBatch};
use banyan_runtime::driver::{Due, Replica, ReplicaIo};
use banyan_types::app::App;
use banyan_types::engine::{CommitEntry, Engine, Outbound};
use banyan_types::ids::ReplicaId;
use banyan_types::time::Time;

use crate::conn::{Conns, Event, Peers};
use crate::poll::{self, PollFd, READABLE, WRITABLE};
use crate::runner::{TcpRestart, TcpRunReport};

/// The longest wait: a parked loop looks around this often.
const MAX_WAIT: Duration = Duration::from_millis(10);
/// Per-step catch-up deadline (wall clock, 250 ms). Loopback round trips
/// are far below this; a lapsed window re-probes or rotates peers.
const CATCHUP_TIMEOUT: banyan_types::time::Duration = banyan_types::time::Duration(250_000_000);

/// Wakes the loop out of its wait from a client thread pushing into its
/// pool: one byte into a socket pair whose read end the wait watches,
/// written only while the loop is parked, so a push into a busy loop's
/// pool costs no syscall.
struct Waker {
    /// True from just before the loop's last look at its arrival flag
    /// until its wait returns.
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

    /// The loop is about to wait: after this it looks at its arrival flag
    /// one last time, and a push after that wakes it.
    fn park(&self) {
        self.parked.store(true, Ordering::Relaxed);
        // Pairs with the fence in `wake`: either the loop's last look
        // sees what a pusher flagged, or that pusher sees `parked`.
        fence(Ordering::SeqCst);
    }

    /// The loop's wait is over.
    fn unpark(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Called after flagging a push for the loop: a byte if it is parked.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.swap(false, Ordering::Relaxed) {
            // A full pair already holds a wake-up the loop has not read.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// What the wait watches besides the connections: the listener and the
/// waker's read end, both non-blocking.
struct Inbox {
    listener: TcpListener,
    waker: Arc<Waker>,
    wakes: UnixStream,
    /// The wait's descriptor list, kept to reuse its allocation.
    fds: Vec<PollFd>,
}

impl Inbox {
    fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (waker, wakes) = Waker::pair()?;
        Ok(Inbox {
            listener,
            waker,
            wakes,
            fds: Vec::new(),
        })
    }

    /// Blocks until a connection is readable or arrives, an outbound
    /// socket in `writable` can take bytes, the waker fires, or `timeout`
    /// passes; then marks the ready connections and accepts the new ones.
    fn wait<'a>(
        &mut self,
        conns: &mut Conns<TcpStream>,
        writable: impl Iterator<Item = &'a TcpStream>,
        timeout: Duration,
    ) {
        self.fds.clear();
        self.fds.push(PollFd::new(&self.wakes, READABLE));
        self.fds.push(PollFd::new(&self.listener, READABLE));
        let watched = conns.watched();
        self.fds
            .extend(watched.map(|stream| PollFd::new(stream, READABLE)));
        self.fds
            .extend(writable.map(|stream| PollFd::new(stream, WRITABLE)));
        // Should the wait itself fail, every socket is tried: a read that
        // finds nothing costs one `WouldBlock`.
        let waited = poll::wait(&mut self.fds, timeout).is_ok();
        self.waker.unpark();
        let mut fds = self.fds.iter().map(|fd| !waited || fd.ready());
        let (woken, arrived) = (fds.next() == Some(true), fds.next() == Some(true));
        conns.mark_ready(fds);
        if woken {
            while let Ok(1..) = (&self.wakes).read(&mut [0; 64]) {}
        }
        // Take in every connection waiting. One that fails (a peer that
        // gave up, descriptors exhausted) is left: its peer redials.
        let mut accepting = arrived;
        while accepting {
            match self.listener.accept() {
                Ok((stream, _)) if stream.set_nonblocking(true).is_ok() => conns.push(stream),
                Ok(_) => {}
                Err(e) => accepting = e.kind() == io::ErrorKind::Interrupted,
            }
        }
    }
}

/// The loop's [`ReplicaIo`]: frames go into the peers' backlogs, commits
/// to the app and the run report, and fetches rotate through the other
/// replicas.
struct Effects<S, A> {
    peers: Peers<S>,
    app: A,
    commits: Vec<CommitEntry>,
    /// The other replicas in id order from this one, round and round: the
    /// loop cannot know which peers are up, so a stalled window retries
    /// elsewhere (the catch-up machine's stall budget bounds the
    /// rotation).
    fetch: Box<dyn Iterator<Item = ReplicaId>>,
}

impl<S: Write, A: App> ReplicaIo for Effects<S, A> {
    fn transmit(&mut self, out: Outbound) {
        self.peers.transmit(out);
    }

    fn commit(&mut self, entry: CommitEntry, _batch: Option<WorkloadBatch>) {
        self.app.deliver(&entry);
        self.commits.push(entry);
    }

    /// The next of the other replicas; none if there is nobody to ask.
    fn fetch_peer(&mut self) -> Option<ReplicaId> {
        self.fetch.next()
    }
}

/// One replica's loop state between steps, over streams `S`: the
/// replica, its effects, its inbound connections and the crash and
/// rejoin still to come.
struct Shell<S, A, P> {
    replica: Replica<P>,
    io: Effects<S, A>,
    conns: Conns<S>,
    restart: Option<TcpRestart>,
    /// The step's events, kept to reuse their allocation.
    events: Vec<Event>,
    messages_received: u64,
}

impl<S: Read + Write, A: App, P: ReplicaPool> Shell<S, A, P> {
    /// Replica `engine.id()` of `n`, started at `now`: no peer dialed yet.
    fn start(
        engine: Box<dyn Engine>,
        app: A,
        pool: Option<P>,
        n: usize,
        restart: Option<TcpRestart>,
        now: Time,
    ) -> Self {
        let me = engine.id();
        let others = (1..n).map(move |off| ReplicaId(((me.as_usize() + off) % n) as u16));
        let (peers, fetch) = (Peers::new(me, n), Box::new(others.cycle()));
        let mut shell = Shell {
            replica: Replica::new(engine, pool, CATCHUP_TIMEOUT),
            io: Effects {
                peers,
                app,
                commits: Vec::new(),
                fetch,
            },
            conns: Conns::default(),
            restart,
            events: Vec::new(),
            messages_received: 0,
        };
        // Disseminate before proposing: requests already pooled locally
        // are forwarded ahead of the init proposal in every per-peer
        // backlog, so per-connection ordering lands them in peer pools
        // before any block that could commit them (a quorum excluding
        // this replica can commit its init proposal arbitrarily soon
        // after it is sent).
        shell.replica.flush(now, &mut shell.io);
        shell.replica.init(now, &mut shell.io);
        shell
    }

    /// One step at `now`: the frames of the connections the wait marked
    /// ready, the crash or rejoin due, the timers due, the pool's gossip,
    /// and every backlog written, each peer whose redial is due dialed by
    /// `dial`. Returns when to step next: the earliest timer, crash,
    /// rejoin or redial, or `now` if a flush left gossip queued.
    fn step(&mut self, now: Time, dial: impl FnMut(usize) -> io::Result<S>) -> Option<Time> {
        self.conns.read(&mut self.events);
        // While down, as with a dead process, every frame is dropped
        // unhandled; reading them on keeps every peer's connection moving.
        for (from, msg) in self.events.drain(..) {
            self.messages_received += 1;
            self.replica.on_frame(from, msg, now, &mut self.io);
        }
        let phase = self.restart_phase(now);
        while self.replica.on_timer(now, &mut self.io) != Due::Nothing {}
        let queued = self.replica.flush(now, &mut self.io).then_some(now);
        // The step is over: its frames leave, each peer's in as few
        // writes as its socket takes.
        self.io.peers.write(now, dial);
        let (timer, redial) = (self.replica.next_deadline(), self.io.peers.next_dial());
        [queued, timer, phase, redial].into_iter().flatten().min()
    }

    /// Crashes or rejoins the replica if the restart plan says so by
    /// `now`; returns the plan's next point, if one is left.
    fn restart_phase(&mut self, now: Time) -> Option<Time> {
        let plan = self.restart.as_ref()?;
        let at = |offset| Time::ZERO + banyan_types::time::Duration::from(offset);
        if self.replica.is_up() && now >= at(plan.crash_after) {
            // Crash: all volatile state is gone; only durable storage
            // (the WAL) and the commits already delivered survive.
            self.replica.crash();
        }
        let next = at(if self.replica.is_up() {
            plan.crash_after
        } else {
            plan.rejoin_after
        });
        if now < next {
            return Some(next);
        }
        let plan = self.restart.take()?;
        // Rebuild from durable state only (reopens the WAL).
        self.replica.rejoin((plan.rebuild)(), now, &mut self.io);
        None
    }

    fn report(self) -> TcpRunReport {
        let (replica, io) = (self.replica, self.io);
        // Crashed and never rejoined before the deadline: no engine to read.
        let engine = replica.engine();
        let verified = engine.map(|e| e.verify_stats()).unwrap_or_default();
        TcpRunReport {
            commits: io.commits,
            messages_received: self.messages_received,
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
        }
    }
}

/// Runs `engine` over TCP for `run_for`, accepting on `listener`,
/// crashing and rejoining mid-run when `restart` says so. Each turn reads
/// the wall clock, steps the [`Shell`] and waits until the deadline it
/// returned (10 ms at most).
///
/// # Errors
///
/// Returns an I/O error if the listener or the waker cannot be set up.
pub(crate) fn run<P: ReplicaPool>(
    engine: Box<dyn Engine>,
    app: impl App + 'static,
    pool: Option<P>,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    run_for: Duration,
    restart: Option<TcpRestart>,
) -> io::Result<TcpRunReport> {
    let start = Instant::now();
    let now = || Time(start.elapsed().as_nanos() as u64);

    let mut inbox = Inbox::new(listener)?;
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
    let mut shell = Shell::start(engine, app, pool, peers.len(), restart, now());
    let mut dial = |i: usize| poll::connect_nonblocking(peers[i]);

    let (end, mut at) = (Time(run_for.as_nanos() as u64), now());
    while at < end {
        let next = shell.step(at, &mut dial);
        // Parked first, then one last look at the arrival flag: a push
        // after the look wakes the wait.
        inbox.waker.park();
        let queued = arrived.swap(false, Ordering::Relaxed);
        let wait = match next {
            _ if queued => Duration::ZERO,
            Some(next) => Duration::from_nanos(next.0.saturating_sub(now().0)),
            None => MAX_WAIT,
        };
        let writable = shell.io.peers.backlogged();
        inbox.wait(&mut shell.conns, writable, wait.min(MAX_WAIT));
        at = now();
    }
    Ok(shell.report())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::conn::tests::{framed, info, once, step, Link, Script};
    use crate::conn::{BACKLOG, READ_BUDGET};
    use crate::framing::tests::splitmix;
    use crate::framing::{encode_frame, read_frame, write_hello, write_msg, Frame};
    use banyan_core::builder::ClusterBuilder;
    use banyan_mempool::SharedMempool;
    use banyan_runtime::EventQueue;
    use banyan_types::app::NullApp;
    use banyan_types::message::{DisseminationMsg, Message, PendingRequest, SyncMsg};
    use banyan_types::time::Duration as BDuration;
    use std::cell::{Cell, RefCell};
    use std::io::BufReader;
    use std::iter;
    use std::rc::Rc;
    use std::thread;

    // Scripted: the byte path's rules on seeded sockets; no thread, no
    // clock, no loopback.

    /// The backlogs of replica 0, not yet connected: the first
    /// [`write_to`] dials peer `i + 1` on `scripts[i]`.
    fn scripted(scripts: Vec<Script>) -> (Peers<Script>, impl FnMut(usize) -> io::Result<Script>) {
        let peers = Peers::new(ReplicaId(0), scripts.len() + 1);
        let mut scripts = scripts.into_iter().map(Some).collect::<Vec<_>>();
        (peers, move |i: usize| {
            Ok(scripts[i - 1].take().expect("one dial a peer"))
        })
    }

    /// Connections reading `inputs`, up to `most` bytes a call.
    fn reading(most: usize, inputs: Vec<Vec<u8>>) -> Conns<Script> {
        let mut conns = Conns::default();
        for (seed, input) in (20..).zip(inputs) {
            let input = Rc::new(RefCell::new(input));
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
        let (mut peers, dial) = scripted(vec![Script::new(1).with(|s| s.blocked = u64::MAX)]);
        let staged = BACKLOG as u64 + 200;
        for k in 0..staged {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        peers.write(Time::ZERO, dial);
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
        let blocked = Script::new(2).with(|s| s.blocked = u64::MAX);
        let (mut peers, dial) = scripted(vec![blocked, reading]);
        for k in 0..3 * BACKLOG as u64 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        peers.transmit(Outbound::Send(ReplicaId(2), info(0)));
        peers.write(Time::ZERO, dial);
        assert_eq!(
            *wire.borrow(),
            [hello(0), framed(iter::once(info(0)))].concat()
        );
        assert_eq!(peers.frames_refused, 2 * BACKLOG as u64);
    }

    /// A frame the socket takes only part of resumes at its offset: a
    /// slow peer, taking a few bytes a call between runs of `WouldBlock`,
    /// gets `write_msg`'s bytes for the same messages in `transmit` order.
    #[test]
    fn a_frame_cut_by_a_full_socket_resumes_at_its_offset() {
        let slow = Script::new(4).with(|s| (s.most, s.stall) = (5, 3));
        let wire = slow.wire.clone();
        let (mut peers, mut dial) = scripted(vec![slow]);
        for k in 0..200 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        let framed_to = |k| [hello(0), framed((0..k).map(info))].concat();
        let ends: Vec<usize> = (0..=200).map(|k| framed_to(k).len()).collect();
        let mut cuts = 0;
        loop {
            peers.write(Time::ZERO, &mut dial);
            cuts += usize::from(ends.binary_search(&wire.borrow().len()).is_err());
            if peers.backlogged().next().is_none() {
                break;
            }
        }
        assert!(cuts > 0, "the socket never cut a frame");
        assert!(*wire.borrow() == framed_to(200), "not write_msg's bytes");
    }

    /// A write error drops the stream and the frame it cut, and sets the
    /// peer's redial 100 µs on; not dialed before then, the rest of the
    /// backlog follows on the new stream, after its hello, as whole
    /// frames.
    #[test]
    fn a_write_error_redials_and_resumes_at_a_frame_boundary() {
        let reset_at = hello(0).len() + framed((0..6).map(info)).len() + 3;
        let first = Script::new(5).with(|s| (s.most, s.reset_at) = (5, Some(reset_at)));
        let first_wire = first.wire.clone();
        let (mut peers, dial) = scripted(vec![first]);
        for k in 0..20 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        let failed = Time(7_000);
        peers.write(failed, dial);
        assert_eq!(first_wire.borrow().len(), reset_at);
        let redial = failed + BDuration::from_micros(100);
        assert_eq!(peers.next_dial(), Some(redial), "the redial's deadline");
        peers.write(Time(redial.0 - 1), |_| panic!("dialed before the deadline"));

        let second = Script::new(6).with(|s| s.most = 5);
        let second_wire = second.wire.clone();
        peers.write(redial, once(second));
        assert_eq!(peers.next_dial(), None, "a second write error");
        // Frame 6 was cut; frames 7.. follow whole.
        assert!(*second_wire.borrow() == [hello(0), framed((7..20).map(info))].concat());
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
        let input = Rc::new(RefCell::new(dribble.clone()));
        conns.push(Script::new(8).with(|s| (s.most, s.input) = (1, input)));
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

    // Over loopback: what needs the shell's sockets and wait.

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

    /// Addresses nobody listens on: a dial to one is refused, so its
    /// backlog is never written.
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
        let addrs = [unreachable_addrs(1)[0], slow_addr];
        let mut dial = |i: usize| poll::connect_nonblocking(addrs[i]);
        let mut peers = Peers::new(ReplicaId(0), 2);
        let mut inbox = Inbox::new(listener().0).expect("inbox");
        let mut conns = Conns::default();
        let requests = vec![request(1); 400_000];
        let msg = Message::Dissemination(DisseminationMsg::Forward { requests });
        peers.transmit(Outbound::Send(ReplicaId(1), msg.clone()));
        peers.write(Time::ZERO, &mut dial);
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
            inbox.wait(&mut conns, peers.backlogged(), Duration::from_secs(10));
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "the wait slept through room"
            );
            peers.write(Time::ZERO, &mut dial);
        }
        drop(peers);

        let want = [hello(0), framed(iter::once(msg))].concat();
        let got = reader.join().expect("reader").expect("read");
        assert_eq!(got.len(), want.len(), "bytes read");
        assert!(got == want, "the bytes differ from write_msg's");
    }

    /// Connects to the replica listening on `listen` as soon as it is up.
    fn connect(listen: SocketAddr) -> TcpStream {
        let out = loop {
            match TcpStream::connect(listen) {
                Ok(s) => break s,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        out.set_nodelay(true).expect("nodelay");
        out
    }

    /// A sender that stalls 120 ms three bytes into a frame's six-byte
    /// header, and again between the header and the body, must not
    /// desynchronize the reader: the frame arrives intact. The frame is a
    /// `FrontierProbe`, and the replica runs HotStuff — which ignores
    /// sync traffic — so the `FrontierInfo` that comes back can only be
    /// the driver's answer.
    #[test]
    fn stalled_frame_arrives_intact_and_the_driver_answers_the_probe() {
        let _serial = crate::loopback_serial_lock();
        let mut wire = hello(1);
        let stalls = [wire.len() + 3, wire.len() + 6];
        wire.extend(probes(1, 1));
        let ((one, one_addr), (own, listen)) = (listener(), listener());
        let mut peers = unreachable_addrs(4);
        (peers[0], peers[1]) = (listen, one_addr);
        let engine = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .build_hotstuff()
            .swap_remove(0);
        let run_for = Duration::from_millis(1000);
        let replica = thread::spawn(move || {
            let pool = None::<SharedMempool>;
            run(engine, NullApp, pool, own, peers, run_for, None)
        });
        let mut out = connect(listen);
        let mut sent = 0;
        for at in stalls.into_iter().chain([wire.len()]) {
            out.write_all(&wire[sent..at]).expect("part of the probe");
            thread::sleep(Duration::from_millis(120));
            sent = at;
        }

        let answers = answers_on(&one, run_for + Duration::from_secs(5));
        let report = replica
            .join()
            .expect("replica thread")
            .expect("replica run");
        assert_eq!(
            report.messages_received, 1,
            "the stalled frame was lost or mangled"
        );
        assert_eq!(answers, 1, "probe not answered by the driver");
    }

    /// Over a `ConcurrentPool`, the replica does with every frame kind
    /// what the simulator's driver does: gossip reaches the pool, a
    /// carried workload batch is leased, a block whose payload claims to
    /// be a batch but is none reaches the engine all the same, and every
    /// frame counts as received. Replica 1 sends them, then a probe, on
    /// one connection. The replica runs HotStuff, which ignores sync
    /// traffic, so only the loop acts on the blocks, and the one
    /// `FrontierInfo` that comes back can only be the driver's answer.
    #[test]
    fn every_frame_kind_reaches_the_pool_or_the_driver() {
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

        let ((one, one_addr), (own, listen)) = (listener(), listener());
        let mut peers = unreachable_addrs(4);
        (peers[0], peers[1]) = (listen, one_addr);
        let builder = ClusterBuilder::new(4, 1, 1)
            .unwrap()
            .delta(BDuration::from_secs(60));
        let chunk = builder.protocol_config().payload_chunk;
        let pool = ConcurrentPool::new(Mempool::new(64).with_speculation(chunk), 64);
        let engine = builder.build_hotstuff().swap_remove(0);
        let replica_pool = Some(pool.clone());
        let run_for = Duration::from_millis(1000);
        let replica =
            thread::spawn(move || run(engine, NullApp, replica_pool, own, peers, run_for, None));
        let mut out = connect(listen);
        out.write_all(&wire).expect("frames");
        let answers = answers_on(&one, run_for + Duration::from_secs(5));

        let report = replica.join().expect("replica thread");
        let report = report.expect("replica run");
        assert_eq!(answers, 1, "the probe was not answered");
        let received = report.messages_received;
        assert_eq!(received, 4, "a frame was lost or mangled");
        assert_eq!(pool.len(), 2, "gossip missed the pool");
        assert_eq!(pool.pool().live_leases(), 1, "leases recorded");
    }

    // In one thread: whole clusters of shells over seeded pipes, in
    // virtual time.

    /// n shells in one thread, joined by seeded in-memory pipes
    /// ([`Script::pair`]) that deliver each write `delay` later, in
    /// virtual time: the pipes' arrivals wait in an [`EventQueue`], and
    /// the clock jumps to the earliest arrival or shell deadline. At each
    /// instant every shell due steps, in index order, its connections all
    /// marked ready (a pipe read that finds nothing would block), and
    /// again at once while a pipe refused part of its backlog. The run is
    /// a function of the seed: no thread, socket, sleep or clock.
    pub(crate) struct LocalNet {
        pub(crate) seed: u64,
        pub(crate) delay: BDuration,
    }

    impl LocalNet {
        /// Runs `engines` for `run_for`, replica `i` with `pool(i)` and the
        /// restart plan `restart(i)` (offsets in virtual time); returns
        /// each replica's report.
        pub(crate) fn run<P: ReplicaPool>(
            &self,
            engines: Vec<Box<dyn Engine>>,
            run_for: BDuration,
            mut pool: impl FnMut(usize) -> Option<P>,
            mut restart: impl FnMut(usize) -> Option<TcpRestart>,
        ) -> Vec<TcpRunReport> {
            let n = engines.len();
            let clock = Rc::new(Cell::new(Time::ZERO));
            let arrivals = Rc::new(RefCell::new(EventQueue::new()));
            let mut next = splitmix(self.seed);
            let mut shells: Vec<Shell<Script, NullApp, P>> = (engines.into_iter().enumerate())
                .map(|(i, e)| Shell::start(e, NullApp, pool(i), n, restart(i), Time::ZERO))
                .collect();
            // Each replica's inbound pipes, dialed and not yet taken in.
            let mut dialed: Vec<Vec<Script>> = (0..n).map(|_| Vec::new()).collect();
            let mut due = vec![Some(Time::ZERO); n];
            let end = Time::ZERO + run_for;
            loop {
                let first = arrivals.borrow().next_at();
                let now = match due.iter().chain([&first]).flatten().min() {
                    Some(&now) if now < end => now,
                    _ => break,
                };
                clock.set(now);
                let mut woken: Vec<bool> = due
                    .iter()
                    .map(|at| at.is_some_and(|at| at <= now))
                    .collect();
                while let Some((_, j)) = arrivals.borrow_mut().pop_due(now) {
                    woken[j] = true;
                }
                for (i, shell) in shells.iter_mut().enumerate().filter(|(i, _)| woken[*i]) {
                    dialed[i].drain(..).for_each(|rx| shell.conns.push(rx));
                    shell.conns.mark_ready(iter::repeat(true));
                    let dial = |j: usize| {
                        let arrivals = arrivals.clone();
                        let wake = Box::new(move |at| arrivals.borrow_mut().push(at, j));
                        let (tx, rx) =
                            Script::pair(&mut next, Link::new(clock.clone(), self.delay, wake));
                        dialed[j].push(rx);
                        Ok(tx)
                    };
                    let next_step = shell.step(now, dial);
                    let refused = shell.io.peers.backlogged().next().is_some();
                    due[i] = if refused { Some(now) } else { next_step };
                }
            }
            shells.into_iter().map(Shell::report).collect()
        }
    }

    /// A commit log as the simulator and the shell can agree on it: block
    /// hashes cover proposal times, which differ.
    fn chain(
        commits: &[CommitEntry],
    ) -> Vec<(banyan_types::ids::Round, ReplicaId, banyan_types::Payload)> {
        let chain = commits
            .iter()
            .map(|c| (c.round, c.proposer, c.payload.clone()));
        chain.collect()
    }

    /// `tests/sim_vs_loopback.rs`'s case — seed 11, Δ = 1 s, 1 ms links,
    /// n = 4 — on a `LocalNet`: for banyan and icc, the shell finalizes
    /// the simulator's chain prefix, at least 20 commits of it; and two
    /// runs at one seed are bit-identical in every replica's commit log
    /// (block hashes included) and frame counts.
    #[test]
    fn a_localnet_finalizes_the_simulators_chain_and_replays_bit_identically() {
        use banyan_simnet::faults::FaultPlan;
        use banyan_simnet::sim::{SimConfig, Simulation};
        use banyan_simnet::topology::Topology;
        let link = BDuration::from_millis(1);
        for protocol in ["banyan", "icc"] {
            let builder = ClusterBuilder::new(4, 1, 1)
                .unwrap()
                .cluster_seed(11)
                .delta(BDuration::from_secs(1))
                .payload_size(256);
            let topology = Topology::uniform(4, link);
            let (faults, config) = (FaultPlan::none(), SimConfig::with_seed(11));
            let mut sim = Simulation::new(topology, builder.build(protocol), faults, config);
            sim.run_until(Time::ZERO + BDuration::from_secs(1));
            let commits = sim.metrics().commits.iter();
            let first: Vec<CommitEntry> = commits
                .filter(|c| c.replica == ReplicaId(0))
                .map(|c| c.entry.clone())
                .collect();

            let net = LocalNet {
                seed: 11,
                delay: link,
            };
            let run = || {
                let engines = builder.build(protocol);
                net.run(
                    engines,
                    BDuration::from_secs(1),
                    |_| None::<SharedMempool>,
                    |_| None,
                )
            };
            let (once, again) = (run(), run());
            let (simulated, shelled) = (chain(&first), chain(&once[0].commits));
            let k = simulated.len().min(shelled.len());
            assert!(
                k >= 20,
                "{protocol}: {} simulated, {} shelled commits",
                simulated.len(),
                shelled.len()
            );
            assert_eq!(
                simulated[..k],
                shelled[..k],
                "{protocol}: the chains diverge"
            );
            for (i, (a, b)) in once.iter().zip(&again).enumerate() {
                assert!(
                    a.commits == b.commits,
                    "{protocol}: replica {i}'s commit logs differ"
                );
                let counts =
                    |r: &TcpRunReport| (r.messages_sent, r.messages_received, r.frames_refused);
                assert_eq!(
                    counts(a),
                    counts(b),
                    "{protocol}: replica {i}'s frame counts"
                );
            }
        }
    }
}
