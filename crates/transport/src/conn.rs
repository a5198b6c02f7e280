//! The per-connection rules of the TCP byte path, over std's [`Read`]
//! and [`Write`]: [`Conns`] turns inbound streams into frames bound to
//! the sender each hello names, and [`Peers`] keeps every peer's bounded
//! outbound backlog and redial deadline. The replica loop runs them on
//! `TcpStream`s, the tests on a seeded scripted socket. Nothing here reads
//! a clock, spawns a thread or sleeps: what happens is a function of the
//! bytes, of how the streams chunk them and of the `now` a write is given.
//! The shell (`replica`) owns readiness, the listener, the waker and the
//! connect itself.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::mem;
use std::sync::Arc;

use banyan_types::engine::Outbound;
use banyan_types::ids::ReplicaId;
use banyan_types::message::Message;
use banyan_types::time::{Duration, Time};

use crate::framing::{encode_frame, write_hello, Frame, FrameBuf};

/// A decoded frame: its sender and its message.
pub(crate) type Event = (ReplicaId, Message);

/// Bytes one step reads from one connection at most, so a peer that
/// floods cannot starve the others.
pub(crate) const READ_BUDGET: usize = 1 << 20;
/// Frames one peer's backlog holds. Past it, what is sent to a peer that
/// stopped reading (or is not connected) is lost, as on any wire.
pub(crate) const BACKLOG: usize = 4096;
/// Frames one `write_vectored` call hands the stream.
const IOV: usize = 64;

/// One inbound connection: its stream, the bytes of a frame still
/// arriving, and the sender its hello named.
struct Conn<S> {
    stream: S,
    frames: FrameBuf,
    /// Set by the hello; every later frame must name it.
    peer: Option<ReplicaId>,
    /// The last wait found the stream readable, or hung up.
    ready: bool,
}

impl<S: Read> Conn<S> {
    /// Pushes onto `events`, in order, the frames already buffered and —
    /// if the last wait found the stream ready — those completed by up to
    /// `READ_BUDGET` more bytes, until the stream is drained. `false`
    /// once the connection is over: end of stream, an error, a frame that
    /// is no frame, or one that breaks the sender binding (a frame before
    /// the hello or naming another replica, or a second hello).
    fn pump(&mut self, events: &mut Vec<Event>) -> bool {
        let mut read = mem::take(&mut self.ready);
        let mut budget = READ_BUDGET;
        loop {
            loop {
                match self.frames.next_frame() {
                    Ok(None) => break,
                    Ok(Some(Frame::Hello { from })) if self.peer.is_none() => {
                        self.peer = Some(from);
                    }
                    Ok(Some(Frame::Msg { from, msg })) if self.peer == Some(from) => {
                        events.push((from, msg));
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
                    // A read short of the free space drained the stream:
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

/// The inbound connections, in the order they arrived.
pub(crate) struct Conns<S>(Vec<Conn<S>>);

impl<S> Default for Conns<S> {
    fn default() -> Self {
        Conns(Vec::new())
    }
}

impl<S: Read> Conns<S> {
    /// Takes in a new connection; the next step reads it.
    pub(crate) fn push(&mut self, stream: S) {
        self.0.push(Conn {
            stream,
            frames: FrameBuf::default(),
            peer: None,
            ready: true,
        });
    }

    /// The streams the wait watches: every connection.
    pub(crate) fn watched(&self) -> impl Iterator<Item = &S> {
        self.0.iter().map(|conn| &conn.stream)
    }

    /// Marks which of the [`watched`](Self::watched) streams, in its
    /// order, the wait found readable (or hung up).
    pub(crate) fn mark_ready(&mut self, ready: impl Iterator<Item = bool>) {
        for (conn, ready) in self.0.iter_mut().zip(ready) {
            conn.ready = ready;
        }
    }

    /// Pushes every connection's frames onto `events` (`Conn::pump`),
    /// dropping the connections that are over.
    pub(crate) fn read(&mut self, events: &mut Vec<Event>) {
        self.0.retain_mut(|conn| conn.pump(events));
    }
}

/// A redial comes 100 µs after the first failure (peers started together
/// begin listening within about a millisecond of each other), and each
/// failure in a row doubles the pause, up to 20 ms for a peer that is down.
const FIRST_REDIAL: Duration = Duration(100_000);
const REDIAL: Duration = Duration(20_000_000);

/// One peer's outbound connection and the frames not yet written to it.
struct Peer<S> {
    /// `None` until a dial succeeds, and from a write error on.
    stream: Option<S>,
    /// Encoded frames in `transmit` order, each new stream's hello at its
    /// head. A broadcast's frame is one allocation every peer's backlog
    /// shares.
    backlog: VecDeque<Arc<Vec<u8>>>,
    /// Bytes of the head frame already written.
    written: usize,
    /// While there is no stream: when to dial, and the pause a failure
    /// then adds.
    redial: Time,
    pause: Duration,
}

impl<S: Write> Peer<S> {
    /// Queues `frame` unless the backlog is full and its socket takes
    /// nothing more; `true` if it was taken. A step that answers more
    /// than `BACKLOG` frames to one peer (a burst read while the loop was
    /// descheduled) writes early, so it refuses only what the socket
    /// would not take either — not what merely waited for the step's end.
    /// A write error is left to [`Peers::write`], which meets it again.
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

    /// Writes the backlog until it is empty or the socket would block. A
    /// stream that takes bytes is connected: the backoff starts over.
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
            self.pause = FIRST_REDIAL;
            // Retire what the socket took; a frame it took only part of
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

    /// The stream failed at `now`, or never came: the frame it cut goes
    /// with it, and the next dial waits out the pause, which doubles.
    fn failed(&mut self, now: Time) {
        self.stream = None;
        if self.written > 0 {
            self.backlog.pop_front();
            self.written = 0;
        }
        self.redial = now + self.pause;
        self.pause = Duration(self.pause.0 * 2).min(REDIAL);
    }
}

/// The sending side: one bounded backlog per peer. `transmit` encodes
/// each outbound message once into the backlog of every peer it
/// addresses; `write` ends the step, dialing the peers due and writing
/// every backlog its socket will take.
pub(crate) struct Peers<S> {
    me: ReplicaId,
    /// Per peer; `None` at this replica's own index.
    peers: Vec<Option<Peer<S>>>,
    /// This replica's hello, the first frame of every stream it dials.
    hello: Arc<Vec<u8>>,
    /// Frames a backlog accepted. Hellos are not counted.
    pub(crate) frames_sent: u64,
    /// Frames a full backlog refused: dropped, not sent.
    pub(crate) frames_refused: u64,
}

impl<S: Write> Peers<S> {
    /// The backlogs of replica `me` of `n`, every peer due for a dial.
    pub(crate) fn new(me: ReplicaId, n: usize) -> Self {
        let peers = (0..n)
            .map(|i| {
                (i != me.as_usize()).then(|| Peer {
                    stream: None,
                    backlog: VecDeque::new(),
                    written: 0,
                    redial: Time::ZERO,
                    pause: FIRST_REDIAL,
                })
            })
            .collect();
        let mut hello = Vec::new();
        write_hello(&mut hello, me).expect("a hello fits in memory");
        Peers {
            me,
            peers,
            hello: Arc::new(hello),
            frames_sent: 0,
            frames_refused: 0,
        }
    }

    pub(crate) fn transmit(&mut self, out: Outbound) {
        let mut stage = |peer: &mut Peer<S>, frame: &Arc<Vec<u8>>| {
            let taken = peer.stage(frame);
            self.frames_sent += u64::from(taken);
            self.frames_refused += u64::from(!taken);
        };
        // Only a body past `u32::MAX` bytes fails to encode; no peer could
        // take it.
        let frame = |msg: &Message| encode_frame(self.me, msg).ok().map(Arc::new);
        match &out {
            Outbound::Broadcast(msg) => {
                let Some(frame) = frame(msg) else { return };
                for peer in self.peers.iter_mut().flatten() {
                    stage(peer, &frame);
                }
            }
            Outbound::Send(to, msg) => {
                if let Some(Some(peer)) = self.peers.get_mut(to.as_usize()) {
                    if let Some(frame) = frame(msg) {
                        stage(peer, &frame);
                    }
                }
            }
        }
    }

    /// Ends the step at `now`. Each peer without a stream whose redial is
    /// due gets `dial(i)`, with the hello at its backlog's head; then
    /// every backlog is written until it is empty or its socket would
    /// block. A dial or write error drops the stream, and with it the
    /// frame it cut; the rest of the backlog waits for the redial.
    pub(crate) fn write(&mut self, now: Time, mut dial: impl FnMut(usize) -> io::Result<S>) {
        for (i, peer) in self.peers.iter_mut().enumerate() {
            let Some(peer) = peer else { continue };
            if peer.stream.is_none() && peer.redial <= now {
                match dial(i) {
                    Ok(stream) => {
                        peer.stream = Some(stream);
                        // A stream that failed before taking a byte left its hello.
                        let head = peer.backlog.front();
                        if !head.is_some_and(|head| Arc::ptr_eq(head, &self.hello)) {
                            peer.backlog.push_front(self.hello.clone());
                        }
                    }
                    Err(_) => peer.failed(now),
                }
            }
            if peer.write().is_err() {
                peer.failed(now);
            }
        }
    }

    /// The earliest redial: when to `write` even if nothing else happens.
    pub(crate) fn next_dial(&self) -> Option<Time> {
        let peers = self.peers.iter().flatten();
        let down = peers.filter(|peer| peer.stream.is_none());
        down.map(|peer| peer.redial).min()
    }

    /// The connected streams whose backlog still holds frames: the wait
    /// watches them for room, and a connecting one for the end of its
    /// handshake.
    pub(crate) fn backlogged(&self) -> impl Iterator<Item = &S> {
        let peers = self.peers.iter().flatten();
        peers
            .filter(|peer| !peer.backlog.is_empty())
            .filter_map(|peer| peer.stream.as_ref())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::framing::read_frame;
    use crate::framing::tests::splitmix;
    use banyan_types::ids::Round;
    use banyan_types::message::SyncMsg;
    use std::cell::{Cell, RefCell};
    use std::iter;
    use std::rc::Rc;

    /// A socket whose every call a seed scripts. A read or write moves
    /// 1..=`most` bytes; the first `blocked` calls would block, and so do
    /// runs that start at one call in `stall`; from byte `reset_at` of its
    /// direction on, every call fails as on a reset connection. Reads
    /// serve `input` (as far as a `link` says it has arrived), then end
    /// the stream if `eof` and would block if not. Writes append to
    /// `wire`, taking bytes across every slice they are handed as the
    /// kernel does (std's default `write_vectored` writes only the first).
    pub(crate) struct Script {
        next: Box<dyn FnMut() -> u64>,
        pub(crate) most: usize,
        pub(crate) stall: u64,
        pub(crate) blocked: u64,
        pub(crate) reset_at: Option<usize>,
        pub(crate) input: Rc<RefCell<Vec<u8>>>,
        pub(crate) eof: bool,
        /// Bytes of `input` read so far.
        read: usize,
        pub(crate) wire: Rc<RefCell<Vec<u8>>>,
        /// Set on both ends of a [`pair`](Self::pair).
        link: Option<Rc<Link>>,
    }

    /// What joins the two ends of a [`Script::pair`]: a byte written
    /// reaches the read end `delay` after the write, on a clock the test
    /// moves.
    pub(crate) struct Link {
        clock: Rc<Cell<Time>>,
        delay: Duration,
        /// `(end, at)` in write order: the wire up to `end` arrives at
        /// `at`.
        arrivals: RefCell<VecDeque<(usize, Time)>>,
        /// Bytes of the wire that have arrived.
        arrived: Cell<usize>,
        /// Told when the first write of each instant arrives.
        wake: Box<dyn Fn(Time)>,
    }

    impl Link {
        pub(crate) fn new(clock: Rc<Cell<Time>>, delay: Duration, wake: Box<dyn Fn(Time)>) -> Self {
            let (arrivals, arrived) = (RefCell::default(), Cell::default());
            Link {
                clock,
                delay,
                arrivals,
                arrived,
                wake,
            }
        }

        /// The write end's wire now ends at `end`.
        fn sent(&self, end: usize) {
            let at = self.clock.get() + self.delay;
            let mut arrivals = self.arrivals.borrow_mut();
            if arrivals.back().is_some_and(|&(_, last)| last == at) {
                arrivals.pop_back();
            } else {
                (self.wake)(at);
            }
            arrivals.push_back((end, at));
        }

        /// How much of the write end's wire has arrived by now.
        fn arrived(&self) -> usize {
            let mut arrivals = self.arrivals.borrow_mut();
            while let Some(&(end, at)) = arrivals.front() {
                if at > self.clock.get() {
                    break;
                }
                self.arrived.set(end);
                arrivals.pop_front();
            }
            self.arrived.get()
        }
    }

    impl Script {
        /// Up to 64 KiB a call, never blocking, never failing.
        pub(crate) fn new(seed: u64) -> Self {
            Script {
                next: Box::new(splitmix(seed)),
                most: 64 << 10,
                stall: 0,
                blocked: 0,
                reset_at: None,
                input: Rc::default(),
                eof: false,
                read: 0,
                wire: Rc::default(),
                link: None,
            }
        }

        /// A connected pair: the read end reads what the write end wrote,
        /// as `link` lets it arrive. The write end takes up to 64 KiB a
        /// call and would block in runs that start at one call in 50, as
        /// a socket buffer that is full now and then; the read end takes
        /// all that has arrived, as a socket the wait found readable does.
        pub(crate) fn pair(next: &mut impl FnMut() -> u64, link: Link) -> (Script, Script) {
            let link = Some(Rc::new(link));
            let tx = Script::new(next()).with(|s| (s.stall, s.link) = (50, link.clone()));
            let rx = Script::new(next()).with(|s| (s.most, s.link) = (usize::MAX, link));
            let rx = rx.with(|s| s.input = tx.wire.clone());
            (tx, rx)
        }

        /// This script, with `set` applied.
        pub(crate) fn with(mut self, set: impl FnOnce(&mut Self)) -> Self {
            set(&mut self);
            self
        }

        /// Calls of a few bytes or of many, and `WouldBlock` runs that
        /// are frequent, rare or absent.
        fn random(next: &mut impl FnMut() -> u64) -> Self {
            let mut script = Script::new(next());
            if next().is_multiple_of(2) {
                script.most = 1 + (next() % 16) as usize;
            }
            script.stall = [0, 2, 5, 50][(next() % 4) as usize];
            script
        }

        /// The most bytes this call moves, starting at byte `at` of its
        /// direction: or the reset, or `WouldBlock`.
        fn call(&mut self, at: usize) -> io::Result<usize> {
            if self.reset_at.is_some_and(|reset| at >= reset) {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            if self.blocked == 0 && self.stall > 0 && (self.next)().is_multiple_of(self.stall) {
                self.blocked = 1 + (self.next)() % 8;
            }
            if self.blocked > 0 {
                self.blocked -= 1;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let most = self
                .most
                .min(self.reset_at.map_or(usize::MAX, |reset| reset - at));
            Ok(1 + (self.next)() as usize % most)
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let most = self.call(self.read)?;
            let input = self.input.borrow();
            let end = self
                .link
                .as_ref()
                .map_or(input.len(), |link| link.arrived());
            let left = &input[self.read..end];
            if left.is_empty() && !self.eof {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = most.min(left.len()).min(buf.len());
            buf[..n].copy_from_slice(&left[..n]);
            self.read += n;
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let at = self.wire.borrow().len();
            let most = self.call(at)?;
            let mut wire = self.wire.borrow_mut();
            for buf in bufs {
                let take = buf.len().min(at + most - wire.len());
                wire.extend_from_slice(&buf[..take]);
            }
            if let Some(link) = &self.link {
                link.sent(wire.len());
            }
            Ok(wire.len() - at)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The `k`th of a run of distinct messages.
    pub(crate) fn info(k: u64) -> Message {
        Message::Sync(SyncMsg::FrontierInfo {
            finalized: Round(k),
        })
    }

    /// The frames replica 0 sends for `msgs`, back to back.
    pub(crate) fn framed(msgs: impl Iterator<Item = Message>) -> Vec<u8> {
        msgs.flat_map(|msg| encode_frame(ReplicaId(0), &msg).unwrap())
            .collect()
    }

    /// One step of the loop over `conns` with every stream ready: the
    /// frames delivered, in order.
    pub(crate) fn step(conns: &mut Conns<Script>) -> Vec<Event> {
        let mut events = Vec::new();
        conns.mark_ready(iter::repeat(true));
        conns.read(&mut events);
        events
    }

    /// A new connection to peer 1; one in four resets at a random offset
    /// (no more once four have), the hello's included.
    fn dial(next: &mut impl FnMut() -> u64, wires: &mut Vec<Rc<RefCell<Vec<u8>>>>) -> Script {
        let mut script = Script::random(next);
        if next().is_multiple_of(4) && wires.len() < 4 {
            script.reset_at = Some((next() % 4096) as usize);
        }
        wires.push(script.wire.clone());
        script
    }

    /// For any script — short reads and writes, runs of `WouldBlock`, a
    /// reset at any byte offset — the receiver gets the frames staged, in
    /// order, less those counted refused and the frame each reset cut,
    /// whose first bytes end the reset stream (a cut hello loses none);
    /// each new stream carries a hello and whole frames. One case in 50
    /// stages a burst past `BACKLOG` into a socket that blocks at first,
    /// so some are refused.
    #[test]
    fn any_script_delivers_the_staged_frames_less_refusals_and_cut_frames() {
        let mut next = splitmix(0xD1B5_4A32_D192_ED03);
        for case in 0..1_000 {
            let burst = case % 50 == 0;
            let mut wires = Vec::new();
            let mut first = dial(&mut next, &mut wires);
            if burst {
                first.blocked = 1 + next() % 300;
            }
            let mut peers = Peers::new(ReplicaId(0), 2);
            peers.write(Time::ZERO, once(first));
            // Every write comes a longest pause after the last: any
            // redial is due.
            let mut now = Time::ZERO;
            let n = [next() % 200, BACKLOG as u64 + 400][usize::from(burst)];
            let (mut k, mut refused) = (0, vec![false; n as usize]);
            loop {
                if k < n {
                    let before = peers.frames_refused;
                    peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
                    refused[k as usize] = peers.frames_refused > before;
                    k += 1;
                    if burst || !next().is_multiple_of(4) {
                        continue;
                    }
                } else if peers.backlogged().next().is_none() && peers.next_dial().is_none() {
                    break;
                }
                now += REDIAL;
                peers.write(now, |_| Ok(dial(&mut next, &mut wires)));
            }
            assert_eq!(peers.frames_sent + peers.frames_refused, n, "case {case}");
            assert_eq!(burst, refused.contains(&true), "case {case}: refusals");

            let (mut got, mut tails) = (Vec::new(), Vec::new());
            for (c, wire) in wires.iter().enumerate() {
                let input = wire.borrow().clone();
                // The bytes past the stream's last whole frame: only a
                // stream that was reset may end inside a frame.
                let (mut rest, mut r) = (input.as_slice(), input.as_slice());
                while read_frame(&mut r).is_ok() {
                    rest = r;
                }
                assert!(
                    rest.is_empty() || c + 1 < wires.len(),
                    "case {case}: last stream cut"
                );
                let hello_cut = rest.len() == input.len();
                tails.extend((!rest.is_empty() && !hello_cut).then(|| rest.to_vec()));
                let mut conns = Conns::default();
                let input = Rc::new(RefCell::new(input));
                conns.push(Script::random(&mut next).with(|s| (s.input, s.eof) = (input, true)));
                while !conns.0.is_empty() {
                    for (from, msg) in step(&mut conns) {
                        let Message::Sync(SyncMsg::FrontierInfo { finalized }) = msg else {
                            panic!("case {case}: not a staged frame")
                        };
                        assert_eq!(from, ReplicaId(0));
                        got.push(finalized.0);
                    }
                }
            }
            assert!(got.is_sorted_by(|a, b| a < b), "case {case}: order");
            assert!(got.iter().all(|&k| !refused[k as usize]), "case {case}");
            let mut lost =
                (0..n).filter(|&k| !refused[k as usize] && got.binary_search(&k).is_err());
            for tail in &tails {
                let k = lost.next().expect("a cut stream lost no frame");
                let cut = framed(iter::once(info(k))).starts_with(tail);
                assert!(cut, "case {case}: frame {k} is not the one cut");
            }
            assert_eq!(lost.next(), None, "case {case}: a frame lost with no reset");
        }
    }

    /// A step that stages the answers to a burst of 10 000 probes for one
    /// peer, whose socket has room but takes each write in small pieces,
    /// refuses none: a full backlog writes before it refuses, so it loses
    /// only what the socket would not take either. (A backlog that refused
    /// all past `BACKLOG` before the step's one write flaked the
    /// flooding-peer test on a loaded machine.)
    #[test]
    fn a_burst_past_the_backlog_into_a_socket_with_room_refuses_nothing() {
        let socket = Script::new(0x5EED).with(|s| s.most = 512);
        let wire = socket.wire.clone();
        let mut peers = Peers::new(ReplicaId(0), 2);
        peers.write(Time::ZERO, once(socket));
        for k in 0..10_000 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
        }
        assert_eq!((peers.frames_sent, peers.frames_refused), (10_000, 0));
        peers.write(Time::ZERO, |_| panic!("no redial"));
        assert!(*wire.borrow() == [hello(), framed((0..10_000).map(info))].concat());
    }

    /// A dial that connects `script`, once.
    pub(crate) fn once(script: Script) -> impl FnMut(usize) -> io::Result<Script> {
        let mut script = Some(script);
        move |_| Ok(script.take().expect("dialed once"))
    }

    /// Replica 0's hello.
    pub(crate) fn hello() -> Vec<u8> {
        let mut wire = Vec::new();
        write_hello(&mut wire, ReplicaId(0)).unwrap();
        wire
    }

    /// A stream whose every write fails, its first one included.
    fn resetting() -> io::Result<Script> {
        Ok(Script::new(9).with(|s| s.reset_at = Some(0)))
    }

    /// The pauses, in µs, between the attempts to reach a peer whose every
    /// new stream resets at its first write, each write made when the
    /// last one said to redial: 100 µs after the failure, then doubling
    /// up to 20 ms.
    #[test]
    fn redials_back_off_from_100_us_doubling_to_20_ms() {
        let mut peers = Peers::new(ReplicaId(0), 2);
        let (mut now, mut attempts) = (Time::ZERO, Vec::new());
        for _ in 0..12 {
            peers.write(now, |_| {
                attempts.push(now);
                resetting()
            });
            now = peers.next_dial().expect("a redial is due");
        }
        let gaps: Vec<u64> = attempts
            .windows(2)
            .map(|w| (w[1] - w[0]).0 / 1_000)
            .collect();
        let want = [100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 20_000];
        assert_eq!(gaps, [&want[..], &[20_000; 2]].concat());
    }

    /// A stream that takes bytes is connected: after five failed
    /// attempts, a stream that takes the hello and part of a frame and
    /// then resets is redialed 100 µs after that reset, not 3.2 ms.
    #[test]
    fn a_successful_connect_resets_the_backoff() {
        let mut peers = Peers::new(ReplicaId(0), 2);
        let mut now = Time::ZERO;
        for _ in 0..5 {
            peers.write(now, |_| resetting());
            now = peers.next_dial().expect("a redial is due");
        }
        let taking = Script::new(10).with(|s| s.reset_at = Some(hello().len() + 3));
        peers.write(now, once(taking));
        assert_eq!(peers.next_dial(), None, "the hello was not taken");
        now += Duration::from_millis(1);
        peers.transmit(Outbound::Send(ReplicaId(1), info(0)));
        peers.write(now, |_| panic!("no redial before the reset"));
        assert_eq!(peers.next_dial(), Some(now + FIRST_REDIAL));
    }

    /// A peer that refuses every connection — in turn at the connect
    /// itself and, as a non-blocking connect reports it, at the new
    /// stream's first write — with the loop stepping every millisecond for
    /// 2 s: once the backoff is at its longest, one attempt every 20 ms,
    /// and none between.
    #[test]
    fn a_peer_that_never_answers_costs_one_attempt_per_20_ms() {
        let mut peers = Peers::<Script>::new(ReplicaId(0), 2);
        let mut attempts = Vec::new();
        for ms in 0..2_000 {
            let now = Time::ZERO + Duration::from_millis(ms);
            peers.write(now, |_| {
                attempts.push(now);
                match attempts.len() % 2 {
                    0 => Err(io::ErrorKind::ConnectionRefused.into()),
                    _ => resetting(),
                }
            });
        }
        let late = attempts.iter().filter(|at| at.0 >= 1_000_000_000);
        assert_eq!(late.count(), 50, "attempts in the second second");
        // The first nine attempts back off from 100 µs, each at the first
        // millisecond step past its deadline.
        let gaps = attempts.windows(2).skip(8).map(|w| w[1] - w[0]);
        assert!(
            gaps.clone().all(|gap| gap == REDIAL),
            "{:?}",
            gaps.collect::<Vec<_>>()
        );
    }

    /// Every stream a peer's backlog is dialed on starts with one hello,
    /// the first and each redial, and a hello is no frame sent. Of 12
    /// streams, every third resets at its first write, so its hello stays
    /// at the backlog's head for the next; each other one takes its hello
    /// and two bytes of a frame, then resets. The 12 frames staged count
    /// 12 sent.
    #[test]
    fn the_hello_heads_every_new_stream_and_is_not_counted_sent() {
        let mut peers = Peers::new(ReplicaId(0), 2);
        let (mut now, mut wires) = (Time::ZERO, Vec::new());
        for k in 0..12 {
            peers.transmit(Outbound::Send(ReplicaId(1), info(k)));
            let at = if k % 3 == 0 { 0 } else { hello().len() + 2 };
            let cut = Script::new(11 + k).with(|s| s.reset_at = Some(at));
            wires.push((at, cut.wire.clone()));
            peers.write(now, once(cut));
            now += REDIAL;
        }
        assert_eq!((peers.frames_sent, peers.frames_refused), (12, 0));
        // Every frame is as long as the first, so the two bytes after a
        // hello are the head of whichever frame came next.
        let next = &framed(iter::once(info(0)))[..2];
        for (at, wire) in wires {
            let want = [hello(), next.to_vec()].concat();
            assert!(*wire.borrow() == want[..at], "not one hello and a frame");
        }
    }
}
