//! Offline stand-in for the crates.io `crossbeam` crate.
//!
//! Only [`channel`] is provided. Unlike the earlier stand-in (which
//! wrapped `std::sync::mpsc::SyncSender` and was therefore single-
//! consumer), this is a real **MPMC** channel: both [`channel::Sender`]
//! and [`channel::Receiver`] are cloneable, any number of threads may
//! send and receive concurrently, and `try_send`/`try_recv` take a
//! lock-free fast path for the full/empty cases (an atomic length check
//! fails fast without touching the queue mutex — the property the
//! mempool ingest hot path relies on under contention).

pub mod channel {
    //! Bounded MPMC channels.
    //!
    //! Semantics match the `crossbeam-channel` subset the workspace uses:
    //! bounded capacity, cloneable senders **and receivers**, blocking
    //! `recv`/`recv_timeout`, non-blocking `try_send`/`try_recv`, and
    //! `try_iter` for drain-style consumption. Disconnection is
    //! bidirectional: a channel closes when every `Sender` is dropped
    //! (receivers then drain the remainder and see `Disconnected`) or
    //! when every `Receiver` is dropped (senders see `Disconnected`
    //! immediately).

    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    /// Shared channel state. The queue lives under one mutex; `len` is
    /// mirrored in an atomic so full/empty checks on the hot paths can
    /// fail fast without taking the lock.
    struct Core<T> {
        state: Mutex<State<T>>,
        /// Mirror of `state.queue.len()`, written under the lock but
        /// readable without it (the lock-free fast path).
        len: AtomicUsize,
        cap: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Signalled when a value arrives or all senders disconnect.
        not_empty: Condvar,
        /// Signalled when a value leaves or all receivers disconnect.
        not_full: Condvar,
    }

    /// What the lock guards: the queue, and how many threads are parked
    /// on each condvar. `Condvar::notify_one` is a futex syscall whether
    /// or not anyone waits, so a push or pop notifies only when a count
    /// says someone does. No wake-up is lost: a thread raises its count
    /// under the lock, after finding the queue unable to serve it, and
    /// holds the lock until `wait` releases it, so a push or pop that
    /// could serve it either came first (and its check saw that) or sees
    /// the raised count.
    struct State<T> {
        queue: VecDeque<T>,
        /// Receivers parked on `not_empty`.
        parked_receivers: usize,
        /// Senders parked on `not_full`.
        parked_senders: usize,
    }

    impl<T> Core<T> {
        fn sender_connected(&self) -> bool {
            self.senders.load(Ordering::Acquire) > 0
        }

        fn receiver_connected(&self) -> bool {
            self.receivers.load(Ordering::Acquire) > 0
        }

        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().expect("channel lock")
        }

        /// Appends under the lock, waking one parked receiver if any.
        fn push(&self, state: &mut State<T>, value: T) {
            state.queue.push_back(value);
            self.len.store(state.queue.len(), Ordering::Release);
            if state.parked_receivers > 0 {
                self.not_empty.notify_one();
            }
        }

        /// Pops under the lock, waking one parked sender if any.
        fn pop(&self, state: &mut State<T>) -> Option<T> {
            let value = state.queue.pop_front()?;
            self.len.store(state.queue.len(), Ordering::Release);
            if state.parked_senders > 0 {
                self.not_full.notify_one();
            }
            Some(value)
        }
    }

    /// Cloneable producer half.
    pub struct Sender<T>(Arc<Core<T>>);

    /// Cloneable consumer half (true MPMC: clones share one queue, each
    /// value is received exactly once).
    pub struct Receiver<T>(Arc<Core<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: take the lock so the count change is
                // ordered against any receiver mid-wait, then wake them
                // all to observe the disconnect.
                let _guard = self.0.lock();
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.0.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = self.0.lock();
                self.0.not_full.notify_all();
            }
        }
    }

    /// Creates a bounded channel of capacity `cap` (clamped to ≥ 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let cap = cap.max(1);
        let core = Arc::new(Core {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap.min(4096)),
                parked_receivers: 0,
                parked_senders: 0,
            }),
            len: AtomicUsize::new(0),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(core.clone()), Receiver(core))
    }

    impl<T> Sender<T> {
        /// Blocks until there is queue room (or every receiver is gone).
        ///
        /// # Errors
        ///
        /// Returns the value back if all receivers disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let core = &*self.0;
            let mut state = core.lock();
            loop {
                if !core.receiver_connected() {
                    return Err(SendError(value));
                }
                if state.queue.len() < core.cap {
                    core.push(&mut state, value);
                    return Ok(());
                }
                state.parked_senders += 1;
                state = core.not_full.wait(state).expect("channel lock");
                state.parked_senders -= 1;
            }
        }

        /// Fails immediately if the queue is full or disconnected. The
        /// full check reads the atomic length mirror first, so a send
        /// against a full queue returns without ever taking the lock —
        /// the contended-ingest fast path. (The mirror can be momentarily
        /// stale; a stale read only yields a spurious `Full` for a queue
        /// that *was* full an instant ago, which a try-operation permits.)
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when at capacity,
        /// [`TrySendError::Disconnected`] when all receivers are gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let core = &*self.0;
            if core.len.load(Ordering::Acquire) >= core.cap {
                return if core.receiver_connected() {
                    Err(TrySendError::Full(value))
                } else {
                    Err(TrySendError::Disconnected(value))
                };
            }
            let mut state = core.lock();
            if !core.receiver_connected() {
                return Err(TrySendError::Disconnected(value));
            }
            if state.queue.len() >= core.cap {
                return Err(TrySendError::Full(value));
            }
            core.push(&mut state, value);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders are gone.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the queue is empty and every sender
        /// disconnected.
        pub fn recv(&self) -> Result<T, RecvError> {
            let core = &*self.0;
            let mut state = core.lock();
            loop {
                if let Some(value) = core.pop(&mut state) {
                    return Ok(value);
                }
                if !core.sender_connected() {
                    return Err(RecvError);
                }
                state.parked_receivers += 1;
                state = core.not_empty.wait(state).expect("channel lock");
                state.parked_receivers -= 1;
            }
        }

        /// Blocks for at most `timeout`.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
        /// [`RecvTimeoutError::Disconnected`] when drained and all
        /// senders are gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let core = &*self.0;
            let deadline = Instant::now() + timeout;
            let mut state = core.lock();
            loop {
                if let Some(value) = core.pop(&mut state) {
                    return Ok(value);
                }
                if !core.sender_connected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.parked_receivers += 1;
                let (guard, _timed_out) = core
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .expect("channel lock");
                state = guard;
                state.parked_receivers -= 1;
            }
        }

        /// Non-blocking receive. The empty check reads the atomic length
        /// mirror first, so polling an empty channel never contends on
        /// the lock.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued,
        /// [`TryRecvError::Disconnected`] when drained and all senders
        /// are gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let core = &*self.0;
            if core.len.load(Ordering::Acquire) == 0 {
                if core.sender_connected() {
                    return Err(TryRecvError::Empty);
                }
                // Senders are gone, but a value may have landed before
                // the last disconnect: confirm under the lock.
                return core.pop(&mut core.lock()).ok_or(TryRecvError::Disconnected);
            }
            match core.pop(&mut core.lock()) {
                Some(value) => Ok(value),
                None if core.sender_connected() => Err(TryRecvError::Empty),
                None => Err(TryRecvError::Disconnected),
            }
        }

        /// A non-blocking draining iterator: yields queued values until
        /// the channel is momentarily empty, then stops (it never blocks
        /// waiting for new sends). This is the drain-at-observation-point
        /// primitive the mempool ingest path uses.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        /// Number of values currently queued (a snapshot; other
        /// receivers may take them first).
        pub fn len(&self) -> usize {
            self.0.len.load(Ordering::Acquire)
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::collections::HashSet;
        use std::thread;

        #[test]
        fn bounded_roundtrip_and_backpressure() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 2);
            assert!(rx.recv_timeout(Duration::from_millis(1)).is_err());
        }

        #[test]
        fn senders_clone_across_threads() {
            let (tx, rx) = bounded::<u32>(16);
            let tx2 = tx.clone();
            let h = thread::spawn(move || tx2.send(7).unwrap());
            tx.send(8).unwrap();
            h.join().unwrap();
            let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![7, 8]);
        }

        #[test]
        fn receivers_clone_and_share_one_queue() {
            let (tx, rx) = bounded::<u32>(64);
            let rx2 = rx.clone();
            for v in 0..10 {
                tx.send(v).unwrap();
            }
            drop(tx);
            let a: Vec<u32> = (0..5).map(|_| rx.recv().unwrap()).collect();
            let b: Vec<u32> = (0..5).map(|_| rx2.recv().unwrap()).collect();
            let all: HashSet<u32> = a.iter().chain(b.iter()).copied().collect();
            assert_eq!(all.len(), 10, "exactly-once across both receivers");
            assert!(matches!(rx.recv(), Err(RecvError)));
        }

        #[test]
        fn contended_mpmc_delivers_each_value_exactly_once() {
            const PRODUCERS: usize = 4;
            const CONSUMERS: usize = 3;
            const PER_PRODUCER: usize = 2_000;
            let (tx, rx) = bounded::<u64>(8); // tiny cap: force contention
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            // Mix blocking and spinning sends.
                            let v = (p * PER_PRODUCER + i) as u64;
                            if i % 2 == 0 {
                                tx.send(v).unwrap();
                            } else {
                                let mut v = v;
                                loop {
                                    match tx.try_send(v) {
                                        Ok(()) => break,
                                        Err(TrySendError::Full(back)) => {
                                            v = back;
                                            thread::yield_now();
                                        }
                                        Err(TrySendError::Disconnected(_)) => {
                                            panic!("receivers vanished")
                                        }
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            drop(tx); // consumers stop once producers finish and drain
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for p in producers {
                p.join().unwrap();
            }
            let mut all = Vec::new();
            for c in consumers {
                all.extend(c.join().unwrap());
            }
            assert_eq!(all.len(), PRODUCERS * PER_PRODUCER, "no loss");
            let unique: HashSet<u64> = all.iter().copied().collect();
            assert_eq!(unique.len(), all.len(), "no duplication");
        }

        #[test]
        fn try_iter_drains_without_blocking() {
            let (tx, rx) = bounded::<u32>(16);
            for v in 0..5 {
                tx.send(v).unwrap();
            }
            let drained: Vec<u32> = rx.try_iter().collect();
            assert_eq!(drained, vec![0, 1, 2, 3, 4]);
            // Channel still open: try_iter just stops on empty.
            assert_eq!(rx.try_iter().count(), 0);
            tx.send(9).unwrap();
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![9]);
        }

        #[test]
        fn send_to_dropped_receivers_disconnects() {
            let (tx, rx) = bounded::<u32>(4);
            drop(rx);
            assert!(matches!(tx.send(1), Err(SendError(1))));
            assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
        }

        #[test]
        fn receivers_drain_after_all_senders_drop() {
            let (tx, rx) = bounded::<u32>(4);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
        }

        /// Wakes are sent only to parked threads, so a skipped notify
        /// strands a parked thread for good. Through a one-slot queue,
        /// senders parked in `send` on a full queue and receivers parked in
        /// `recv` and `recv_timeout` hand over 20 000 values, with one and
        /// then two threads per side (alone, a stranded thread has nobody
        /// to rescue it). Every hand-off must land within `DEADLINE`,
        /// watched from this thread, so a lost wake-up fails the test
        /// instead of hanging it.
        #[test]
        fn parked_senders_and_receivers_always_wake() {
            for threads in [1, 2] {
                hand_off_through_one_slot(threads);
            }
        }

        fn hand_off_through_one_slot(threads: u64) {
            use std::sync::atomic::AtomicU64;
            const TOTAL: u64 = 20_000;
            const DEADLINE: Duration = Duration::from_secs(5);
            let per_sender = TOTAL / threads;
            let (tx, rx) = bounded::<u64>(1);
            let received = Arc::new(AtomicU64::new(0));
            let senders: Vec<_> = (0..threads)
                .map(|s| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..per_sender {
                            tx.send(s * per_sender + i).expect("receivers alive");
                        }
                    })
                })
                .collect();
            drop(tx);
            let receivers: Vec<_> = (0..threads)
                .map(|r| {
                    let timed = r == 1;
                    let (rx, received) = (rx.clone(), received.clone());
                    thread::spawn(move || {
                        let mut sum = 0u64;
                        loop {
                            let value = if timed {
                                match rx.recv_timeout(DEADLINE) {
                                    Ok(v) => v,
                                    Err(RecvTimeoutError::Disconnected) => return sum,
                                    Err(RecvTimeoutError::Timeout) => {
                                        panic!("recv_timeout parked past its deadline")
                                    }
                                }
                            } else {
                                match rx.recv() {
                                    Ok(v) => v,
                                    Err(RecvError) => return sum,
                                }
                            };
                            sum += value;
                            received.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            drop(rx);
            let (mut last, mut since) = (0, Instant::now());
            while receivers.iter().any(|r| !r.is_finished()) {
                let now = received.load(Ordering::Relaxed);
                if now != last {
                    (last, since) = (now, Instant::now());
                }
                assert!(
                    since.elapsed() < DEADLINE,
                    "{threads} per side: lost wake-up, no hand-off for {DEADLINE:?} after {last} of {TOTAL}"
                );
                thread::sleep(Duration::from_millis(1));
            }
            for s in senders {
                s.join().expect("sender");
            }
            let sum: u64 = receivers
                .into_iter()
                .map(|r| r.join().expect("receiver"))
                .sum();
            assert_eq!(received.load(Ordering::Relaxed), TOTAL, "no loss");
            assert_eq!(sum, TOTAL * (TOTAL - 1) / 2, "each value exactly once");
        }

        #[test]
        fn blocked_receiver_wakes_on_last_sender_drop() {
            let (tx, rx) = bounded::<u32>(4);
            let h = thread::spawn(move || rx.recv());
            thread::sleep(Duration::from_millis(20));
            drop(tx);
            assert!(h.join().unwrap().is_err());
        }
    }
}
