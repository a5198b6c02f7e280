//! Client workloads: the seeded client population that feeds the
//! request-dissemination layer.
//!
//! The mempool itself — FIFO pools, batch encoding, gossip outboxes and
//! the exactly-once dedup rule — lives in [`banyan_mempool`] (re-exported
//! here for convenience); the clients are one population,
//! [`ClosedLoopWorkload`] (implemented in [`crate::cohort`], re-exported
//! here), which covers both classic load shapes:
//!
//! * **closed loop** — `clients × window` outstanding requests, each
//!   freed slot resubmitting after an optional think time: the
//!   *population* is fixed and the rate self-regulates to what the
//!   cluster commits, which is what saturation (throughput-vs-latency)
//!   sweeps need;
//! * **open loop** — one member paced at one submission per interval
//!   `i` ([`ClosedLoopWorkload::with_member_interval`]) with a window the
//!   run cannot fill: it submits at `t, t + i, t + 2i, …` whatever
//!   commits, so the *offered rate* is fixed and latency blows up under
//!   overload (`Scenario::rate` in `banyan-bench` builds it).
//!
//! The population speaks the dissemination layer's client side:
//!
//! * **submit fan-out** ([`ClosedLoopWorkload::with_fanout`]) — each
//!   request is submitted to `k` replicas' pools (the sampled primary
//!   plus its successors), the classic submit-to-`f+1` defense against
//!   an unresponsive or censoring replica;
//! * **retry** ([`ClosedLoopWorkload::with_retry`]) — every submission
//!   arms a per-request retransmission deadline; if the request has not
//!   been observed committed by then, the client resubmits it — with its
//!   *original* submit timestamp, so end-to-end latency is measured from
//!   first submission — and re-arms. Requests drained into
//!   never-finalized proposals thus re-enter the system instead of being
//!   lost (or leaking window slots forever).
//!
//! Everything is a deterministic function of seeds and virtual time:
//! replays of a seeded run reproduce the same requests, batches, retries
//! and latencies bit-for-bit (asserted in
//! `crates/bench/tests/determinism.rs`). With retry and fan-out disabled
//! (the default), the submission stream — including every RNG draw — is
//! bit-identical to the historical single-replica, no-retry behavior.

pub use banyan_mempool::{
    Mempool, MempoolSource, PushOutcome, Request, SharedMempool, WorkloadBatch, DEFAULT_MAX_BATCH,
    DEFAULT_MAX_BATCH_BYTES, DEFAULT_MEMPOOL_CAPACITY,
};

pub use crate::cohort::ClosedLoopWorkload;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use banyan_types::app::App;
    use banyan_types::engine::CommitEntry;
    use banyan_types::ids::{BlockHash, ReplicaId, Round};
    use banyan_types::time::{Duration, Time};

    /// A commit of `requests` observed at virtual time `at` (ns).
    pub(crate) fn commit_of(requests: Vec<Request>, at: u64) -> CommitEntry {
        CommitEntry {
            round: Round(1),
            block: BlockHash::ZERO,
            proposer: ReplicaId(0),
            payload: WorkloadBatch { requests }.into_payload(),
            proposed_at: Time::ZERO,
            committed_at: Time(at),
            fast: false,
            explicit: true,
        }
    }

    pub(crate) fn think_ticks(w: &mut ClosedLoopWorkload) -> Vec<Time> {
        let mut out = Vec::new();
        w.take_pending_ticks_into(&mut out);
        out
    }

    fn retry_ticks(w: &mut ClosedLoopWorkload) -> Vec<Time> {
        let mut out = Vec::new();
        w.take_pending_retry_ticks_into(&mut out);
        out
    }

    #[test]
    fn closed_loop_primes_full_windows_and_caps_in_flight() {
        let mempools: Vec<SharedMempool> = (0..3).map(|_| Mempool::shared(1_000)).collect();
        let mut w = ClosedLoopWorkload::new(5, 4, Duration::ZERO, 100, 1, mempools.clone());
        assert_eq!(w.prime(Time::ZERO), 20);
        assert_eq!(w.in_flight(), 20);
        assert_eq!(w.max_in_flight(), 20);
        let pending: usize = mempools.iter().map(|m| m.lock().unwrap().len()).sum();
        assert_eq!(pending, 20, "every primed request lands in a mempool");
        assert_eq!(w.pending_in_pools(), 20);
        // No completions yet, so no ticks and nothing to resubmit.
        assert!(think_ticks(&mut w).is_empty());
        assert_eq!(w.handle_tick(Time(1)), 0);
        // Retry is off by default: no deadlines armed.
        assert!(retry_ticks(&mut w).is_empty());
    }

    #[test]
    fn closed_loop_completion_drives_resubmission() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(1_000)];
        let think = Duration::from_millis(5);
        let mut w = ClosedLoopWorkload::new(2, 1, think, 100, 1, mempools.clone());
        w.prime(Time::ZERO);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(drained.len(), 2);

        // Deliver a batch committing the first request only.
        let batch = vec![drained[0]];
        w.deliver(&commit_of(batch.clone(), 1_000));
        assert_eq!(w.completed(), 1);
        assert_eq!(w.in_flight(), 1);
        let ticks = think_ticks(&mut w);
        assert_eq!(ticks, vec![Time(1_000) + think], "one tick, think later");

        // Re-delivery of the same batch (another replica committing the
        // same block) completes nothing twice.
        w.deliver(&commit_of(batch, 2_000));
        assert_eq!(w.completed(), 1);
        assert!(think_ticks(&mut w).is_empty());

        // The tick resubmits for the completed request's client; the
        // window cap is never exceeded.
        let at = ticks[0];
        assert_eq!(w.handle_tick(at), 1);
        assert_eq!(w.in_flight(), 2);
        assert_eq!(w.submitted(), 3);
        assert!(w.in_flight() as u64 <= w.max_in_flight());
        assert_eq!(w.handle_tick(at), 0, "one tick, one resubmit");
    }

    #[test]
    fn think_multipliers_pair_each_tick_with_the_right_client() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(1_000)];
        let think = Duration::from_millis(2);
        let mut w = ClosedLoopWorkload::new(2, 1, think, 100, 1, mempools.clone())
            .with_think_multipliers(vec![1, 10]);
        assert_eq!(w.think_time_for(0), Duration::from_millis(2));
        assert_eq!(w.think_time_for(1), Duration::from_millis(20));
        w.prime(Time::ZERO);
        let mut drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(drained.len(), 2);
        // Deliver the SLOW client's completion first: its deadline
        // (commit + 20 ms) must not hijack the fast client's earlier tick.
        drained.sort_by_key(|r| std::cmp::Reverse(r.client));
        w.deliver(&commit_of(drained, 1_000_000));
        let mut ticks = think_ticks(&mut w);
        ticks.sort();
        assert_eq!(ticks, vec![Time(3_000_000), Time(21_000_000)]);
        // The early tick resubmits the ×1 client, the late one the ×10.
        w.handle_tick(ticks[0]);
        let fast = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(fast.iter().map(|r| r.client).collect::<Vec<_>>(), [0]);
        w.handle_tick(ticks[1]);
        let slow = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(slow.iter().map(|r| r.client).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn closed_loop_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<usize> {
            let mempools: Vec<SharedMempool> = (0..4).map(|_| Mempool::shared(1_000)).collect();
            let mut w = ClosedLoopWorkload::new(8, 2, Duration::ZERO, 64, seed, mempools.clone());
            w.prime(Time::ZERO);
            mempools.iter().map(|m| m.lock().unwrap().len()).collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should retarget");
    }

    /// The open-loop shape: one member paced at `interval`, with a
    /// window of `window` requests.
    fn open_loop(
        interval: Duration,
        window: u32,
        seed: u64,
        mempools: &[SharedMempool],
    ) -> ClosedLoopWorkload {
        ClosedLoopWorkload::new(1, window, Duration::ZERO, 64, seed, mempools.to_vec())
            .with_member_interval(interval)
    }

    /// Drives `w` through `until` the way the simulator does — prime at
    /// t = 0, then every tick it asks for in time order — and returns the
    /// submit times. With `complete_at_once`, each request commits the
    /// instant it is submitted.
    fn submit_times(
        w: &mut ClosedLoopWorkload,
        pool: &SharedMempool,
        until: Time,
        complete_at_once: bool,
    ) -> Vec<Time> {
        let mut times = Vec::new();
        let mut ticks = BinaryHeap::new();
        let mut now = Time::ZERO;
        w.prime(now);
        loop {
            let submitted = pool.lock().unwrap().drain(usize::MAX);
            times.extend(submitted.iter().map(|r| r.submitted_at));
            if complete_at_once && !submitted.is_empty() {
                w.deliver(&commit_of(submitted, now.as_nanos()));
            }
            ticks.extend(think_ticks(w).into_iter().map(Reverse));
            match ticks.pop() {
                Some(Reverse(at)) if at <= until => {
                    now = at;
                    w.handle_tick(now);
                }
                _ => return times,
            }
        }
    }

    /// A paced one-member cohort whose window the run cannot fill submits
    /// at exactly `0, i, 2i, …` whether nothing ever commits or every
    /// request commits at once: completions never add a submission, which
    /// is what makes it the open loop.
    #[test]
    fn a_paced_member_with_an_unfillable_window_submits_at_a_fixed_rate() {
        let interval = Duration::from_millis(3);
        let expected: Vec<Time> = (0..=40).map(|k| Time(k * interval.as_nanos())).collect();
        let until = *expected.last().unwrap();
        for complete_at_once in [false, true] {
            let pool = Mempool::shared(1_000);
            let mut w = open_loop(interval, 1_000, 5, std::slice::from_ref(&pool));
            let times = submit_times(&mut w, &pool, until, complete_at_once);
            assert_eq!(times, expected, "complete_at_once = {complete_at_once}");
            assert_eq!(w.submitted(), 41);
            let completed = if complete_at_once { 41 } else { 0 };
            assert_eq!(w.completed(), completed);
        }
    }

    #[test]
    fn open_loop_generator_is_seed_deterministic() {
        let run = |seed: u64| -> (Vec<u16>, Vec<usize>) {
            let mempools: Vec<SharedMempool> = (0..4).map(|_| Mempool::shared(100)).collect();
            let interval = Duration::from_millis(1);
            let mut w = open_loop(interval, 20, seed, &mempools);
            w.prime(Time::ZERO);
            for k in 1..20 {
                assert_eq!(w.handle_tick(Time(k * interval.as_nanos())), 1);
            }
            // Request `id` was the `id`-th submission.
            let mut targets = vec![0u16; 20];
            for (replica, pool) in mempools.iter().enumerate() {
                for id in pool.lock().unwrap().pending_ids() {
                    targets[id as usize - 1] = replica as u16;
                }
            }
            let lens = mempools.iter().map(|m| m.lock().unwrap().len()).collect();
            (targets, lens)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should retarget");
    }

    #[test]
    fn fanout_submits_to_consecutive_replicas() {
        let mempools: Vec<SharedMempool> = (0..4).map(|_| Mempool::shared(100)).collect();
        let mut w =
            ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone()).with_fanout(3);
        w.prime(Time::ZERO);
        let with_copy = mempools
            .iter()
            .filter(|m| !m.lock().unwrap().is_empty())
            .count();
        assert_eq!(with_copy, 3, "one request, three pools hold a copy");
        assert_eq!(w.submitted(), 1, "fan-out copies are one submission");
        assert_eq!(
            w.pending_in_pools(),
            1,
            "loss accounting counts unique requests, not fan-out copies"
        );
    }

    #[test]
    fn fanout_is_clamped_to_cluster_size() {
        let mempools: Vec<SharedMempool> = (0..2).map(|_| Mempool::shared(100)).collect();
        let mut w = open_loop(Duration::from_millis(10), 100, 1, &mempools).with_fanout(10);
        w.prime(Time(1));
        let copies: usize = w.mempools().iter().map(|m| m.lock().unwrap().len()).sum();
        assert_eq!(copies, 2, "clamped to one copy per pool");
        assert_eq!(w.pending_in_pools(), 1, "still one unique request");
    }

    #[test]
    fn retry_resubmits_uncommitted_requests_with_original_timestamp() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone())
            .with_retry(timeout);
        w.prime(Time::ZERO);
        let ticks = retry_ticks(&mut w);
        assert_eq!(ticks, vec![Time::ZERO + timeout], "submission arms retry");

        // The request is drained into a proposal that never finalizes.
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(drained.len(), 1);

        // The retry tick resubmits it — same id, original timestamp.
        assert_eq!(w.handle_retry_tick(ticks[0]), 1);
        assert_eq!(w.retries(), 1);
        let back = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(back, drained, "identical request re-enters the pool");
        // And the retry re-arms for another period.
        assert_eq!(retry_ticks(&mut w), vec![ticks[0] + timeout]);
    }

    #[test]
    fn retry_skips_completed_requests() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone())
            .with_retry(timeout);
        w.prime(Time::ZERO);
        let ticks = retry_ticks(&mut w);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        // The request commits before its deadline fires.
        w.deliver(&commit_of(drained, 5_000_000));
        assert_eq!(w.handle_retry_tick(ticks[0]), 0, "nothing left to retry");
        assert!(mempools[0].lock().unwrap().is_empty());
        assert!(retry_ticks(&mut w).is_empty(), "no re-arm");
    }

    #[test]
    fn open_loop_retry_tracks_completions() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = open_loop(Duration::from_millis(1), 2, 1, &mempools).with_retry(timeout);
        w.prime(Time(0));
        w.handle_tick(Time(1_000_000));
        let mut ticks = Vec::new();
        w.take_pending_retry_ticks_into(&mut ticks);
        assert_eq!(ticks.len(), 2);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        // First request commits; the second is lost with its proposal.
        w.deliver(&commit_of(vec![drained[0]], 2_000_000));
        assert_eq!(w.completed(), 1);
        assert_eq!(
            w.handle_retry_tick(ticks[1]),
            1,
            "only the lost one retries"
        );
        let back = mempools[0].lock().unwrap().drain(usize::MAX);
        assert_eq!(back, vec![drained[1]]);
    }

    #[test]
    fn pending_ticks_drain_into_a_cleared_buffer() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(1_000)];
        let timeout = Duration::from_millis(10);
        let mut w =
            ClosedLoopWorkload::new(2, 1, Duration::from_millis(1), 64, 1, mempools.clone())
                .with_retry(timeout);
        w.prime(Time::ZERO);
        let mut buf = vec![Time(999)]; // stale content must be cleared
        w.take_pending_retry_ticks_into(&mut buf);
        assert_eq!(buf, vec![Time::ZERO + timeout, Time::ZERO + timeout]);
        w.take_pending_retry_ticks_into(&mut buf);
        assert!(buf.is_empty(), "second drain is empty, stale ticks cleared");

        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(drained, 1_000_000));
        w.take_pending_ticks_into(&mut buf);
        let due = Time(1_000_000) + Duration::from_millis(1);
        assert_eq!(buf, vec![due, due], "one think tick per completion");
        w.take_pending_ticks_into(&mut buf);
        assert!(buf.is_empty(), "drained by the swap");
    }

    #[test]
    fn frozen_populations_stop_submitting_but_keep_retrying() {
        let mempools: Vec<SharedMempool> = vec![Mempool::shared(100)];
        let timeout = Duration::from_millis(10);
        let mut w = ClosedLoopWorkload::new(1, 1, Duration::ZERO, 64, 1, mempools.clone())
            .with_retry(timeout);
        w.prime(Time::ZERO);
        let ticks = retry_ticks(&mut w);
        let drained = mempools[0].lock().unwrap().drain(usize::MAX);
        w.deliver(&commit_of(drained, 1_000));
        w.freeze();
        // The freed slot does not resubmit while frozen…
        assert_eq!(w.handle_tick(Time(2_000)), 0);
        assert_eq!(w.submitted(), 1);
        // …but a still-in-flight request would keep retrying (here the
        // only request completed, so the tick is a no-op).
        assert_eq!(w.handle_retry_tick(ticks[0]), 0);
    }
}
