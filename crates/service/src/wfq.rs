//! Weighted fair queueing over per-tenant lanes — the service's ready
//! queue since PR 8 (it replaced a plain FIFO crossbeam channel, which
//! gave round-robin over cohorts but no isolation between labs).
//!
//! The discipline is start-time fair queueing with unit-cost packets: one
//! queue entry = one engine round. Each tenant lane carries a virtual
//! *finish tag*; the scheduler always serves the backlogged lane with the
//! smallest tag and advances that lane's tag by `1/weight`. Under
//! saturation a weight-2 lane therefore receives exactly twice the rounds
//! of a weight-1 lane, and any backlogged lane is served within a bounded
//! number of pops of its tag becoming minimal — the no-starvation
//! property the old FIFO provided, now weight-aware (pinned by the unit
//! tests below and `tests/wfq_fairness.rs`).
//!
//! Two degeneracies matter for compatibility:
//!
//! * **One tenant** (or uniform weights, one cohort per lane): tags
//!   interleave lanes exactly round-robin, so the scheduler reproduces
//!   the FIFO's pickup order — which is why the pre-QoS equivalence
//!   suite runs unchanged.
//! * **Idle lanes get nothing and block nothing**: only backlogged lanes
//!   compete, and an arrival into an idle lane restarts its tag at the
//!   current virtual time (`max(vtime, tag)`), so a tenant cannot bank
//!   credit by staying quiet.
//!
//! Like the channel it replaced, the scheduler only decides *when* a
//! cohort's next round runs, never *what* it computes — reports stay
//! bit-for-bit identical under any weight assignment.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// One tenant's lane: its weight, virtual finish tag, and FIFO backlog
/// (cohorts within a lane still round-robin among themselves).
struct Lane<T> {
    weight: u32,
    finish: f64,
    items: VecDeque<T>,
}

struct WfqState<T> {
    lanes: BTreeMap<u32, Lane<T>>,
    /// Virtual time: the finish tag of the last served entry.
    vtime: f64,
    /// Entries queued across all lanes.
    queued: usize,
    closed: bool,
}

/// A blocking weighted-fair ready queue, shared by the batcher (producer)
/// and the round workers (consumers).
pub struct WfqScheduler<T> {
    state: Mutex<WfqState<T>>,
    available: Condvar,
}

impl<T> WfqScheduler<T> {
    /// Build the scheduler with pre-declared `(tenant, weight)` lanes.
    /// Tenants pushed later without a declared lane get weight 1.
    pub fn new(weights: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let lanes = weights
            .into_iter()
            .map(|(tenant, weight)| {
                (
                    tenant,
                    Lane {
                        weight: weight.max(1),
                        finish: 0.0,
                        items: VecDeque::new(),
                    },
                )
            })
            .collect();
        WfqScheduler {
            state: Mutex::new(WfqState {
                lanes,
                vtime: 0.0,
                queued: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueue one round of work for `tenant` and wake one blocked
    /// [`WfqScheduler::pop`]. An arrival into an idle lane restarts the
    /// lane's tag at the current virtual time, so idle periods earn no
    /// credit.
    pub fn push(&self, tenant: u32, item: T) {
        self.enqueue(tenant, item);
        self.available.notify_one();
    }

    /// [`WfqScheduler::push`] for a consumer that calls
    /// [`WfqScheduler::pop`] next: the entry is tagged and queued the same
    /// way, but nobody is woken, because the caller is about to take an
    /// entry itself. A worker woken here would find the queue empty again,
    /// or win the race and move the cohort to a cold core, at a cost that
    /// depends on how busy the host is. No wake-up is lost: if the
    /// caller's `pop` takes another entry and leaves this one, the wake-up
    /// `push` sent for that other entry finds this one.
    pub fn requeue(&self, tenant: u32, item: T) {
        self.enqueue(tenant, item);
    }

    fn enqueue(&self, tenant: u32, item: T) {
        let mut state = self.state.lock().expect("wfq lock");
        let vtime = state.vtime;
        let lane = state.lanes.entry(tenant).or_insert_with(|| Lane {
            weight: 1,
            finish: 0.0,
            items: VecDeque::new(),
        });
        if lane.items.is_empty() {
            lane.finish = lane.finish.max(vtime) + 1.0 / f64::from(lane.weight);
        }
        lane.items.push_back(item);
        state.queued += 1;
    }

    /// Dequeue the next round: blocks while empty, returns `None` once the
    /// scheduler is closed. Ties on the finish tag break toward the
    /// smaller tenant id (BTreeMap order), so the pick is deterministic.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("wfq lock");
        loop {
            if state.closed {
                return None;
            }
            if state.queued > 0 {
                break;
            }
            state = self.available.wait(state).expect("wfq wait");
        }
        let (&tenant, _) = state
            .lanes
            .iter()
            .filter(|(_, lane)| !lane.items.is_empty())
            .min_by(|(ia, a), (ib, b)| {
                a.finish
                    .partial_cmp(&b.finish)
                    .expect("finish tags are finite")
                    .then(ia.cmp(ib))
            })
            .expect("queued > 0 implies a backlogged lane");
        let lane = state.lanes.get_mut(&tenant).expect("lane exists");
        let item = lane.items.pop_front().expect("lane is backlogged");
        let finish = lane.finish;
        if !lane.items.is_empty() {
            lane.finish += 1.0 / f64::from(lane.weight);
        }
        state.vtime = finish;
        state.queued -= 1;
        Some(item)
    }

    /// Entries currently queued across all lanes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("wfq lock").queued
    }

    /// Per-tenant backlog depths, for lane-level observability: one
    /// `(tenant, queued_rounds)` pair per declared-or-seen lane, in
    /// tenant-id order. Idle lanes report 0 rather than vanishing, so a
    /// scrape can tell "declared but quiet" from "never seen".
    pub fn lane_depths(&self) -> Vec<(u32, usize)> {
        let state = self.state.lock().expect("wfq lock");
        state
            .lanes
            .iter()
            .map(|(&tenant, lane)| (tenant, lane.items.len()))
            .collect()
    }

    /// One tenant's queued backlog (0 for unknown or idle lanes).
    pub fn lane_depth(&self, tenant: u32) -> usize {
        let state = self.state.lock().expect("wfq lock");
        state
            .lanes
            .get(&tenant)
            .map(|lane| lane.items.len())
            .unwrap_or(0)
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: every blocked and future [`WfqScheduler::pop`]
    /// returns `None`. Queued items are dropped with the scheduler (by
    /// close time the service has already drained or parked them).
    pub fn close(&self) {
        self.state.lock().expect("wfq lock").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Drain `n` pops and count how many went to each tenant, pushing the
    /// popped marker back to keep the lane saturated.
    fn serve_saturated(sched: &WfqScheduler<u32>, n: usize) -> BTreeMap<u32, usize> {
        let mut counts = BTreeMap::new();
        for _ in 0..n {
            let tenant = sched.pop().unwrap();
            *counts.entry(tenant).or_insert(0) += 1;
            sched.push(tenant, tenant);
        }
        counts
    }

    #[test]
    fn weights_two_to_one_share_rounds_two_to_one() {
        let sched = WfqScheduler::new([(1, 2), (2, 1)]);
        for _ in 0..4 {
            sched.push(1, 1);
            sched.push(2, 2);
        }
        let counts = serve_saturated(&sched, 300);
        assert_eq!(counts[&1], 200, "weight-2 lane gets 2/3 of the rounds");
        assert_eq!(counts[&2], 100, "weight-1 lane gets 1/3 of the rounds");
    }

    #[test]
    fn uniform_weights_round_robin() {
        let sched = WfqScheduler::new([]);
        for t in [1u32, 2, 3] {
            sched.push(t, t);
            sched.push(t, t);
        }
        let counts = serve_saturated(&sched, 99);
        for t in [1u32, 2, 3] {
            assert_eq!(counts[&t], 33, "uniform lanes share equally");
        }
    }

    #[test]
    fn idle_tenant_neither_blocks_nor_banks_credit() {
        // Tenant 9 is declared with a huge weight but never submits:
        // tenant 1's work must flow unimpeded.
        let sched = WfqScheduler::new([(9, 1000), (1, 1)]);
        for i in 0..5 {
            sched.push(1, i);
        }
        for i in 0..5 {
            assert_eq!(sched.pop(), Some(i));
        }
        // Now tenant 9 wakes up. Its tag restarts at the current virtual
        // time, so it gets its weighted share *from now on* — not a burst
        // of banked rounds followed by tenant-1 starvation.
        sched.push(9, 100);
        sched.push(1, 200);
        let first = sched.pop().unwrap();
        let second = sched.pop().unwrap();
        assert_eq!(
            (first, second),
            (100, 200),
            "woken heavy lane is served promptly but tenant 1 follows immediately"
        );
    }

    #[test]
    fn no_starvation_every_backlogged_lane_is_served_within_a_window() {
        // Worst case for the light lane: weight 1 vs weight 8. Within any
        // window of 9 consecutive pops, the light lane must appear.
        let sched = WfqScheduler::new([(1, 8), (2, 1)]);
        sched.push(1, 1);
        sched.push(2, 2);
        let mut since_light = 0usize;
        for _ in 0..500 {
            let t = sched.pop().unwrap();
            if t == 2 {
                since_light = 0;
            } else {
                since_light += 1;
                assert!(since_light <= 8, "light lane starved past its bound");
            }
            sched.push(t, t);
        }
    }

    #[test]
    fn lane_depths_track_backlogs_without_dropping_idle_lanes() {
        let sched = WfqScheduler::new([(1, 2), (5, 1)]);
        assert_eq!(sched.lane_depths(), vec![(1, 0), (5, 0)]);
        sched.push(1, 10);
        sched.push(1, 11);
        sched.push(9, 90); // undeclared lane materializes on first push
        assert_eq!(sched.lane_depths(), vec![(1, 2), (5, 0), (9, 1)]);
        assert_eq!(sched.lane_depth(1), 2);
        assert_eq!(sched.lane_depth(5), 0);
        assert_eq!(sched.lane_depth(404), 0, "unknown lanes read as empty");
        sched.pop().unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(
            sched.lane_depths().iter().map(|(_, d)| d).sum::<usize>(),
            2,
            "depths agree with the global count"
        );
    }

    #[test]
    fn close_unblocks_poppers() {
        let sched = Arc::new(WfqScheduler::<u32>::new([]));
        let waiter = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || sched.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.close();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(sched.pop(), None, "closed stays closed");
    }

    #[test]
    fn requeue_tags_like_push_and_strands_no_entry() {
        // Same shares as `weights_two_to_one_share_rounds_two_to_one`.
        let sched = WfqScheduler::new([(1, 2), (2, 1)]);
        for _ in 0..4 {
            sched.push(1, 1);
            sched.push(2, 2);
        }
        let mut counts = BTreeMap::new();
        for _ in 0..300 {
            let tenant = sched.pop().unwrap();
            *counts.entry(tenant).or_insert(0) += 1;
            sched.requeue(tenant, tenant);
        }
        assert_eq!((counts[&1], counts[&2]), (200, 100));

        // Three workers run every entry for `ROUNDS` rounds, requeueing in
        // between as the service's do, while entries keep arriving: every
        // round is served although `requeue` wakes nobody.
        const ENTRIES: usize = 64;
        const ROUNDS: usize = 50;
        let sched = Arc::new(WfqScheduler::<usize>::new([]));
        let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (sched, served) = (Arc::clone(&sched), Arc::clone(&served));
                std::thread::spawn(move || {
                    while let Some(rounds_left) = sched.pop() {
                        served.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        if rounds_left > 1 {
                            sched.requeue(0, rounds_left - 1);
                        }
                    }
                })
            })
            .collect();
        for i in 0..ENTRIES {
            sched.push(0, ROUNDS);
            if i % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while served.load(std::sync::atomic::Ordering::SeqCst) < ENTRIES * ROUNDS {
            assert!(
                std::time::Instant::now() < deadline,
                "an entry was stranded"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(sched.is_empty());
        sched.close();
        for worker in workers {
            worker.join().unwrap();
        }
    }
}
