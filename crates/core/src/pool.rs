//! The persistent worker pool behind the parallel quiescence engine.
//!
//! The paper's execution model is *distributed*: each principal runs
//! its local fixpoint independently and exchanges signed tuples. The
//! runtime exploits exactly that independence, but unlike the original
//! spawn-per-phase engine (a fresh `std::thread::scope` per phase per
//! step, ~60µs of spawn cost each, with contiguous registration-order
//! slices that let one hot hub principal load a single worker), the
//! pool here is created **once** at [`crate::System::with_shards`] and
//! lives as long as the `System`:
//!
//! * **Ownership, not borrowing.** Tasks are *owned* values (a
//!   `Workspace`, a `CertStore`, a delivery job) moved out of the
//!   `System`'s maps for the duration of one batch and moved back at
//!   the sequential merge. Moving the structs is a shallow memcpy —
//!   the same cost as building the per-shard `&mut` reference maps the
//!   scoped engine needed — and it keeps the whole pool inside
//!   `#![forbid(unsafe_code)]`: no lifetime erasure, no scoped-thread
//!   tricks.
//! * **Per-principal granularity + stealing.** Each batch is split
//!   into per-worker queues of `(registration index, task)` pairs by
//!   greedy LPT over deterministic per-principal costs. A worker
//!   drains its own queue front-to-back; an idle worker steals from
//!   the *back* of the most-loaded queue, so a skewed topology's
//!   backlog spreads instead of serializing on one worker. The policy
//!   is fixed; it has no knobs.
//! * **Determinism by construction.** Results are keyed by the
//!   submission index and handed back in index order; every merge
//!   point in the `System` is sequential in registration order. Which
//!   worker ran a task — and whether it was stolen — is therefore
//!   unobservable in the quiescent state (the serial ≡ sharded
//!   equivalence proptests pin this down). Steal counts and per-worker
//!   busy times *are* scheduling-dependent, which is why they feed
//!   volatile metrics only.
//! * **Panic propagation.** A panicking task poisons the batch: the
//!   remaining queued tasks are dropped, the first payload is captured,
//!   and [`WorkerPool::run_batch`] re-raises it on the submitting
//!   thread once in-flight tasks drain. The worker threads themselves
//!   survive and the pool stays usable.
//!
//! `shards = 1` constructs no pool: the `System` runs the same task
//! list inline, in index order, through the same task function and the
//! same merge.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Caps a requested worker count to the number of work items (queueing
/// to more workers than tasks buys nothing) and to at least one.
pub(crate) fn clamp_shards(requested: usize, items: usize) -> usize {
    requested.max(1).min(items.max(1))
}

/// Greedy LPT assignment: items sorted by descending cost (ties by
/// ascending index) each go to the least-loaded worker (ties to the
/// lowest worker index). Returns per-worker index lists, each sorted
/// ascending so a worker processes its share in registration order.
/// Fully deterministic for deterministic costs.
pub(crate) fn lpt_assign(costs: &[u64], parts: usize) -> Vec<Vec<usize>> {
    let parts = parts.max(1);
    let mut by_cost: Vec<usize> = (0..costs.len()).collect();
    by_cost.sort_by_key(|&i| (std::cmp::Reverse(costs[i].max(1)), i));
    let mut loads = vec![0u64; parts];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for i in by_cost {
        let w = (0..parts)
            .min_by_key(|&w| (loads[w], w))
            .expect("parts >= 1");
        loads[w] += costs[i].max(1);
        out[w].push(i);
    }
    for assigned in &mut out {
        assigned.sort_unstable();
    }
    out
}

/// Splits `items` into `parts` per-worker queues by LPT over `costs`
/// (`costs[i]` estimates `items[i]`; missing/zero costs count as 1).
pub(crate) fn split_lpt<T>(
    items: Vec<T>,
    costs: &[u64],
    parts: usize,
) -> Vec<VecDeque<(usize, T)>> {
    debug_assert_eq!(items.len(), costs.len());
    let assignment = lpt_assign(costs, parts);
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    assignment
        .into_iter()
        .map(|indices| {
            indices
                .into_iter()
                .map(|i| (i, slots[i].take().expect("each index assigned once")))
                .collect()
        })
        .collect()
}

/// What one [`WorkerPool::run_batch`] hands back.
#[derive(Debug)]
pub(crate) struct BatchReport<R> {
    /// Task results in submission-index order — worker identity erased.
    pub results: Vec<R>,
    /// Per-worker busy time (nanoseconds executing tasks) this batch.
    pub busy: Vec<u64>,
    /// Tasks executed by a worker other than the one they were queued
    /// on. Scheduling-dependent: volatile-metric material only.
    pub steals: u64,
    /// Total tasks executed.
    pub tasks: usize,
}

/// Shared pool state: one mutex over the queues and batch bookkeeping,
/// one condvar each for "work arrived" and "batch finished". Tasks are
/// coarse (a whole workspace fixpoint, a whole destination's delivery
/// batch), so the single lock is taken once per task claim/completion
/// and never contends with task execution itself.
struct PoolState<T, R> {
    queues: Vec<VecDeque<(usize, T)>>,
    batch_active: bool,
    /// Queued tasks not yet claimed.
    remaining: usize,
    /// Claimed tasks still executing.
    running: usize,
    results: Vec<Option<R>>,
    busy: Vec<u64>,
    steals: u64,
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolCore<T, R> {
    state: Mutex<PoolState<T, R>>,
    work_ready: Condvar,
    batch_done: Condvar,
}

fn lock<T, R>(m: &Mutex<PoolState<T, R>>) -> MutexGuard<'_, PoolState<T, R>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The persistent pool: `workers` threads created once, fed batches of
/// owned tasks via [`WorkerPool::run_batch`], joined on drop.
pub(crate) struct WorkerPool<T, R> {
    core: Arc<PoolCore<T, R>>,
    threads: Vec<JoinHandle<()>>,
    /// One clone rides in every worker thread; when every clone is
    /// gone (strong count back to 1 on an outside handle), the threads
    /// have demonstrably exited — the shutdown test's witness.
    #[cfg_attr(not(test), allow(dead_code))]
    liveness: Arc<()>,
}

impl<T: Send + 'static, R: Send + 'static> WorkerPool<T, R> {
    /// Spawns `workers` (at least 1) long-lived threads, each running
    /// `run` on every task it claims.
    pub(crate) fn new(workers: usize, run: Arc<dyn Fn(T) -> R + Send + Sync>) -> WorkerPool<T, R> {
        let workers = workers.max(1);
        let core = Arc::new(PoolCore {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                batch_active: false,
                remaining: 0,
                running: 0,
                results: Vec::new(),
                busy: vec![0; workers],
                steals: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let liveness = Arc::new(());
        let threads = (0..workers)
            .map(|me| {
                let core = Arc::clone(&core);
                let run = Arc::clone(&run);
                let alive = Arc::clone(&liveness);
                std::thread::Builder::new()
                    .name(format!("lbtrust-pool-{me}"))
                    .spawn(move || {
                        let _alive = alive;
                        worker_loop(&core, me, run.as_ref());
                    })
                    .expect("spawning pool worker thread")
            })
            .collect();
        WorkerPool {
            core,
            threads,
            liveness,
        }
    }

    /// The number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.threads.len()
    }

    /// A handle whose strong count drops back to 1 (on an outside
    /// clone) exactly when every worker thread has exited.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> Arc<()> {
        Arc::clone(&self.liveness)
    }

    /// Runs one batch to completion: queues are per-worker lists of
    /// `(index, task)` pairs with indices `0..total` each appearing
    /// once. Blocks until every task finished, then returns results in
    /// index order. Re-raises the first task panic on this thread
    /// (dropping the rest of the batch); the pool survives and the
    /// next batch runs normally.
    pub(crate) fn run_batch(&self, mut queues: Vec<VecDeque<(usize, T)>>) -> BatchReport<R> {
        let workers = self.workers();
        let total: usize = queues.iter().map(VecDeque::len).sum();
        if total == 0 {
            return BatchReport {
                results: Vec::new(),
                busy: vec![0; workers],
                steals: 0,
                tasks: 0,
            };
        }
        // More queues than workers would strand tasks no worker scans;
        // fold the excess into the last worker's queue.
        while queues.len() > workers {
            let extra = queues.pop().expect("len > workers >= 1");
            queues[workers - 1].extend(extra);
        }
        if queues.len() < workers {
            queues.resize_with(workers, VecDeque::new);
        }
        let mut st = lock(&self.core.state);
        debug_assert!(!st.batch_active, "run_batch while a batch is active");
        st.queues = queues;
        st.batch_active = true;
        st.remaining = total;
        st.running = 0;
        st.results = (0..total).map(|_| None).collect();
        st.busy = vec![0; workers];
        st.steals = 0;
        self.core.work_ready.notify_all();
        while st.remaining != 0 || st.running != 0 {
            st = self
                .core
                .batch_done
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.batch_active = false;
        let steals = st.steals;
        let busy = std::mem::take(&mut st.busy);
        let results = std::mem::take(&mut st.results);
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        BatchReport {
            results: results
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} finished without a result")))
                .collect(),
            busy,
            steals,
            tasks: total,
        }
    }
}

impl<T, R> Drop for WorkerPool<T, R> {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.core.state);
            st.shutdown = true;
        }
        self.core.work_ready.notify_all();
        for handle in self.threads.drain(..) {
            // A worker that panicked outside a task (impossible today:
            // tasks run under catch_unwind) still must not abort drop.
            let _ = handle.join();
        }
    }
}

/// Claims the next task for worker `me`: own queue front first, then
/// the back of the most-loaded other queue (lowest index on ties).
fn claim<T, R>(st: &mut PoolState<T, R>, me: usize) -> Option<(usize, T, bool)> {
    if !st.batch_active || st.remaining == 0 {
        return None;
    }
    if let Some((index, task)) = st.queues[me].pop_front() {
        st.remaining -= 1;
        return Some((index, task, false));
    }
    let mut victim: Option<usize> = None;
    for (w, q) in st.queues.iter().enumerate() {
        if w == me || q.is_empty() {
            continue;
        }
        let better = match victim {
            None => true,
            Some(v) => q.len() > st.queues[v].len(),
        };
        if better {
            victim = Some(w);
        }
    }
    let v = victim?;
    let (index, task) = st.queues[v].pop_back().expect("victim queue non-empty");
    st.remaining -= 1;
    Some((index, task, true))
}

fn worker_loop<T, R>(core: &PoolCore<T, R>, me: usize, run: &dyn Fn(T) -> R) {
    let mut st = lock(&core.state);
    loop {
        if st.shutdown {
            return;
        }
        let Some((index, task, stolen)) = claim(&mut st, me) else {
            st = core.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        st.running += 1;
        if stolen {
            st.steals += 1;
        }
        drop(st);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run(task)));
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        st = lock(&core.state);
        st.busy[me] += nanos;
        st.running -= 1;
        match outcome {
            Ok(result) => st.results[index] = Some(result),
            Err(payload) => {
                // First panic wins; the unclaimed remainder of the
                // batch is dropped so the submitter unblocks as soon
                // as in-flight tasks drain.
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
                let dropped: usize = st.queues.iter().map(VecDeque::len).sum();
                st.remaining -= dropped;
                for q in &mut st.queues {
                    q.clear();
                }
            }
        }
        if st.remaining == 0 && st.running == 0 {
            core.batch_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn clamping() {
        assert_eq!(clamp_shards(0, 5), 1);
        assert_eq!(clamp_shards(4, 5), 4);
        assert_eq!(clamp_shards(8, 5), 5);
        assert_eq!(clamp_shards(4, 0), 1);
    }

    /// Splits `items` by LPT over unit costs: round-robin, so queue
    /// lengths differ by at most one.
    fn unit_split<T>(items: Vec<T>, parts: usize) -> Vec<VecDeque<(usize, T)>> {
        let costs = vec![1; items.len()];
        split_lpt(items, &costs, parts)
    }

    #[test]
    fn unit_cost_split_balances_and_keeps_order() {
        let queues = unit_split((0..10).collect::<Vec<_>>(), 4);
        let lens: Vec<usize> = queues.iter().map(VecDeque::len).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        assert_eq!(queues[0], VecDeque::from(vec![(0, 0), (4, 4), (8, 8)]));
        for q in &queues {
            assert!(q.iter().all(|&(i, item)| i == item));
            assert!(q.iter().zip(q.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        }
    }

    #[test]
    fn lpt_spreads_a_hub_heavy_cost_vector() {
        // One hub at 50x the cost of anything else: LPT isolates it.
        let costs = vec![50, 1, 1, 1, 1, 1, 1, 1];
        let assignment = lpt_assign(&costs, 4);
        assert_eq!(assignment.iter().map(Vec::len).sum::<usize>(), 8);
        let hub_worker = assignment
            .iter()
            .position(|a| a.contains(&0))
            .expect("hub assigned");
        assert_eq!(
            assignment[hub_worker],
            vec![0],
            "the dominant task must get a worker to itself"
        );
        // Deterministic: same inputs, same assignment.
        assert_eq!(assignment, lpt_assign(&costs, 4));
        // Each worker's share is registration-ordered.
        for a in &assignment {
            assert!(a.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn pool_returns_results_in_index_order() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(3, Arc::new(|x| x * 2));
        let queues = unit_split((0..10u64).collect::<Vec<_>>(), 3);
        let report = pool.run_batch(queues);
        assert_eq!(report.tasks, 10);
        assert_eq!(
            report.results,
            (0..10u64).map(|x| x * 2).collect::<Vec<_>>()
        );
        // An empty batch is a no-op.
        let report = pool.run_batch(Vec::new());
        assert_eq!(report.tasks, 0);
        assert!(report.results.is_empty());
    }

    /// Deterministic steal witness: worker 0's first task blocks until
    /// the *other* task — queued behind it on worker 0's own queue —
    /// completes. Only a steal by worker 1 can run it, so the batch
    /// finishing at all proves stealing works (a broken pool fails the
    /// recv timeout rather than deadlocking).
    #[test]
    fn idle_worker_steals_backlog() {
        enum Task {
            Block,
            Signal,
        }
        let (tx, rx) = mpsc::channel::<()>();
        let tx = Mutex::new(tx);
        let rx = Mutex::new(rx);
        let pool: WorkerPool<Task, bool> = WorkerPool::new(
            2,
            Arc::new(move |task| match task {
                Task::Block => rx
                    .lock()
                    .unwrap()
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .is_ok(),
                Task::Signal => {
                    let _ = tx.lock().unwrap().send(());
                    true
                }
            }),
        );
        let queues = vec![
            VecDeque::from(vec![(0, Task::Block), (1, Task::Signal)]),
            VecDeque::new(),
        ];
        let report = pool.run_batch(queues);
        assert_eq!(report.results, vec![true, true]);
        // Worker 1 must have stolen the signal task (and, if it woke
        // before worker 0, possibly the blocker too).
        assert!(
            (1..=2).contains(&report.steals),
            "the signal task must have been stolen (steals = {})",
            report.steals
        );
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(
            2,
            Arc::new(|x| {
                assert!(x != 3, "poisoned task");
                x
            }),
        );
        let queues = unit_split((0..6u64).collect::<Vec<_>>(), 2);
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_batch(queues)));
        let payload = caught.expect_err("the task panic must reach the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poisoned task"), "unexpected payload: {msg}");
        // Same pool, next batch: business as usual.
        let queues = unit_split((10..16u64).collect::<Vec<_>>(), 2);
        let report = pool.run_batch(queues);
        assert_eq!(report.results, (10..16u64).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(4, Arc::new(|x| x));
        let report = pool.run_batch(unit_split(vec![1, 2, 3], 4));
        assert_eq!(report.results, vec![1, 2, 3]);
        let alive = pool.liveness();
        assert_eq!(Arc::strong_count(&alive), 1 + 1 + 4); // ours + pool's + workers
        drop(pool);
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "worker threads must be joined (not leaked) when the pool drops"
        );
    }
}
