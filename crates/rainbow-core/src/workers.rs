//! A site's reused worker threads.
//!
//! Work that may wait — a copy access whose lock is held — must not run on
//! the dispatcher, and must not queue behind other work that waits either. So a job goes to an idle worker when there is one
//! and to a newly started worker otherwise, never into a queue behind a busy
//! one: the set is as unbounded as thread-per-request was, but in steady
//! state every job finds a parked thread and none is created. Idle workers
//! retire after [`KEEP_ALIVE`]; [`Workers::retire`] retires them at once.

use crate::metrics::SiteMetrics;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker stays parked without work before its thread exits.
const KEEP_ALIVE: Duration = Duration::from_secs(5);

type Job = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct State {
    /// Jobs handed to parked workers that have not woken up yet. Never
    /// longer than the number of parked workers: each entry was pushed
    /// against one unit of `idle`.
    handed: VecDeque<Job>,
    /// Parked workers no job has been handed to.
    idle: usize,
    retiring: bool,
    handles: Vec<JoinHandle<()>>,
}

/// The worker set of one site.
pub(crate) struct Workers {
    name: String,
    metrics: Arc<SiteMetrics>,
    state: Mutex<State>,
    wake: Condvar,
}

impl Workers {
    /// An empty set; threads are named `name` and counted in `metrics`.
    pub fn new(name: String, metrics: Arc<SiteMetrics>) -> Arc<Self> {
        Arc::new(Workers {
            name,
            metrics,
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
        })
    }

    /// Runs `job` on an idle worker, or on a new one when all are busy.
    /// Never blocks beyond the set's own short critical section.
    pub fn run(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) {
        let mut state = self.state.lock();
        if state.idle > 0 {
            state.idle -= 1;
            state.handed.push_back(Box::new(job));
            drop(state);
            self.wake.notify_one();
            return;
        }
        SiteMetrics::bump(&self.metrics.workers_started);
        let set = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || set.work(Box::new(job)))
            .expect("failed to spawn site worker");
        state.handles.retain(|handle| !handle.is_finished());
        state.handles.push(handle);
    }

    /// A worker thread: runs its first job, then parks for the next one
    /// until the keep-alive runs out or the set retires.
    fn work(&self, mut job: Job) {
        loop {
            job();
            let mut state = self.state.lock();
            state.idle += 1;
            let parked_until = Instant::now() + KEEP_ALIVE;
            job = loop {
                // A handed job is taken by whichever parked worker gets
                // here first; `run` already took it off the idle count.
                if let Some(job) = state.handed.pop_front() {
                    break job;
                }
                if state.retiring || Instant::now() >= parked_until {
                    state.idle -= 1;
                    return;
                }
                self.wake.wait_until(&mut state, parked_until);
            };
        }
    }

    /// Retires the set: parked workers exit now, busy ones as soon as their
    /// job returns, and all of them are joined. Call once nothing submits
    /// jobs any more (the dispatcher has stopped).
    pub fn retire(&self) {
        let handles = {
            let mut state = self.state.lock();
            state.retiring = true;
            std::mem::take(&mut state.handles)
        };
        self.wake.notify_all();
        for handle in handles {
            // A job that panicked already reported itself on stderr.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use std::sync::atomic::Ordering;

    fn set() -> (Arc<Workers>, Arc<SiteMetrics>) {
        let metrics = Arc::new(SiteMetrics::new());
        (
            Workers::new("test-worker".into(), Arc::clone(&metrics)),
            metrics,
        )
    }

    #[test]
    fn sequential_jobs_reuse_one_worker() {
        let (workers, metrics) = set();
        let (done_tx, done_rx) = unbounded();
        for i in 0..100 {
            let done_tx = done_tx.clone();
            workers.run(move || done_tx.send(i).unwrap());
            assert_eq!(done_rx.recv().unwrap(), i);
            // The job has returned its result but the worker may not have
            // parked yet; wait for it so the next job finds it idle.
            while workers.state.lock().idle == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(metrics.workers_started.load(Ordering::Relaxed), 1);
        workers.retire();
    }

    #[test]
    fn a_job_never_queues_behind_a_busy_worker() {
        let (workers, metrics) = set();
        let (release_tx, release_rx) = unbounded::<()>();
        let (done_tx, done_rx) = unbounded();
        // Three jobs that block until released, then a fourth that must run
        // while all three are still blocked.
        for _ in 0..3 {
            let release_rx = release_rx.clone();
            workers.run(move || release_rx.recv().unwrap());
        }
        workers.run(move || done_tx.send(()).unwrap());
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the fourth job ran behind a blocked one");
        assert_eq!(metrics.workers_started.load(Ordering::Relaxed), 4);
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        workers.retire();
    }

    #[test]
    fn retire_joins_parked_and_busy_workers() {
        let (workers, _) = set();
        let (started_tx, started_rx) = unbounded();
        let (finished_tx, finished_rx) = unbounded();
        workers.run(|| {});
        workers.run(move || {
            started_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            finished_tx.send(()).unwrap();
        });
        started_rx.recv().unwrap();
        workers.retire();
        // `retire` returned only after the busy worker finished its job.
        finished_rx.try_recv().expect("busy worker was not joined");
        let state = workers.state.lock();
        assert_eq!(state.idle, 0);
        assert!(state.handles.is_empty());
    }
}
