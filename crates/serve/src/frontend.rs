//! The non-blocking completion front end: tickets, `poll`/`try_wait`,
//! and completion callbacks.
//!
//! A network layer multiplexing thousands of tenants cannot afford one
//! parked thread per outstanding job, so completion is exposed three ways,
//! all std-only and runtime-agnostic:
//!
//! - **Polling**: [`crate::Service::poll`] returns [`Poll::Pending`] or
//!   [`Poll::Ready`] without ever blocking; [`crate::Service::try_wait`]
//!   is the `Option`-shaped spelling of the same thing.
//! - **Callbacks**: [`crate::Service::on_complete`] registers a `FnOnce`
//!   waker invoked from the completion path (outside every service lock),
//!   so an async executor can wake the right task, a reactor can write the
//!   response, or a test can count completions — without any runtime
//!   dependency baked into the service.
//! - **Blocking**: [`crate::Service::wait`] is now a thin wrapper that
//!   polls under the completion condvar; the service counts how many
//!   waits actually parked a thread, so a non-blocking harness can assert
//!   it never blocked.
//!
//! Collection is single-shot and typed: the first successful `poll`/`wait`
//! takes the records; afterwards the job id is a bounded *tombstone*, so
//! "already collected" ([`WaitError::Collected`]) stays distinguishable
//! from "never admitted" ([`WaitError::UnknownJob`]) instead of both
//! collapsing to `None`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use cas_offinder::OffTarget;

use crate::job::JobId;
use crate::results::CanonicalSpec;
use crate::tenant::TenantId;

/// Non-blocking completion status of a job.
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// The job finished; its records are handed over exactly once — the
    /// job id is a tombstone afterwards.
    Ready(Vec<OffTarget>),
    /// The job is admitted (or merged onto an in-flight duplicate) and
    /// still computing.
    Pending,
}

/// Why a `poll`/`wait` could not produce results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The id was never admitted by this service (or its tombstone has
    /// aged out of the bounded collected-id window).
    UnknownJob,
    /// The job completed and its records were already collected by an
    /// earlier `poll`/`wait`; results are handed over exactly once.
    Collected,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::UnknownJob => write!(f, "job id was never admitted"),
            WaitError::Collected => write!(f, "job results were already collected"),
        }
    }
}

impl std::error::Error for WaitError {}

/// Receipt for an admitted job: everything a submitter needs to poll for
/// completion and to back off intelligently when later submissions shed.
#[derive(Debug, Clone)]
pub struct Ticket {
    /// The admitted job's id — what [`crate::Service::poll`] takes.
    pub id: JobId,
    /// The tenant the job was charged to.
    pub tenant: TenantId,
    /// Admission cost in scan-position units: what the job holds of its
    /// tenant's in-flight quota until completion.
    pub cost: u64,
    /// The completion SLO the job was admitted under, if any.
    pub deadline: Option<Duration>,
}

/// A completion callback: invoked exactly once, from the completion path,
/// outside every service lock.
pub(crate) type CompletionCallback = Box<dyn FnOnce(JobId) + Send>;

/// A registered job's progress: how many chunk-batch memberships are still
/// due, the records accumulated so far, and the QoS bookkeeping settled at
/// completion.
pub(crate) struct JobEntry {
    /// `None` until the batcher has planned the job's chunk tasks.
    pub remaining: Option<usize>,
    pub offtargets: Vec<OffTarget>,
    /// Bulge jobs fold several variant searches into one record set; exact
    /// duplicates across variants are removed at completion.
    pub dedup: bool,
    pub done: bool,
    /// Set on result-store compute leaders only: the canonical spec this
    /// job must publish to the result store when it finishes, fulfilling
    /// any merged followers.
    pub publish: Option<CanonicalSpec>,
    /// The tenant charged for the job.
    pub tenant: TenantId,
    /// Admission cost, in scan-position units.
    pub cost: u64,
    /// Whether the job actually entered the fair queue (and thus holds
    /// tenant quota that completion must release). Result-cache hits and
    /// single-flight merges never do.
    pub charged: bool,
    /// The completion SLO, if any; checked against the measured latency.
    pub deadline: Option<Duration>,
    /// When the job was registered; completion latency is measured from
    /// here.
    pub submitted: Instant,
    /// Completion waker, if one was registered before the job finished.
    pub callback: Option<CompletionCallback>,
}

impl JobEntry {
    /// A fresh pending entry for an admitted (or about-to-be-admitted)
    /// job.
    pub fn new(
        tenant: TenantId,
        cost: u64,
        deadline: Option<Duration>,
        dedup: bool,
        publish: Option<CanonicalSpec>,
    ) -> Self {
        JobEntry {
            remaining: None,
            offtargets: Vec::new(),
            dedup,
            done: false,
            publish,
            tenant,
            cost,
            charged: true,
            deadline,
            submitted: Instant::now(),
            callback: None,
        }
    }

    /// Mark the entry done and extract the side effects the caller must
    /// settle *after* releasing the jobs lock: quota release, per-tenant
    /// accounting, and the registered callback.
    pub fn finish(&mut self, id: JobId) -> Completion {
        self.done = true;
        let latency = self.submitted.elapsed();
        Completion {
            id,
            tenant: self.tenant,
            cost: self.cost,
            charged: self.charged,
            latency,
            deadline_missed: self.deadline.is_some_and(|d| latency > d),
            callback: self.callback.take(),
        }
    }
}

/// The out-of-lock side effects of one job completing. Produced by
/// [`JobEntry::finish`] under the jobs lock, consumed by the service's
/// settle path after dropping it — so callbacks and quota releases never
/// run under the completion mutex.
pub(crate) struct Completion {
    pub id: JobId,
    pub tenant: TenantId,
    pub cost: u64,
    pub charged: bool,
    pub latency: Duration,
    pub deadline_missed: bool,
    pub callback: Option<CompletionCallback>,
}

/// Collected job ids are remembered in a bounded FIFO window so a repeat
/// collect reports [`WaitError::Collected`] instead of `UnknownJob`.
/// Beyond the window the distinction ages out — the memory stays bounded
/// no matter how many jobs a service serves.
const TOMBSTONE_WINDOW: usize = 4096;

#[derive(Default)]
struct Tombstones {
    set: HashSet<JobId>,
    order: VecDeque<JobId>,
}

impl Tombstones {
    fn insert(&mut self, id: JobId) {
        if self.set.insert(id) {
            self.order.push_back(id);
            while self.order.len() > TOMBSTONE_WINDOW {
                let evicted = self.order.pop_front().expect("window is non-empty");
                self.set.remove(&evicted);
            }
        }
    }

    fn contains(&self, id: JobId) -> bool {
        self.set.contains(&id)
    }
}

/// Completion tracking for every in-flight job: the entry map the batcher
/// and workers fold records into, the condvar blocking waiters park on,
/// and the collected-id tombstones.
///
/// Lock order: `jobs` before `tombstones`, never the reverse.
pub(crate) struct CompletionHub {
    pub jobs: Mutex<HashMap<JobId, JobEntry>>,
    pub done: Condvar,
    tombstones: Mutex<Tombstones>,
}

impl CompletionHub {
    pub fn new() -> Self {
        CompletionHub {
            jobs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            tombstones: Mutex::new(Tombstones::default()),
        }
    }

    /// Register a pending entry under `id`.
    pub fn register(&self, id: JobId, entry: JobEntry) {
        self.jobs.lock().unwrap().insert(id, entry);
    }

    /// Remove a registration that never got admitted (submission failed).
    pub fn discard(&self, id: JobId) {
        self.jobs.lock().unwrap().remove(&id);
    }

    /// Non-blocking completion check; `Ready` takes the records and
    /// tombstones the id.
    pub fn poll(&self, id: JobId) -> Result<Poll, WaitError> {
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get(&id) {
            None => Err(self.absent_error(id)),
            Some(entry) if entry.done => {
                let entry = jobs.remove(&id).expect("entry exists");
                self.tombstones.lock().unwrap().insert(id);
                Ok(Poll::Ready(entry.offtargets))
            }
            Some(_) => Ok(Poll::Pending),
        }
    }

    /// Block until `id` completes and take its records; `on_block` fires
    /// once if the call actually parks (so harnesses can count threads
    /// that really blocked in `wait`).
    pub fn wait(&self, id: JobId, on_block: impl FnOnce()) -> Result<Vec<OffTarget>, WaitError> {
        let mut jobs = self.jobs.lock().unwrap();
        let mut on_block = Some(on_block);
        loop {
            match jobs.get(&id) {
                None => return Err(self.absent_error(id)),
                Some(entry) if entry.done => {
                    let entry = jobs.remove(&id).expect("entry exists");
                    self.tombstones.lock().unwrap().insert(id);
                    return Ok(entry.offtargets);
                }
                Some(_) => {
                    if let Some(f) = on_block.take() {
                        f();
                    }
                    jobs = self.done.wait(jobs).unwrap();
                }
            }
        }
    }

    /// Register `callback` to run when `id` completes; runs immediately
    /// (outside the lock) if the job already finished but was not yet
    /// collected. A later registration replaces an earlier one.
    pub fn on_complete(&self, id: JobId, callback: CompletionCallback) -> Result<(), WaitError> {
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get_mut(&id) {
            None => Err(self.absent_error(id)),
            Some(entry) if entry.done => {
                drop(jobs);
                callback(id);
                Ok(())
            }
            Some(entry) => {
                entry.callback = Some(callback);
                Ok(())
            }
        }
    }

    /// The typed error for an id with no live entry. Caller holds the
    /// `jobs` lock (lock order: `jobs` → `tombstones`).
    fn absent_error(&self, id: JobId) -> WaitError {
        if self.tombstones.lock().unwrap().contains(id) {
            WaitError::Collected
        } else {
            WaitError::UnknownJob
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn entry() -> JobEntry {
        JobEntry::new(TenantId(1), 10, None, false, None)
    }

    #[test]
    fn poll_distinguishes_pending_ready_collected_and_unknown() {
        let hub = CompletionHub::new();
        assert_eq!(hub.poll(7), Err(WaitError::UnknownJob));
        hub.register(7, entry());
        assert_eq!(hub.poll(7), Ok(Poll::Pending));
        let completion = {
            let mut jobs = hub.jobs.lock().unwrap();
            jobs.get_mut(&7).unwrap().finish(7)
        };
        assert_eq!(completion.id, 7);
        assert!(completion.charged);
        assert_eq!(hub.poll(7), Ok(Poll::Ready(Vec::new())));
        assert_eq!(hub.poll(7), Err(WaitError::Collected), "single-shot");
        assert_eq!(hub.poll(8), Err(WaitError::UnknownJob));
    }

    #[test]
    fn callbacks_fire_on_finish_or_immediately_when_already_done() {
        let hub = CompletionHub::new();
        let fired = Arc::new(AtomicU64::new(0));
        hub.register(1, entry());
        let f = Arc::clone(&fired);
        hub.on_complete(
            1,
            Box::new(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 0, "not fired while pending");
        let completion = {
            let mut jobs = hub.jobs.lock().unwrap();
            jobs.get_mut(&1).unwrap().finish(1)
        };
        // The completion path invokes the taken callback outside the lock.
        completion.callback.expect("callback was registered")(1);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Registering after completion fires immediately.
        let f = Arc::clone(&fired);
        hub.on_complete(
            1,
            Box::new(move |_| {
                f.fetch_add(10, Ordering::SeqCst);
            }),
        )
        .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 11);
        assert_eq!(
            hub.on_complete(99, Box::new(|_| {})),
            Err(WaitError::UnknownJob)
        );
    }

    #[test]
    fn wait_counts_only_calls_that_actually_park() {
        let hub = Arc::new(CompletionHub::new());
        hub.register(3, entry());
        {
            let mut jobs = hub.jobs.lock().unwrap();
            jobs.get_mut(&3).unwrap().finish(3);
        }
        let mut blocked = false;
        let got = hub.wait(3, || blocked = true).unwrap();
        assert!(got.is_empty());
        assert!(!blocked, "already-done waits must not count as blocking");

        hub.register(4, entry());
        let h = Arc::clone(&hub);
        let waiter = std::thread::spawn(move || {
            let mut blocked = false;
            let got = h.wait(4, || blocked = true);
            (got, blocked)
        });
        std::thread::sleep(Duration::from_millis(20));
        {
            let mut jobs = hub.jobs.lock().unwrap();
            jobs.get_mut(&4).unwrap().finish(4);
        }
        hub.done.notify_all();
        let (got, blocked) = waiter.join().unwrap();
        assert!(got.unwrap().is_empty());
        assert!(blocked, "this wait really parked");
    }

    #[test]
    fn deadline_misses_are_measured_against_real_latency() {
        let mut hit = JobEntry::new(TenantId(0), 1, Some(Duration::from_secs(3600)), false, None);
        assert!(!hit.finish(0).deadline_missed);
        let mut missed = JobEntry::new(TenantId(0), 1, Some(Duration::ZERO), false, None);
        std::thread::sleep(Duration::from_millis(1));
        assert!(missed.finish(1).deadline_missed);
    }

    #[test]
    fn tombstones_age_out_beyond_the_window() {
        let mut t = Tombstones::default();
        for id in 0..(TOMBSTONE_WINDOW as u64 + 10) {
            t.insert(id);
        }
        assert!(!t.contains(0), "oldest ids age out");
        assert!(t.contains(TOMBSTONE_WINDOW as u64 + 9));
        assert_eq!(t.order.len(), TOMBSTONE_WINDOW);
    }
}
