//! The service itself: admission, the coalescing batcher thread, the
//! device-pool worker threads, and job completion tracking.
//!
//! # Determinism
//!
//! Workers run chunk batches in whatever order scheduling and stealing
//! produce, but every device runs a launch's work-groups in order on the
//! calling thread, so the entries each `(chunk, query)` pair yields are a
//! pure function of the inputs. Each scan position is owned by exactly one
//! chunk, so a job's records have unique `(chromosome, position, strand)`
//! keys and the final [`sort_canonical`] is a total normalizer: results are
//! byte-identical to the serial pipelines no matter how batches interleave.
//! The cached 2-bit and 4-bit payloads are lossless, and the packed/nibble
//! finders decode them on-device into matching-equivalent bytes of what the
//! char-path finder would have uploaded, so packing changes transfer
//! volume, never results.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cas_offinder::bulge::enumerate_variants;
use cas_offinder::kernels::specialize::global_cache;
use cas_offinder::kernels::VariantCacheStats;
use cas_offinder::pipeline::chunk::{Backend, ChunkRunner, OpenCl, Sites, Sycl};
use cas_offinder::pipeline::{entries_to_offtargets, PipelineConfig};
use cas_offinder::{sort_canonical, Api, OffTarget, OptLevel, Query, TimingBreakdown};
use genome::{Assembly, Chunker};
use gpu_sim::DeviceSpec;

use crate::batcher::{group_jobs, interleave_by_owner, BatchJob, ChunkBatch};
use crate::cache::{ChunkEncoding, ChunkKey, ChunkPayload, EncodedChunk, GenomeCache};
use crate::candidates::{CandidateCache, CandidateKey, CandidateLookup};
use crate::frontend::{Completion, CompletionHub, JobEntry, Poll, Ticket, WaitError};
use crate::job::{Job, JobId, JobSpec};
use crate::metrics::{
    busy_ns_from_s, load_report, LatencyWindows, MetricsReport, ServeMetrics, VariantReport,
    WindowReport,
};
use crate::queue::{FairJobQueue, QueueError};
use crate::results::{Admission, CanonicalSpec, ResultStore};
use crate::scheduler::{
    residency_token, BatchCost, DeviceModel, DevicePool, PayloadClass, Placement,
};
use crate::shard::ShardPlan;
use crate::tenant::{TenantConfig, TenantLedger, TenantTable};

/// One simulated device in the pool: a hardware spec plus the pipeline
/// flavour (OpenCL or SYCL) that drives it.
#[derive(Debug, Clone)]
pub struct DeviceSlot {
    /// Simulated hardware spec.
    pub spec: DeviceSpec,
    /// Which host pipeline runs on the device.
    pub api: Api,
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The device pool, one worker thread per slot.
    pub devices: Vec<DeviceSlot>,
    /// Owned scan positions per genome chunk.
    pub chunk_size: usize,
    /// Admission budget in estimated cost units (assembly bases × search
    /// variants, summed over queued jobs); submissions past it are
    /// rejected. Replaces a job-count cap: one whole-genome bulge sweep
    /// draws as much budget as the hundreds of small jobs it costs.
    pub queue_cost_limit: u64,
    /// Maximum jobs coalesced into one chunk batch.
    pub max_batch: usize,
    /// Genome-chunk cache budget, in resident payload bytes.
    pub cache_bytes: usize,
    /// How cached chunks (and uploads) are encoded; packed payloads cut
    /// upload bytes ~4x and fit ~2.7x more chunks in the same budget, and
    /// the adaptive default switches exception-dense chunks to 4-bit
    /// nibbles so none of them falls back to the char comparer.
    pub cache_encoding: ChunkEncoding,
    /// Comparer optimization stage.
    pub opt: OptLevel,
    /// How the dispatcher places batches on device queues.
    pub placement: Placement,
    /// Wall-clock seconds a worker holds each finished batch per simulated
    /// second of device time, so queue drain follows device speed instead
    /// of host speed. `0.0` (the default) disables pacing; measurement
    /// harnesses enable it so placement quality shows up in the makespan.
    pub pacing: f64,
    /// Chunk payloads each device keeps uploaded between batches, per
    /// encoding: the budget of the one resident store that every pattern
    /// on the device shares, counted in entries, each sized to its own
    /// payload. A batch landing on a device that still holds its chunk —
    /// for any pattern of the same length — skips the chunk upload
    /// entirely, and the scheduler prices (and steers) accordingly. `0`
    /// disables residency: every batch uploads its chunk.
    pub resident_chunks: usize,
    /// Byte budget of the content-addressed result cache. A repeat of an
    /// already-served spec is answered at submit time with zero kernel
    /// launches, and concurrent identical specs coalesce into one compute
    /// (single-flight). `0` disables result caching and coalescing.
    pub result_cache_bytes: usize,
    /// Run the chunk runners with JIT-specialized per-(pattern, threshold)
    /// kernel variants instead of the generic kernels. Variants constant-
    /// fold the query into immediates (smaller code, equal-or-better
    /// occupancy) and are cached process-wide, so a warm serving loop pays
    /// the specializing compile once per distinct (pattern, threshold,
    /// encoding). Results are byte-identical either way; the scheduler's
    /// cost model calibrates against whichever flavour runs.
    pub specialize: bool,
    /// Per-tenant QoS parameters: fair-queuing weights and in-flight cost
    /// quotas. Empty (the default) means single-tenant semantics — every
    /// tenant gets weight 1 and the queue cost budget is the only
    /// backpressure, exactly the pre-tenancy behaviour.
    pub tenants: Vec<TenantConfig>,
    /// Byte budget of the content-addressed candidate-site cache, keyed by
    /// (chunk content, compiled pattern, encoding). A chunk swept under a
    /// pattern it has already been swept under replays the cached finder
    /// output and skips the finder launch entirely — the fast path library
    /// screens lean on, since every per-guide unit search shares the same
    /// PAM pattern. `0` disables candidate caching.
    pub candidate_cache_bytes: usize,
    /// Fuse the per-query comparer launches of a coalesced batch into one
    /// multi-guide launch per guide block (up to
    /// [`cas_offinder::kernels::GUIDE_BLOCK`] guides each). Results are
    /// byte-identical to per-guide launches; the scheduler prices fused
    /// batches through the separately calibrated multi-guide rates.
    pub multi_guide: bool,
}

/// Bucket width of the windowed latency/queue-depth ring
/// ([`Service::latency_windows`]) — the cadence tail percentiles and
/// admitted/shed counts are reported at, and the natural sampling period
/// for an autoscaling controller watching them.
pub const METRICS_WINDOW: Duration = Duration::from_millis(250);

impl ServiceConfig {
    /// The paper's heterogeneous pool: Radeon VII and MI60 under OpenCL,
    /// MI60 and MI100 under SYCL — four devices mixing both pipelines.
    pub fn paper_pool() -> Self {
        ServiceConfig {
            devices: vec![
                DeviceSlot {
                    spec: DeviceSpec::radeon_vii(),
                    api: Api::OpenCl,
                },
                DeviceSlot {
                    spec: DeviceSpec::mi60(),
                    api: Api::OpenCl,
                },
                DeviceSlot {
                    spec: DeviceSpec::mi60(),
                    api: Api::Sycl,
                },
                DeviceSlot {
                    spec: DeviceSpec::mi100(),
                    api: Api::Sycl,
                },
            ],
            chunk_size: 1 << 13,
            queue_cost_limit: 10_000_000,
            max_batch: 8,
            cache_bytes: 1 << 19,
            cache_encoding: ChunkEncoding::Adaptive,
            opt: OptLevel::Base,
            placement: Placement::EarliestCompletion,
            pacing: 0.0,
            resident_chunks: 256,
            result_cache_bytes: 1 << 20,
            specialize: true,
            tenants: Vec::new(),
            candidate_cache_bytes: 1 << 20,
            multi_guide: true,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job was load-shed: the queue cost budget or the submitting
    /// tenant's in-flight quota is exhausted. `retry_after_cost` is how
    /// much cost must drain before an identical submission can succeed —
    /// a typed backoff hint instead of a blind "full".
    Shed {
        /// Cost units that must drain (the tenant's own for quota sheds,
        /// queue-wide for budget sheds) before retrying.
        retry_after_cost: u64,
    },
    /// The spec carried a deadline the calibrated device model predicts
    /// cannot be met given the work already in flight; the job is rejected
    /// up front instead of being admitted only to time out late.
    DeadlineInfeasible {
        /// The model's predicted completion latency for this job now.
        predicted: Duration,
    },
    /// The spec names an assembly the service does not serve.
    UnknownAssembly(String),
    /// The spec is malformed (empty pattern, guide/pattern length skew,
    /// unsupported bulge limits).
    BadJob(String),
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shed { retry_after_cost } => write!(
                f,
                "load shed: retry after {retry_after_cost} cost units drain"
            ),
            SubmitError::DeadlineInfeasible { predicted } => write!(
                f,
                "deadline infeasible: predicted completion in {predicted:?}"
            ),
            SubmitError::UnknownAssembly(name) => write!(f, "unknown assembly `{name}`"),
            SubmitError::BadJob(why) => write!(f, "bad job: {why}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Shared {
    config: ServiceConfig,
    assemblies: HashMap<String, Arc<Assembly>>,
    queue: FairJobQueue,
    pool: DevicePool,
    /// The pool's calibrated device models, kept service-side too: plan
    /// builds weight devices by them and pre-run makespan predictions
    /// price chunks through them.
    models: Vec<DeviceModel>,
    cache: GenomeCache,
    results: ResultStore,
    /// Content-addressed candidate-site cache shared by all workers;
    /// `None` when `candidate_cache_bytes` is 0.
    candidates: Option<Arc<CandidateCache>>,
    metrics: ServeMetrics,
    /// Snapshot of the process-wide variant cache's counters at service
    /// start; [`Service::metrics`] reports this service's deltas.
    variant_baseline: VariantCacheStats,
    /// Completion tracking: the job-entry map, the waiters' condvar, and
    /// the collected-id tombstones.
    hub: CompletionHub,
    /// Per-tenant admit/shed/goodput/latency accounting.
    ledger: TenantLedger,
    /// Resolved weights and quotas, for the per-tenant metrics rows.
    tenant_table: TenantTable,
    /// Pool-wide sustained throughput in cost units per simulated second;
    /// what deadline admission divides queued cost by.
    admission_rate: f64,
    /// Per-device sustained throughput in cost units per simulated
    /// second — [`Shared::admission_rate`]'s addends, kept apart so
    /// predictions can re-sum over whichever devices are active when the
    /// fleet scales.
    device_rates: Vec<f64>,
    /// When the service started; every windowed-metrics timestamp is
    /// nanoseconds since this instant.
    started: Instant,
    /// Time-bucketed latency/queue-depth ring behind
    /// [`Service::latency_windows`].
    windows: LatencyWindows,
}

impl Shared {
    /// Nanoseconds since the service started — the windowed ring's clock.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Pool throughput summed over the devices currently in the fleet —
    /// what predicted queue delay divides in-flight cost by. Falls back
    /// to the full-fleet rate if a racing scale event momentarily shows
    /// no active device.
    fn active_admission_rate(&self) -> f64 {
        let active = self.pool.active_snapshot();
        let rate: f64 = self
            .device_rates
            .iter()
            .zip(&active)
            .filter(|&(_, &a)| a)
            .map(|(r, _)| r)
            .sum();
        if rate > 0.0 {
            rate
        } else {
            self.admission_rate
        }
    }

    /// Simulated seconds mapped to wall clock through the pacing factor
    /// (without pacing the simulated devices complete at host speed, so
    /// simulated seconds are the honest unit either way).
    fn sim_to_wall(&self, sim_s: f64) -> f64 {
        if self.config.pacing > 0.0 {
            sim_s * self.config.pacing
        } else {
            sim_s
        }
    }

    /// Mark `entry` done and count the completion. Must be called with the
    /// hub's jobs lock held: a waiter can collect the records the moment
    /// the lock drops, so the completed-jobs counter has to be current by
    /// then — bumping it later (in [`Shared::settle`]) would let a caller
    /// observe its own finished job missing from the metrics.
    fn finish_entry(&self, entry: &mut JobEntry, id: JobId) -> Completion {
        self.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
        entry.finish(id)
    }

    /// Settle finished jobs' out-of-lock side effects, in order: release
    /// tenant quota (so admission unblocks first), account per-tenant
    /// goodput and deadline misses, fire registered completion callbacks,
    /// and finally wake blocking waiters. Must be called *without* the
    /// hub's jobs lock held.
    fn settle(&self, completions: Vec<Completion>) {
        if completions.is_empty() {
            return;
        }
        let now_ns = self.now_ns();
        for c in completions {
            if c.charged {
                self.queue.job_finished(c.tenant, c.cost);
            }
            if c.deadline_missed {
                self.metrics.deadline_misses.fetch_add(1, Ordering::Relaxed);
            }
            self.windows.note_completion(
                now_ns,
                u64::try_from(c.latency.as_nanos()).unwrap_or(u64::MAX),
            );
            self.ledger
                .completed(c.tenant, c.cost, c.latency, c.deadline_missed);
            if let Some(callback) = c.callback {
                callback(c.id);
            }
        }
        self.hub.done.notify_all();
    }

    /// Publish finished leaders' result sets to the result store and mark
    /// their merged followers done. `published` pairs each leader's
    /// `publish` key with its final (sorted) records; the jobs lock must
    /// NOT be held — the store lock is taken here and the jobs lock is
    /// re-taken per follower batch, never both orderings.
    fn fulfill_followers(&self, published: Vec<(CanonicalSpec, Vec<OffTarget>)>) {
        for (canon, records) in published {
            let followers = self.results.complete(&canon, &records);
            if followers.is_empty() {
                continue;
            }
            let mut completions = Vec::new();
            let mut entries = self.hub.jobs.lock().unwrap();
            for id in followers {
                if let Some(entry) = entries.get_mut(&id) {
                    entry.offtargets = records.clone();
                    completions.push(self.finish_entry(entry, id));
                }
            }
            drop(entries);
            self.settle(completions);
        }
    }
}

/// A running batch-search service over a fixed set of assemblies and a
/// fixed device pool.
pub struct Service {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start the service: spawns the batcher thread and one worker thread
    /// per device slot. Assemblies are keyed by their names.
    ///
    /// # Panics
    ///
    /// Panics if the config has no devices.
    pub fn start(config: ServiceConfig, assemblies: Vec<Assembly>) -> Service {
        assert!(
            !config.devices.is_empty(),
            "the pool needs at least one device"
        );
        let devices = config.devices.len();
        let models: Vec<DeviceModel> = config
            .devices
            .iter()
            .map(|slot| {
                DeviceModel::calibrated(
                    &slot.spec,
                    config.chunk_size,
                    config.opt,
                    config.specialize,
                    slot.api,
                )
            })
            .collect();
        // Pool-wide sustained throughput at this chunk size, for deadline
        // admission. Summed over devices: the pool really does serve
        // batches concurrently across all of them.
        let device_rates: Vec<f64> = models
            .iter()
            .map(|m| m.admission_units_per_s(config.chunk_size))
            .collect();
        let admission_rate: f64 = device_rates.iter().sum();
        let candidates = (config.candidate_cache_bytes > 0)
            .then(|| Arc::new(CandidateCache::new(config.candidate_cache_bytes)));
        let mut pool = DevicePool::new(models.clone(), config.placement, config.resident_chunks)
            .with_multi_guide(config.multi_guide);
        if let Some(cache) = &candidates {
            pool = pool.with_candidate_cache(Arc::clone(cache));
        }
        let shared = Arc::new(Shared {
            queue: FairJobQueue::new(config.queue_cost_limit, &config.tenants),
            pool,
            models,
            cache: GenomeCache::new(config.cache_bytes),
            results: ResultStore::new(config.result_cache_bytes),
            candidates,
            metrics: ServeMetrics::new(devices),
            variant_baseline: global_cache().stats(),
            assemblies: assemblies
                .into_iter()
                .map(|a| (a.name().to_string(), Arc::new(a)))
                .collect(),
            hub: CompletionHub::new(),
            ledger: TenantLedger::default(),
            tenant_table: TenantTable::resolve(&config.tenants, config.queue_cost_limit),
            admission_rate,
            device_rates,
            started: Instant::now(),
            // 4096 windows of 250ms cover a 17-minute run — far past any
            // harness — in a few hundred KB worst case.
            windows: LatencyWindows::new(METRICS_WINDOW, 4096),
            config,
        });
        // Planned placement partitions every registered assembly's chunk
        // space across the fleet up front, before any batch is formed.
        if shared.config.placement == Placement::Planned {
            shared.pool.install_plan(Arc::new(build_plan(
                &shared.models,
                &vec![true; devices],
                shared.config.chunk_size,
                &shared.assemblies,
            )));
        }

        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared))
        };
        let workers = (0..devices)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || match shared.config.devices[w].api {
                    Api::OpenCl => worker_loop::<OpenCl>(&shared, w),
                    Api::Sycl => worker_loop::<Sycl>(&shared, w),
                })
            })
            .collect();

        Service {
            shared,
            next_id: AtomicU64::new(0),
            batcher: Some(batcher),
            workers,
        }
    }

    /// Submit a job; on success the returned id can be passed to
    /// [`Service::wait`], [`Service::poll`], or [`Service::on_complete`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_ticket(spec).map(|ticket| ticket.id)
    }

    /// Submit a job and get the full admission receipt: the job id plus
    /// the tenant, admitted cost, and deadline the QoS layer charged it
    /// under — everything a front end needs to poll for completion and to
    /// back off intelligently when a later submission sheds.
    pub fn submit_ticket(&self, spec: JobSpec) -> Result<Ticket, SubmitError> {
        if let Err(why) = validate(&spec) {
            self.shared
                .metrics
                .jobs_rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(why);
        }
        let Some(assembly) = self.shared.assemblies.get(&spec.assembly) else {
            self.shared
                .metrics
                .jobs_rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::UnknownAssembly(spec.assembly));
        };

        // Estimated work: assembly bases × search variants. This is what
        // the admission queue's cost budget charges. Library screens pay
        // the full per-guide cost up front — the fused fast path makes
        // them cheaper to *run*, not cheaper to *admit*, so one tenant's
        // screen cannot crowd out others by under-billing.
        let variants = match (&spec.bulge, &spec.library) {
            (Some(limits), _) => {
                let query = Query::new(spec.guide.clone(), spec.max_mismatches);
                enumerate_variants(&spec.pattern, &query, *limits).len() as u64
            }
            (None, Some(guides)) => guides.len() as u64,
            (None, None) => 1,
        };
        let cost = assembly.total_len() as u64 * variants;
        let tenant = spec.tenant;
        let deadline = spec.deadline;

        // Deadline-aware admission: translate the work already in flight
        // plus this job into a predicted completion time through the
        // calibrated device models, and reject infeasible deadlines up
        // front instead of admitting work that can only time out late.
        if let Some(slo) = deadline {
            let predicted = self.predicted_completion(cost);
            if predicted > slo {
                self.shared
                    .metrics
                    .jobs_rejected_deadline
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::DeadlineInfeasible { predicted });
            }
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Content-addressed admission: a spec already served is answered
        // from the result cache without touching the queue, a spec already
        // computing merges onto its in-flight leader, and only a novel
        // spec enters the admission queue (inside the store lock, so a
        // racing duplicate either sees this leader or becomes one itself).
        let cached = (self.shared.config.result_cache_bytes > 0)
            .then(|| CanonicalSpec::new(&spec, self.shared.config.chunk_size));
        // The publish key is set optimistically before the job can reach
        // the queue: once `admit` enqueues it, a worker may finish the
        // whole batch before this thread runs again, and the completion
        // path must find the key in place. Hit/Merged admissions never
        // enqueue, so they clear it below.
        let entry = JobEntry::new(
            tenant,
            cost,
            deadline,
            spec.bulge.is_some() || spec.library.is_some(),
            cached.clone(),
        );
        self.shared.hub.register(id, entry);
        let admission = match &cached {
            Some(canon) => {
                let job = Job { id, spec, cost };
                self.shared
                    .results
                    .admit(canon, id, || self.shared.queue.try_submit(job))
            }
            None => self
                .shared
                .queue
                .try_submit(Job { id, spec, cost })
                .map(|()| Admission::Admitted),
        };
        let ticket = Ticket {
            id,
            tenant,
            cost,
            deadline,
        };
        match admission {
            Ok(Admission::Hit(records)) => {
                self.shared
                    .metrics
                    .jobs_admitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.ledger.admitted(tenant);
                self.shared.windows.note_admitted(self.shared.now_ns());
                let completion = {
                    let mut jobs = self.shared.hub.jobs.lock().unwrap();
                    let entry = jobs.get_mut(&id).expect("entry inserted above");
                    entry.offtargets = records;
                    entry.publish = None;
                    // A hit never entered the fair queue, so it holds no
                    // tenant quota to release.
                    entry.charged = false;
                    self.shared.finish_entry(entry, id)
                };
                self.shared.settle(vec![completion]);
                Ok(ticket)
            }
            Ok(Admission::Merged) => {
                let mut jobs = self.shared.hub.jobs.lock().unwrap();
                let entry = jobs.get_mut(&id).expect("entry inserted above");
                entry.publish = None;
                // Merged followers ride the leader's compute; they never
                // entered the queue and hold no quota.
                entry.charged = false;
                drop(jobs);
                self.shared
                    .metrics
                    .jobs_admitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.ledger.admitted(tenant);
                self.shared.windows.note_admitted(self.shared.now_ns());
                Ok(ticket)
            }
            Ok(Admission::Admitted) => {
                self.shared
                    .metrics
                    .jobs_admitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.ledger.admitted(tenant);
                let now_ns = self.shared.now_ns();
                self.shared.windows.note_admitted(now_ns);
                // Only genuinely enqueued jobs move the depth gauge.
                self.shared
                    .windows
                    .note_depth(now_ns, self.shared.queue.depth());
                Ok(ticket)
            }
            Err(err) => {
                self.shared.hub.discard(id);
                match err {
                    QueueError::Shed { retry_after_cost } => {
                        self.shared
                            .metrics
                            .jobs_shed
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared.ledger.shed(tenant);
                        self.shared.windows.note_shed(self.shared.now_ns());
                        Err(SubmitError::Shed { retry_after_cost })
                    }
                    QueueError::Closed => Err(SubmitError::ShuttingDown),
                }
            }
        }
    }

    /// Predicted completion latency of a `cost`-unit job admitted now:
    /// everything in flight plus the job itself, drained at the
    /// calibrated aggregate rate of the *currently active* devices (a
    /// scaled-down pool honestly predicts longer waits), mapped to wall
    /// clock through the pacing factor.
    fn predicted_completion(&self, cost: u64) -> Duration {
        let pending = self.shared.queue.inflight_cost().saturating_add(cost);
        let sim_s = pending as f64 / self.shared.active_admission_rate().max(1e-12);
        Duration::from_secs_f64(self.shared.sim_to_wall(sim_s).min(1e9))
    }

    /// Predicted queue delay if a zero-cost probe were admitted now: the
    /// in-flight backlog drained at the active fleet's calibrated rate.
    /// This is the signal the autoscaling controller windows into a
    /// predicted p99 and compares against its SLO — it moves *before*
    /// completion latencies do, which is what makes scale-up reactive
    /// rather than post-hoc.
    pub fn predicted_queue_delay(&self) -> Duration {
        let sim_s = self.shared.queue.inflight_cost() as f64
            / self.shared.active_admission_rate().max(1e-12);
        Duration::from_secs_f64(self.shared.sim_to_wall(sim_s).min(1e9))
    }

    /// Block until job `id` completes and take its records (canonically
    /// sorted, byte-identical to a serial run of the same query; for bulge
    /// jobs, the sorted deduplicated union over all variants). A thin
    /// wrapper over the non-blocking front end: the first successful
    /// collect takes the records, after which the id reports
    /// [`WaitError::Collected`]; ids never admitted report
    /// [`WaitError::UnknownJob`].
    pub fn wait(&self, id: JobId) -> Result<Vec<OffTarget>, WaitError> {
        self.shared.hub.wait(id, || {
            self.shared
                .metrics
                .blocking_waits
                .fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Non-blocking completion check: [`Poll::Ready`] hands the records
    /// over exactly once, [`Poll::Pending`] means the job is still
    /// computing. Never parks the calling thread.
    pub fn poll(&self, id: JobId) -> Result<Poll, WaitError> {
        self.shared.hub.poll(id)
    }

    /// Register a completion waker for job `id`, invoked exactly once from
    /// the completion path, outside every service lock. Runs immediately
    /// if the job already finished (but was not yet collected); a later
    /// registration replaces an earlier one. Std-only and runtime-
    /// agnostic: an async executor wakes its task here, a reactor writes
    /// its response, a test counts completions.
    pub fn on_complete(
        &self,
        id: JobId,
        callback: impl FnOnce(JobId) + Send + 'static,
    ) -> Result<(), WaitError> {
        self.shared.hub.on_complete(id, Box::new(callback))
    }

    /// A point-in-time snapshot of the service's counters.
    pub fn metrics(&self) -> MetricsReport {
        let names: Vec<(String, String)> = self
            .shared
            .config
            .devices
            .iter()
            .map(|slot| (slot.spec.name.to_string(), slot.api.to_string()))
            .collect();
        let (sheds_quota, sheds_budget) = self.shared.queue.shed_counts();
        load_report(
            &self.shared.metrics,
            &names,
            crate::metrics::QueueView {
                depth: self.shared.queue.depth(),
                depth_high_water: self.shared.queue.depth_high_water(),
                sheds_quota,
                sheds_budget,
                tenants: self.shared.ledger.report(&self.shared.tenant_table),
            },
            {
                let (planned_hits, spill_fallbacks) = self.shared.pool.plan_counters();
                crate::metrics::PlanView {
                    planned_hits,
                    spill_fallbacks,
                }
            },
            VariantReport::delta(&self.shared.variant_baseline, &global_cache().stats()),
            self.shared.cache.stats(),
            self.shared.results.stats(),
            self.shared
                .candidates
                .as_ref()
                .map(|c| c.stats())
                .unwrap_or_default(),
        )
    }

    /// The installed chunk→device placement plan, if the service runs
    /// under [`Placement::Planned`].
    pub fn plan(&self) -> Option<Arc<ShardPlan>> {
        self.shared.pool.plan_snapshot()
    }

    /// Jobs sitting in the admission queue right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Snapshot of the windowed latency/queue-depth ring, oldest window
    /// first: per-window admitted/shed/completed counts, max observed
    /// queue depth, and completion-latency percentiles.
    pub fn latency_windows(&self) -> Vec<WindowReport> {
        self.shared.windows.reports()
    }

    /// Nearest-rank completion-latency quantile over every window the
    /// ring retains.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.shared.windows.latency_quantile_ns(q))
    }

    /// Fraction of retained completions that finished slower than `slo`.
    pub fn slo_violation_rate(&self, slo: Duration) -> f64 {
        self.shared
            .windows
            .violation_rate(u64::try_from(slo.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Each device's calibrated sustained throughput in admission cost
    /// units per simulated second — what an external controller needs to
    /// predict the queue delay of hypothetical fleets before committing
    /// to a scale event.
    pub fn device_admission_rates(&self) -> Vec<f64> {
        self.shared.device_rates.clone()
    }

    /// Per-device fleet membership right now.
    pub fn active_devices(&self) -> Vec<bool> {
        self.shared.pool.active_snapshot()
    }

    /// Batches queued per device right now (running batches excluded).
    pub fn device_queue_depths(&self) -> Vec<usize> {
        self.shared.pool.queue_depths()
    }

    /// Summed admission cost of admitted-but-unfinished jobs.
    pub fn inflight_cost(&self) -> u64 {
        self.shared.queue.inflight_cost()
    }

    /// The configured wall-seconds-per-simulated-second pacing factor
    /// (`0.0` when pacing is off and simulated seconds pass at host
    /// speed).
    pub fn pacing(&self) -> f64 {
        self.shared.config.pacing
    }

    /// Mark a device in or out of the fleet. Out-of-fleet devices take no
    /// new placements (their queued batches still drain), and under
    /// [`Placement::Planned`] the plan is recomputed with the departed
    /// device's weight zeroed — range cuts shift only at partition edges
    /// and unregistered assemblies re-hash per chunk, so only chunks whose
    /// owner actually changed migrate. Returns that migration count (0
    /// without an installed plan).
    ///
    /// # Panics
    ///
    /// Panics if the call would deactivate the last active device.
    pub fn set_device_active(&self, device: usize, active: bool) -> usize {
        self.shared.pool.set_active(device, active);
        let Some(old) = self.shared.pool.plan_snapshot() else {
            return 0;
        };
        let fleet = self.shared.pool.active_snapshot();
        let new = Arc::new(build_plan(
            &self.shared.models,
            &fleet,
            self.shared.config.chunk_size,
            &self.shared.assemblies,
        ));
        let migrated = new.migrated_from(&old);
        self.shared.pool.install_plan(new);
        self.shared
            .metrics
            .migrated_chunks
            .fetch_add(migrated as u64, Ordering::Relaxed);
        migrated
    }

    /// Predicted per-device busy seconds for `passes` single-job scans of
    /// `assembly` under `pattern`, with every chunk running on the device
    /// the installed plan assigns it — the pre-run makespan estimate the
    /// sharding harness holds dispatch accountable to. `resident` prices
    /// chunks as already uploaded to their owners (the post-warmup steady
    /// state). Chunks are costed from their cached encoding where present,
    /// else from a throwaway encode of the same bytes. `None` without a
    /// plan or for an unknown assembly.
    pub fn plan_scan_prediction(
        &self,
        assembly: &str,
        pattern: &[u8],
        passes: usize,
        resident: bool,
    ) -> Option<Vec<f64>> {
        let bias = self.shared.pool.bias_snapshot();
        let plan = self.shared.pool.plan_snapshot()?;
        let asm = self.shared.assemblies.get(assembly)?;
        let plen = pattern.len();
        let mut busy = vec![0.0; self.shared.models.len()];
        for (index, chunk) in Chunker::new(asm, self.shared.config.chunk_size, plen).enumerate() {
            if chunk.seq.len() < plen {
                continue;
            }
            let owner = plan.owner_of(assembly, index);
            let cache_key = ChunkKey {
                assembly: assembly.to_string(),
                plen,
                index,
            };
            let encoded = self.shared.cache.peek(&cache_key).unwrap_or_else(|| {
                Arc::new(EncodedChunk::encode(
                    chunk.chrom_index,
                    chunk.chrom_name.to_string(),
                    chunk.start,
                    chunk.scan_len,
                    chunk.seq,
                    self.shared.config.cache_encoding,
                ))
            });
            let cost = BatchCost::from_parts(pattern, &encoded, 1, residency_token(&cache_key));
            busy[owner] += passes as f64
                * bias[owner][cost.class.index()]
                * self.shared.models[owner].predict_s(&cost, resident);
        }
        Some(busy)
    }

    /// The scheduler's current bias corrections, per device (outer) and
    /// payload class (inner: raw, packed 2-bit, packed char, nibble,
    /// multi-guide): the dimensionless measured/predicted EWMA each
    /// completion folds into the calibrated model. Surfaced so harnesses
    /// can report how far the operational correction has drifted from the
    /// calibrated prior.
    pub fn bias_corrections(&self) -> Vec<[f64; PayloadClass::COUNT]> {
        self.shared.pool.bias_snapshot()
    }

    /// Stop admissions, drain queued work, and join all service threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.queue.close();
        if let Some(batcher) = self.batcher.take() {
            batcher.join().expect("batcher thread panicked");
        }
        self.shared.pool.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Build a placement plan over the registered assemblies: each device is
/// weighted by its calibrated sustained admission throughput at the
/// service chunk size (zeroed while out of the fleet), each assembly
/// contributes its chunk count at that size. Assemblies are registered in
/// sorted name order so the plan is a deterministic function of the fleet
/// and the genome set, not of hash-map iteration order.
fn build_plan(
    models: &[DeviceModel],
    active: &[bool],
    chunk_size: usize,
    assemblies: &HashMap<String, Arc<Assembly>>,
) -> ShardPlan {
    let weights: Vec<f64> = models
        .iter()
        .zip(active)
        .map(|(m, &a)| {
            if a {
                m.admission_units_per_s(chunk_size)
            } else {
                0.0
            }
        })
        .collect();
    let mut counts: Vec<(String, usize)> = assemblies
        .iter()
        .map(|(name, asm)| {
            (
                name.clone(),
                Chunker::new(asm, chunk_size, 0).count_chunks(),
            )
        })
        .collect();
    counts.sort();
    ShardPlan::build(&weights, &counts)
}

/// Structural spec validation (everything except assembly lookup).
fn validate(spec: &JobSpec) -> Result<(), SubmitError> {
    if spec.pattern.is_empty() {
        return Err(SubmitError::BadJob("empty pattern".into()));
    }
    if let Some(guides) = &spec.library {
        if guides.is_empty() {
            return Err(SubmitError::BadJob("empty guide library".into()));
        }
        if spec.bulge.is_some() {
            return Err(SubmitError::BadJob(
                "library screens cannot combine with bulge search".into(),
            ));
        }
        for (i, guide) in guides.iter().enumerate() {
            if guide.len() != spec.pattern.len() {
                return Err(SubmitError::BadJob(format!(
                    "library guide {i} length {} != pattern length {}",
                    guide.len(),
                    spec.pattern.len()
                )));
            }
        }
    } else if spec.guide.len() != spec.pattern.len() {
        return Err(SubmitError::BadJob(format!(
            "guide length {} != pattern length {}",
            spec.guide.len(),
            spec.pattern.len()
        )));
    }
    if let Some(limits) = spec.bulge {
        let spacer = spec.guide.iter().take_while(|&&c| c != b'N').count();
        if spacer < 2 {
            return Err(SubmitError::BadJob(format!(
                "bulge search needs a spacer of at least 2 non-N guide bases, got {spacer}"
            )));
        }
        if limits.max_rna as usize >= spacer {
            return Err(SubmitError::BadJob(format!(
                "max_rna bulge size {} must be smaller than the {spacer}-base spacer",
                limits.max_rna
            )));
        }
    }
    Ok(())
}

/// The batcher thread: drain admitted jobs, expand bulge jobs into
/// per-variant unit searches, coalesce, plan chunk tasks through the
/// cache, and dispatch to the pool (blocking on in-flight limits, which is
/// what propagates backpressure to the admission queue).
fn batcher_loop(shared: &Shared) {
    // How many queued jobs to drain opportunistically per round; bounds the
    // latency a queued job can sit waiting for co-batchable company.
    const DRAIN: usize = 64;
    while let Some(first) = shared.queue.pop() {
        let mut round = vec![first];
        while round.len() < DRAIN {
            match shared.queue.try_pop() {
                Some(job) => round.push(job),
                None => break,
            }
        }
        // Sample the depth on the drain side too, so windows see troughs
        // even when nothing is being submitted.
        shared
            .windows
            .note_depth(shared.now_ns(), shared.queue.depth());

        // Bulge and library expansion: each variant (or library guide) is
        // an independent plain search under its own (pattern, guide);
        // workers fold every unit's records into the owning job's entry.
        // Library units all share the screen's PAM pattern, so they group
        // into the same (assembly, pattern) batches as each other — and as
        // any concurrent plain or bulge units under that pattern — sharing
        // one chunk upload, one finder pass, and fused comparer launches.
        let mut units: Vec<Job> = Vec::new();
        for job in round {
            if let Some(limits) = job.spec.bulge {
                let query = Query::new(job.spec.guide.clone(), job.spec.max_mismatches);
                for v in enumerate_variants(&job.spec.pattern, &query, limits) {
                    let mut spec = job.spec.clone();
                    spec.pattern = v.pattern;
                    spec.guide = v.query;
                    spec.bulge = None;
                    units.push(Job {
                        id: job.id,
                        spec,
                        cost: 0,
                    });
                }
            } else if let Some(guides) = job.spec.library.clone() {
                for guide in guides {
                    let mut spec = job.spec.clone();
                    spec.guide = guide;
                    spec.library = None;
                    units.push(Job {
                        id: job.id,
                        spec,
                        cost: 0,
                    });
                }
            } else {
                units.push(job);
            }
        }

        // Plan every group in the round before publishing any `remaining`
        // count: a bulge job's variants land in several groups (bulged
        // patterns differ in length), and its count must cover all of them
        // before the first batch can complete on a worker. `remaining`
        // counts memberships — a job appearing twice in one batch (two
        // variants sharing a pattern) is decremented twice by it.
        let mut per_job_memberships: HashMap<JobId, usize> =
            units.iter().map(|j| (j.id, 0)).collect();
        let mut round_batches: Vec<ChunkBatch> = Vec::new();
        for (key, jobs) in group_jobs(units, shared.config.max_batch) {
            let assembly = Arc::clone(&shared.assemblies[&key.assembly]);
            let plen = key.pattern.len();
            let members: Vec<BatchJob> = jobs
                .iter()
                .map(|job| BatchJob {
                    id: job.id,
                    query: Query::new(job.spec.guide.clone(), job.spec.max_mismatches),
                })
                .collect();

            let mut batches = Vec::new();
            for (index, chunk) in
                Chunker::new(&assembly, shared.config.chunk_size, plen).enumerate()
            {
                if chunk.seq.len() < plen {
                    continue;
                }
                let cache_key = ChunkKey {
                    assembly: key.assembly.clone(),
                    plen,
                    index,
                };
                let encoded = shared.cache.get_or_insert_with(&cache_key, || {
                    EncodedChunk::encode(
                        chunk.chrom_index,
                        chunk.chrom_name.to_string(),
                        chunk.start,
                        chunk.scan_len,
                        chunk.seq,
                        shared.config.cache_encoding,
                    )
                });
                batches.push(ChunkBatch {
                    key: key.clone(),
                    chunk_index: index,
                    chunk: encoded,
                    jobs: members.clone(),
                });
            }
            for job in &jobs {
                *per_job_memberships
                    .get_mut(&job.id)
                    .expect("every unit was registered") += batches.len();
            }
            round_batches.extend(batches);
        }

        let mut published: Vec<(CanonicalSpec, Vec<OffTarget>)> = Vec::new();
        let mut completions = Vec::new();
        {
            let mut entries = shared.hub.jobs.lock().unwrap();
            for (&id, &count) in &per_job_memberships {
                if let Some(entry) = entries.get_mut(&id) {
                    entry.remaining = Some(count);
                    if count == 0 {
                        if let Some(key) = entry.publish.take() {
                            published.push((key, entry.offtargets.clone()));
                        }
                        completions.push(shared.finish_entry(entry, id));
                    }
                }
            }
        }
        shared.settle(completions);
        // An empty plan (pattern longer than every chromosome) is still a
        // result set: cache it and complete any merged duplicates.
        shared.fulfill_followers(published);

        // Planned placement: spread each owner's batches evenly across the
        // round so no device's in-flight window fills while siblings idle.
        let round_batches = match (shared.config.placement, shared.pool.plan_snapshot()) {
            (Placement::Planned, Some(plan)) => interleave_by_owner(round_batches, &plan),
            _ => round_batches,
        };

        for batch in round_batches {
            shared
                .metrics
                .batches_formed
                .fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .coalesced_jobs
                .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
            shared.pool.dispatch(batch);
        }
    }
}

/// One serving worker over the `B` backend. Its one chunk runner is built
/// inside the thread that drives it (device contexts are not `Send`) on the
/// first batch, so later batches skip steps 1-8, and it serves every PAM
/// pattern: the device keeps one resident store all patterns share.
fn worker_loop<B: Backend>(shared: &Shared, w: usize) {
    let slot = &shared.config.devices[w];
    let pipeline_config = PipelineConfig::new(slot.spec.clone())
        .chunk_size(shared.config.chunk_size)
        .opt(shared.config.opt)
        .resident_slots(shared.config.resident_chunks.max(1))
        .specialize(shared.config.specialize)
        .multi_guide(shared.config.multi_guide);
    let mut runner: Option<ChunkRunner<B>> = None;
    // (pattern length, assembly) pairs whose planned partition this worker
    // has already warmed — the one-pass prefetch runs on first touch only,
    // and patterns of one length share the chunks it uploads.
    let mut prefetched: HashSet<(usize, String)> = HashSet::new();
    let mut timing = TimingBreakdown::default();
    let mut profile = gpu_sim::profile::Profile::new();
    let device = &shared.metrics.devices[w];

    while let Some(assignment) = shared.pool.next(w) {
        let started = std::time::Instant::now();
        let batch = assignment.batch;
        device.batches.fetch_add(1, Ordering::Relaxed);
        if assignment.stolen {
            device.steals.fetch_add(1, Ordering::Relaxed);
        }

        const SETUP: &str = "simulated setup cannot fail on valid patterns";
        let runner = runner.get_or_insert_with(|| {
            ChunkRunner::new(&pipeline_config, &batch.key.pattern).expect(SETUP)
        });
        let queries: Vec<Query> = batch.jobs.iter().map(|job| job.query.clone()).collect();
        let plen = batch.key.pattern.len();
        let busy_before = runner.elapsed_s();
        // Preparing the tables builds the pattern's device state on its
        // first batch, so the runner knows its length before a warmup.
        let tables = runner
            .tables_for(&batch.key.pattern, &queries)
            .expect(SETUP);
        // One-pass warmup: on this worker's first batch of an (assembly,
        // pattern length), upload its whole planned partition into the
        // runner's resident store up front instead of demand-missing chunk
        // by chunk. The uploads bill the device's busy time (they are real
        // transfers) but sit outside the per-batch prediction window —
        // dispatch prices warmed batches as resident, not as paying them.
        let mut warmup_s = 0.0;
        if shared.config.resident_chunks > 0
            && shared.config.placement == Placement::Planned
            && prefetched.insert((plen, batch.key.assembly.clone()))
        {
            if let Some(plan) = shared.pool.plan_snapshot() {
                let before = runner.elapsed_s();
                prefetch_partition(shared, w, runner, &plan, &batch.key.assembly, plen);
                warmup_s = (runner.elapsed_s() - before).max(0.0);
                device
                    .busy_ns
                    .fetch_add(busy_ns_from_s(warmup_s), Ordering::Relaxed);
            }
        }
        // With residency enabled, batches run through the runner's resident
        // entry points: the runner checks the chunk's token against its
        // resident store and skips the chunk upload on a match. `reused` is
        // the runner's verdict (ground truth), not the scheduler's guess.
        let chunk_token = residency_token(&batch.chunk_key());
        let token = (shared.config.resident_chunks > 0).then_some(chunk_token);
        let scan_len = batch.chunk.scan_len;
        // Candidate-cache flow: a chunk already swept under this pattern
        // replays its cached finder output (`Hit`) instead of launching
        // the finder; a first sweep (`Lead`) captures the finder's list and
        // publishes it for every later sweep.
        let candidate_cache = shared
            .candidates
            .as_ref()
            .map(|cache| (cache, CandidateKey::of(&batch.key.pattern, &batch.chunk)));
        let mut cached_sites = None;
        let mut lead = false;
        if let Some((cache, key)) = &candidate_cache {
            match cache.lookup_or_lead(key) {
                // Only replay a list the dispatcher *priced*: a lead that
                // published between the dispatch peek and this lookup is
                // declined (the finder re-runs at the cost the batch was
                // predicted at) so measured time tracks predicted time.
                CandidateLookup::Hit(sites) if assignment.finder_cached => {
                    cached_sites = Some(sites);
                }
                CandidateLookup::Hit(_) => {}
                CandidateLookup::Lead => lead = true,
            }
        }
        let launches_before = (
            timing.finder_launches,
            timing.finder_launches_skipped,
            timing.comparer_launches,
            timing.fused_launches,
        );
        // A replay tracks the chunk by token, so it always gets the real
        // token: repeat sweeps then also skip the chunk upload when the
        // payload is still on-device.
        let (run_token, sites) = match &cached_sites {
            Some(list) => (Some(chunk_token), Sites::Replay(list)),
            None if lead => (token, Sites::Capture),
            None => (token, Sites::Find),
        };
        let run = runner
            .run(
                batch.chunk.payload().as_payload(),
                scan_len,
                run_token,
                sites,
                &tables,
                &mut timing,
                &mut profile,
            )
            .expect("simulated launch cannot fail");
        tables.release();
        if lead {
            let (cache, key) = candidate_cache.as_ref().expect("lead implies a cache");
            match run.captured {
                Some(list) => cache.publish(key, Arc::new(list)),
                None => cache.abandon(key),
            }
        }
        let (per_query, reused) = (run.per_query, token.map(|_| run.reused));
        shared.metrics.finder_launches.fetch_add(
            (timing.finder_launches - launches_before.0) as u64,
            Ordering::Relaxed,
        );
        shared.metrics.finder_launches_skipped.fetch_add(
            (timing.finder_launches_skipped - launches_before.1) as u64,
            Ordering::Relaxed,
        );
        shared.metrics.comparer_launches.fetch_add(
            (timing.comparer_launches - launches_before.2) as u64,
            Ordering::Relaxed,
        );
        shared.metrics.fused_launches.fetch_add(
            (timing.fused_launches - launches_before.3) as u64,
            Ordering::Relaxed,
        );
        // Which comparer the payload selected: raw chunks are the only
        // ones the char comparer reads.
        let comparer_counter = match batch.chunk.payload() {
            ChunkPayload::Nibble(_) => &shared.metrics.comparer_4bit_batches,
            ChunkPayload::Packed(_) => &shared.metrics.comparer_2bit_batches,
            ChunkPayload::Raw(_) => &shared.metrics.comparer_char_batches,
        };
        comparer_counter.fetch_add(1, Ordering::Relaxed);
        if let Some(reused) = reused {
            let counter = if reused {
                &device.resident_hits
            } else {
                &device.resident_misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let busy_delta = (runner.elapsed_s() - busy_before - warmup_s).max(0.0);
        device
            .busy_ns
            .fetch_add(busy_ns_from_s(busy_delta), Ordering::Relaxed);
        device
            .predicted_ns
            .fetch_add(busy_ns_from_s(assignment.predicted_s), Ordering::Relaxed);
        device.prediction_abs_err_ns.fetch_add(
            busy_ns_from_s((assignment.predicted_s - busy_delta).abs()),
            Ordering::Relaxed,
        );
        if shared.config.pacing > 0.0 {
            let hold = std::time::Duration::from_secs_f64(busy_delta * shared.config.pacing);
            let elapsed = started.elapsed();
            if hold > elapsed {
                std::thread::sleep(hold - elapsed);
            }
        }
        shared.pool.complete(
            w,
            assignment.class,
            assignment.predicted_s,
            assignment.model_s,
            busy_delta,
        );

        // Traffic is a per-device gauge: the runner's device counters.
        let traffic = runner.traffic();
        device
            .kernel_launches
            .store(traffic.kernel_launches, Ordering::Relaxed);
        device.h2d_bytes.store(traffic.h2d_bytes, Ordering::Relaxed);
        device.d2h_bytes.store(traffic.d2h_bytes, Ordering::Relaxed);
        device
            .h2d_skipped_bytes
            .store(traffic.h2d_skipped_bytes, Ordering::Relaxed);

        // Fold each job's entries into its record set; the last chunk of a
        // job sorts and publishes. Record extraction decodes only the hit
        // windows, losslessly, so it sees the original bytes.
        let mut published: Vec<(CanonicalSpec, Vec<OffTarget>)> = Vec::new();
        let mut completions = Vec::new();
        let mut entries = shared.hub.jobs.lock().unwrap();
        for (member, member_entries) in batch.jobs.iter().zip(&per_query) {
            let Some(entry) = entries.get_mut(&member.id) else {
                continue;
            };
            entries_to_offtargets(
                &*batch.chunk,
                &member.query.seq,
                plen,
                member_entries,
                &mut entry.offtargets,
            );
            let remaining = entry
                .remaining
                .as_mut()
                .expect("batcher planned the job before dispatch");
            *remaining -= 1;
            if *remaining == 0 {
                sort_canonical(&mut entry.offtargets);
                if entry.dedup {
                    entry.offtargets.dedup();
                }
                if let Some(key) = entry.publish.take() {
                    published.push((key, entry.offtargets.clone()));
                }
                completions.push(shared.finish_entry(entry, member.id));
            }
        }
        drop(entries);
        // Outside the jobs lock: release quotas, account the tenants, fire
        // callbacks, then cache the finished leaders' records and complete
        // any duplicates that merged onto them while computing.
        shared.settle(completions);
        shared.fulfill_followers(published);
    }
}

/// Upload every chunk of `assembly`, sliced for patterns of `plen` bases,
/// that `plan` assigns to worker `w` into `runner`'s resident store — one
/// sequential pass over the partition — and mirror each token into the
/// scheduler's residency prediction so planned batches get priced with the
/// discount the runner will deliver. Chunks already resident (a warm
/// runner, or a re-warm after plan recompute) are skipped without
/// re-uploading; only real transfers count toward the prefetch metric.
fn prefetch_partition<B: Backend>(
    shared: &Shared,
    w: usize,
    runner: &ChunkRunner<B>,
    plan: &ShardPlan,
    name: &str,
    plen: usize,
) {
    let Some(assembly) = shared.assemblies.get(name) else {
        return;
    };
    let mut uploads = 0u64;
    for (index, chunk) in Chunker::new(assembly, shared.config.chunk_size, plen).enumerate() {
        if chunk.seq.len() < plen || plan.owner_of(name, index) != w {
            continue;
        }
        let cache_key = ChunkKey {
            assembly: name.to_string(),
            plen,
            index,
        };
        let encoded = shared.cache.get_or_insert_with(&cache_key, || {
            EncodedChunk::encode(
                chunk.chrom_index,
                chunk.chrom_name.to_string(),
                chunk.start,
                chunk.scan_len,
                chunk.seq,
                shared.config.cache_encoding,
            )
        });
        let token = residency_token(&cache_key);
        let uploaded = runner.prefetch(token, encoded.payload().as_payload());
        if uploaded.expect("simulated prefetch cannot fail") {
            uploads += 1;
        }
        shared.pool.note_resident(w, token);
    }
    shared
        .metrics
        .prefetch_uploads
        .fetch_add(uploads, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cas_offinder::bulge::BulgeLimits;
    use genome::Chromosome;

    fn toy_assembly() -> Assembly {
        let mut asm = Assembly::new("toy");
        asm.push(Chromosome::new(
            "chr1",
            b"ACGTACGTAGGTTTACGTACGAAGCCCCCACGTACGTCGGACGTTAGGTACCGGTTAACCGG".to_vec(),
        ));
        asm.push(Chromosome::new(
            "chr2",
            b"TTTACGTACGAAGCCCCCACGTACGTCGGACGTACGTAGG".to_vec(),
        ));
        asm
    }

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            chunk_size: 16,
            queue_cost_limit: 1_000_000,
            cache_bytes: 4096,
            ..ServiceConfig::paper_pool()
        }
    }

    fn plain_oracle(
        assembly: &Assembly,
        pattern: &[u8],
        guide: &[u8],
        max_mismatches: u16,
    ) -> Vec<OffTarget> {
        let mut text = String::new();
        text.push_str("toy\n");
        text.push_str(std::str::from_utf8(pattern).unwrap());
        text.push('\n');
        text.push_str(std::str::from_utf8(guide).unwrap());
        text.push(' ');
        text.push_str(&max_mismatches.to_string());
        text.push('\n');
        let input = cas_offinder::SearchInput::parse(&text).unwrap();
        cas_offinder::cpu::search_sequential(assembly, &input)
    }

    fn serial_oracle(assembly: &Assembly, spec: &JobSpec) -> Vec<OffTarget> {
        plain_oracle(assembly, &spec.pattern, &spec.guide, spec.max_mismatches)
    }

    /// Twelve *distinct* guides — with result-level dedup on by default, a
    /// repeated spec would be served from the cache instead of coalescing
    /// into batches, which is exercised separately below.
    fn distinct_specs(n: usize) -> Vec<JobSpec> {
        let bases = [b'A', b'C', b'G', b'T'];
        (0..n)
            .map(|i| {
                let mut guide = b"ACGTACGTNNN".to_vec();
                guide[0] = bases[i % 4];
                guide[1] = bases[(i / 4) % 4];
                JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), guide, 3)
            })
            .collect()
    }

    #[test]
    fn served_results_match_the_serial_oracle() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let assembly = toy_assembly();
        let specs = distinct_specs(12);
        let ids: Vec<JobId> = specs
            .iter()
            .map(|s| service.submit(s.clone()).unwrap())
            .collect();
        for (id, spec) in ids.iter().zip(&specs) {
            let got = service.wait(*id).unwrap();
            assert_eq!(got, serial_oracle(&assembly, spec));
        }
        let report = service.metrics();
        assert_eq!(report.jobs_completed, 12);
        assert!(report.coalescing_ratio() > 1.0, "{report}");
        assert!(report.cache_hit_rate() > 0.0, "{report}");
        assert!(report.cache.bytes_resident > 0, "{report}");
        service.shutdown();
    }

    #[test]
    fn raw_encoding_serves_identical_results_with_more_upload_bytes() {
        // One device, so both services run the same batches on the same
        // runner and the traffic totals differ only by chunk encoding.
        let mut config = small_config();
        config.devices.truncate(1);
        let packed = Service::start(config.clone(), vec![toy_assembly()]);
        let raw = Service::start(
            ServiceConfig {
                cache_encoding: ChunkEncoding::Raw,
                ..config
            },
            vec![toy_assembly()],
        );
        let spec = JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACGTACGTNNN".to_vec(), 3);
        let a = packed.submit(spec.clone()).unwrap();
        let b = raw.submit(spec).unwrap();
        let from_packed = packed.wait(a).unwrap();
        let from_raw = raw.wait(b).unwrap();
        assert_eq!(from_packed, from_raw, "encoding never changes results");
        let up_packed: u64 = packed.metrics().devices.iter().map(|d| d.h2d_bytes).sum();
        let up_raw: u64 = raw.metrics().devices.iter().map(|d| d.h2d_bytes).sum();
        assert!(
            up_packed < up_raw,
            "packed uploads must be smaller: {up_packed} vs {up_raw}"
        );
    }

    #[test]
    fn repeat_chunks_reuse_resident_payloads_and_skip_uploads() {
        // One device and a residency budget covering the whole toy genome;
        // the result cache is off so the repeat spec really recomputes.
        let mut config = small_config();
        config.devices.truncate(1);
        config.resident_chunks = 16;
        config.result_cache_bytes = 0;
        let service = Service::start(config, vec![toy_assembly()]);
        let spec = JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACGTACGTNNN".to_vec(), 3);
        let first = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
        let second = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
        assert_eq!(first, second, "residency never changes results");
        assert_eq!(first, serial_oracle(&toy_assembly(), &spec));
        let report = service.metrics();
        assert_eq!(report.results.misses, 0, "result cache is disabled");
        assert!(
            report.resident_hit_rate() > 0.0,
            "the repeat pass must find chunks resident: {report}"
        );
        assert!(
            report.h2d_skipped_bytes() > 0,
            "resident reuse must skip real upload bytes: {report}"
        );
    }

    #[test]
    fn duplicate_specs_coalesce_into_one_compute() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let spec = JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACGTACGTNNN".to_vec(), 3);
        let expect = serial_oracle(&toy_assembly(), &spec);
        let ids: Vec<JobId> = (0..6)
            .map(|_| service.submit(spec.clone()).unwrap())
            .collect();
        for id in ids {
            assert_eq!(service.wait(id).unwrap(), expect);
        }
        let report = service.metrics();
        assert_eq!(report.jobs_completed, 6);
        assert_eq!(
            report.results.misses, 1,
            "exactly one compute leader: {report}"
        );
        assert_eq!(
            report.results.hits + report.results.merges,
            5,
            "every duplicate was served from the store: {report}"
        );
    }

    #[test]
    fn calibrated_predictions_beat_the_hand_tuned_packed_baseline() {
        // PR 3's hand-tuned constants left the packed path at 0.52 mean
        // |predicted − measured| / busy while the raw path sat at 0.19.
        // With measured per-kernel rates the packed path must at least
        // drop below that raw baseline.
        let mut config = ServiceConfig::paper_pool();
        config.chunk_size = 1 << 10;
        config.result_cache_bytes = 0; // every job must really execute
        let service = Service::start(config, vec![genome::synth::hg38_mini(0.002)]);
        let ids: Vec<JobId> = (0..8)
            .map(|i| {
                let bases = [b'A', b'C', b'G', b'T'];
                let mut guide = b"ACGTACGTNNN".to_vec();
                guide[0] = bases[i % 4];
                guide[1] = bases[(i / 4) % 4];
                service
                    .submit(JobSpec::new("hg38-mini", b"NNNNNNNNNRG".to_vec(), guide, 3))
                    .unwrap()
            })
            .collect();
        for id in ids {
            service.wait(id).unwrap();
        }
        let report = service.metrics();
        assert!(
            report.mean_prediction_error() < 0.19,
            "packed-path error must beat the raw baseline: {report}"
        );
    }

    #[test]
    fn masked_assemblies_serve_on_the_nibble_path_without_char_fallback() {
        // An exception-dense assembly under the adaptive default: every
        // dense chunk must select the 4-bit comparer (zero char-fallback
        // batches), and the results must still match the serial oracle.
        let mut config = small_config();
        config.chunk_size = 256;
        let assembly = genome::synth::hg38_masked_mini(0.001);
        let service = Service::start(config, vec![assembly.clone()]);
        let specs: Vec<JobSpec> = distinct_specs(4)
            .into_iter()
            .map(|mut s| {
                s.assembly = "hg38-masked".into();
                s
            })
            .collect();
        for spec in &specs {
            let got = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
            assert_eq!(
                got,
                plain_oracle(&assembly, &spec.pattern, &spec.guide, spec.max_mismatches),
                "nibble-path serving must be byte-identical"
            );
        }
        let report = service.metrics();
        assert_eq!(
            report.comparer_char_batches, 0,
            "no batch may fall back to the char comparer: {report}"
        );
        assert!(
            report.comparer_4bit_batches > 0,
            "dense chunks must select the nibble comparer: {report}"
        );
    }

    #[test]
    fn specialized_serving_is_identical_and_hits_the_variant_cache() {
        // The paper pool serves with JIT-specialized kernels by default;
        // results must be byte-identical to a generic-kernel service, and a
        // warm serving loop must find its variants already compiled.
        let mut config = small_config();
        config.devices.truncate(2);
        let generic = Service::start(
            ServiceConfig {
                specialize: false,
                ..config.clone()
            },
            vec![toy_assembly()],
        );
        let specialized = Service::start(config, vec![toy_assembly()]);
        for spec in distinct_specs(8) {
            let a = generic.wait(generic.submit(spec.clone()).unwrap()).unwrap();
            let b = specialized
                .wait(specialized.submit(spec.clone()).unwrap())
                .unwrap();
            assert_eq!(a, b, "specialization never changes results");
            assert_eq!(a, serial_oracle(&toy_assembly(), &spec));
        }
        let report = specialized.metrics();
        assert!(
            report.variants.hits + report.variants.misses > 0,
            "specialized serving must consult the variant cache: {report}"
        );
        assert!(
            report.variants.hit_rate() > 0.5,
            "repeat batches must reuse compiled variants: {report}"
        );
        let text = report.to_string();
        assert!(text.contains("variants:"), "{text}");
    }

    #[test]
    fn bulge_jobs_serve_the_union_of_variant_searches() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let assembly = toy_assembly();
        let limits = BulgeLimits {
            max_dna: 1,
            max_rna: 1,
        };
        let spec = JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACGTACGTNNN".to_vec(), 3)
            .with_bulges(limits);
        let id = service.submit(spec.clone()).unwrap();
        let got = service.wait(id).unwrap();

        let query = Query::new(spec.guide.clone(), spec.max_mismatches);
        let mut expect = Vec::new();
        for v in enumerate_variants(&spec.pattern, &query, limits) {
            expect.extend(plain_oracle(
                &assembly,
                &v.pattern,
                &v.query,
                spec.max_mismatches,
            ));
        }
        sort_canonical(&mut expect);
        expect.dedup();
        assert!(!expect.is_empty(), "the toy genome has bulge-variant hits");
        assert_eq!(got, expect, "sorted deduplicated union over all variants");
    }

    #[test]
    fn unsupported_bulge_specs_are_rejected_with_clear_errors() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let limits = BulgeLimits {
            max_dna: 1,
            max_rna: 1,
        };
        // No spacer at all: the guide starts with N.
        let err = service
            .submit(
                JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"NNNNNNNNNNN".to_vec(), 1)
                    .with_bulges(limits),
            )
            .unwrap_err();
        match err {
            SubmitError::BadJob(why) => assert!(why.contains("spacer"), "{why}"),
            other => panic!("expected BadJob, got {other:?}"),
        }
        // RNA bulge as large as the spacer.
        let err = service
            .submit(
                JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACNNNNNNNNN".to_vec(), 1)
                    .with_bulges(BulgeLimits {
                        max_dna: 0,
                        max_rna: 2,
                    }),
            )
            .unwrap_err();
        match err {
            SubmitError::BadJob(why) => assert!(why.contains("max_rna"), "{why}"),
            other => panic!("expected BadJob, got {other:?}"),
        }
        assert_eq!(service.metrics().jobs_rejected_invalid, 2);
    }

    #[test]
    fn invalid_jobs_are_rejected_at_admission() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        assert_eq!(
            service.submit(JobSpec::new("nope", b"NGG".to_vec(), b"ANN".to_vec(), 1)),
            Err(SubmitError::UnknownAssembly("nope".into()))
        );
        assert!(matches!(
            service.submit(JobSpec::new("toy", b"NGG".to_vec(), b"AN".to_vec(), 1)),
            Err(SubmitError::BadJob(_))
        ));
        assert!(matches!(
            service.submit(JobSpec::new("toy", Vec::new(), Vec::new(), 1)),
            Err(SubmitError::BadJob(_))
        ));
        let report = service.metrics();
        assert_eq!(report.jobs_rejected_invalid, 3);
        assert_eq!(report.jobs_admitted, 0);
    }

    #[test]
    fn wait_distinguishes_unknown_ids_from_already_collected_ones() {
        // Regression: both cases used to collapse into `None`, so a client
        // could not tell a typo'd id from a double collect.
        let service = Service::start(small_config(), vec![toy_assembly()]);
        assert_eq!(service.wait(999).unwrap_err(), WaitError::UnknownJob);
        assert_eq!(service.poll(999).unwrap_err(), WaitError::UnknownJob);
        let id = service
            .submit(JobSpec::new(
                "toy",
                b"NNNNNNNNNRG".to_vec(),
                b"ACGTACGTNNN".to_vec(),
                3,
            ))
            .unwrap();
        let got = service.wait(id).unwrap();
        assert!(!got.is_empty());
        assert_eq!(service.wait(id).unwrap_err(), WaitError::Collected);
        assert_eq!(service.poll(id).unwrap_err(), WaitError::Collected);
    }

    #[test]
    fn polling_and_callbacks_complete_jobs_without_blocking() {
        use std::sync::atomic::AtomicUsize;

        let service = Service::start(small_config(), vec![toy_assembly()]);
        let assembly = toy_assembly();
        let specs = distinct_specs(8);
        let fired = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<Ticket> = specs
            .iter()
            .map(|s| service.submit_ticket(s.clone()).unwrap())
            .collect();
        for t in &tickets {
            let fired = Arc::clone(&fired);
            service
                .on_complete(t.id, move |_| {
                    fired.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        // Pure polling: no thread ever parks in `wait`.
        let mut pending: Vec<usize> = (0..tickets.len()).collect();
        let mut results: Vec<Option<Vec<OffTarget>>> = vec![None; tickets.len()];
        while !pending.is_empty() {
            pending.retain(|&i| match service.poll(tickets[i].id).unwrap() {
                Poll::Ready(records) => {
                    results[i] = Some(records);
                    false
                }
                Poll::Pending => true,
            });
            std::thread::yield_now();
        }
        for (spec, got) in specs.iter().zip(&results) {
            assert_eq!(
                got.as_deref().unwrap(),
                serial_oracle(&assembly, spec),
                "polled results are byte-identical to the serial oracle"
            );
        }
        assert_eq!(fired.load(Ordering::SeqCst), specs.len());
        let report = service.metrics();
        assert_eq!(report.blocking_waits, 0, "no wait ever parked: {report}");
    }

    #[test]
    fn feasible_deadlines_are_admitted_and_met() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let spec = JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACGTACGTNNN".to_vec(), 3)
            .with_deadline(Duration::from_secs(60));
        let ticket = service.submit_ticket(spec).unwrap();
        assert_eq!(ticket.deadline, Some(Duration::from_secs(60)));
        assert!(!service.wait(ticket.id).unwrap().is_empty());
        let report = service.metrics();
        assert_eq!(report.deadline_misses, 0, "{report}");
        assert_eq!(report.jobs_rejected_deadline, 0, "{report}");
    }

    #[test]
    fn infeasible_deadlines_are_rejected_at_admission() {
        // An enormous pacing factor maps even the tiny toy workload to
        // centuries of predicted wall clock, so any finite deadline is
        // infeasible; rejected jobs never execute, so the pacing sleep is
        // never taken.
        let mut config = small_config();
        config.pacing = 1e12;
        let service = Service::start(config, vec![toy_assembly()]);
        let spec = JobSpec::new("toy", b"NNNNNNNNNRG".to_vec(), b"ACGTACGTNNN".to_vec(), 3)
            .with_deadline(Duration::from_millis(1));
        match service.submit_ticket(spec).unwrap_err() {
            SubmitError::DeadlineInfeasible { predicted } => {
                assert!(predicted > Duration::from_millis(1), "{predicted:?}");
            }
            other => panic!("expected DeadlineInfeasible, got {other:?}"),
        }
        let report = service.metrics();
        assert_eq!(report.jobs_rejected_deadline, 1, "{report}");
        assert_eq!(report.jobs_admitted, 0, "{report}");
    }

    #[test]
    fn shed_submissions_report_typed_retry_hints_and_tenant_rows() {
        // Two tenants on a budget sized so tenant 2's quota is one toy
        // job: its second concurrent submission must shed with the typed
        // hint while tenant 1 keeps being admitted.
        let assembly = toy_assembly();
        let cost = assembly.total_len() as u64;
        let mut config = small_config();
        config.result_cache_bytes = 0; // duplicates must hit the queue
        config.queue_cost_limit = cost * 4;
        config.tenants = vec![
            TenantConfig::weighted(crate::TenantId(1), 3),
            TenantConfig::weighted(crate::TenantId(2), 1),
        ];
        let service = Service::start(config, vec![assembly]);
        let specs = distinct_specs(8);
        // Tenant 2 fills its quota (one cost unit of jobs), then sheds.
        let first = service
            .submit_ticket(specs[0].clone().for_tenant(crate::TenantId(2)))
            .unwrap();
        assert_eq!(first.cost, cost);
        let mut sheds = 0;
        for spec in specs.iter().skip(1).take(4) {
            match service.submit_ticket(spec.clone().for_tenant(crate::TenantId(2))) {
                Ok(_) => {}
                Err(SubmitError::Shed { retry_after_cost }) => {
                    assert!(retry_after_cost > 0);
                    sheds += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(sheds > 0, "tenant 2 must shed past its quota");
        // Tenant 1 still gets in on its larger quota.
        service
            .submit_ticket(specs[5].clone().for_tenant(crate::TenantId(1)))
            .unwrap();
        let report = service.metrics();
        assert_eq!(report.jobs_shed, sheds, "{report}");
        assert_eq!(report.sheds_quota, sheds, "{report}");
        assert_eq!(report.sheds_budget, 0, "{report}");
        let t2 = report
            .tenants
            .iter()
            .find(|t| t.id == crate::TenantId(2))
            .expect("tenant 2 has a row");
        assert_eq!(t2.shed, sheds, "{report}");
        assert!(t2.admitted >= 1, "{report}");
    }

    #[test]
    fn planned_placement_serves_identically_and_prefetches_partitions() {
        let mut config = small_config();
        config.placement = Placement::Planned;
        config.resident_chunks = 16;
        config.result_cache_bytes = 0; // every spec really executes
        let service = Service::start(config, vec![toy_assembly()]);
        let plan = service.plan().expect("planned placement installs a plan");
        assert_eq!(
            plan.chunk_count("toy"),
            Some(7),
            "ceil(62/16) + ceil(40/16)"
        );
        let assembly = toy_assembly();
        for spec in distinct_specs(8) {
            let got = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
            assert_eq!(
                got,
                serial_oracle(&assembly, &spec),
                "planned placement never changes results"
            );
        }
        let report = service.metrics();
        assert!(report.planned_hits > 0, "{report}");
        assert!(
            report.prefetch_uploads > 0,
            "first touch warms each partition: {report}"
        );
        assert_eq!(report.migrated_chunks, 0, "{report}");
        assert!(
            report.resident_hit_rate() > 0.9,
            "prefetched partitions serve resident: {report}"
        );
        let text = report.to_string();
        assert!(text.contains("placement:"), "{text}");
    }

    #[test]
    fn fleet_changes_migrate_only_reassigned_chunks() {
        let mut config = small_config();
        config.placement = Placement::Planned;
        let service = Service::start(config, vec![toy_assembly()]);
        let before = service.plan().unwrap();
        let migrated = service.set_device_active(3, false);
        let after = service.plan().unwrap();
        assert_eq!(migrated, after.migrated_from(&before));
        // Device 3's partition moved; the others' chunks stayed put except
        // where the new cuts shifted a boundary.
        assert!(migrated > 0, "device 3 owned at least one chunk");
        let n = after.chunk_count("toy").unwrap();
        let by_hand = (0..n)
            .filter(|&c| before.owner_of("toy", c) != after.owner_of("toy", c))
            .count();
        assert_eq!(migrated, by_hand);
        assert_eq!(service.metrics().migrated_chunks, migrated as u64);
        // Reactivation restores a plan identical to the original.
        service.set_device_active(3, true);
        let restored = service.plan().unwrap();
        assert_eq!(restored.migrated_from(&before), 0);
    }

    /// The sorted, deduplicated union a library screen must reproduce.
    fn union_oracle(
        assembly: &Assembly,
        guides: &[Vec<u8>],
        max_mismatches: u16,
    ) -> Vec<OffTarget> {
        let mut expect = Vec::new();
        for guide in guides {
            expect.extend(plain_oracle(
                assembly,
                b"NNNNNNNNNRG",
                guide,
                max_mismatches,
            ));
        }
        sort_canonical(&mut expect);
        expect.dedup();
        expect
    }

    #[test]
    fn library_screens_match_the_per_guide_union_and_skip_repeat_finders() {
        let mut config = small_config();
        config.result_cache_bytes = 0; // the repeat screen really executes
        let service = Service::start(config, vec![toy_assembly()]);
        let assembly = toy_assembly();
        let guides: Vec<Vec<u8>> = distinct_specs(12).into_iter().map(|s| s.guide).collect();
        let spec = JobSpec::library("toy", b"NNNNNNNNNRG".to_vec(), guides.clone(), 3);
        let expect = union_oracle(&assembly, &guides, 3);
        assert!(!expect.is_empty(), "fixture must produce hits");

        let first = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
        assert_eq!(first, expect, "a screen is the sorted deduplicated union");
        let second = service.wait(service.submit(spec).unwrap()).unwrap();
        assert_eq!(second, expect, "repeat screens are byte-identical");

        let report = service.metrics();
        assert!(
            report.fused_launches > 0,
            "screens ride fused comparer launches: {report}"
        );
        assert!(
            report.comparer_launch_ratio() < 1.0,
            "fused launches must undercut one-per-guide: {report}"
        );
        assert!(
            report.finder_launches_skipped > 0,
            "the repeat screen replays cached candidate lists: {report}"
        );
        assert!(report.candidates.hits > 0, "{report}");
        assert!(report.candidates.inserts > 0, "{report}");
        service.shutdown();
    }

    #[test]
    fn shuffled_guide_orders_dedup_through_the_result_store() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let guides: Vec<Vec<u8>> = distinct_specs(6).into_iter().map(|s| s.guide).collect();
        let mut reversed = guides.clone();
        reversed.reverse();
        let a = service
            .submit(JobSpec::library("toy", b"NNNNNNNNNRG".to_vec(), guides, 3))
            .unwrap();
        let forward = service.wait(a).unwrap();
        let b = service
            .submit(JobSpec::library(
                "toy",
                b"NNNNNNNNNRG".to_vec(),
                reversed,
                3,
            ))
            .unwrap();
        let reverse = service.wait(b).unwrap();
        assert_eq!(forward, reverse, "guide order never changes a screen");
        let report = service.metrics();
        assert_eq!(
            report.results.misses, 1,
            "shuffled orders canonicalize to one digest: {report}"
        );
        assert_eq!(report.results.hits + report.results.merges, 1, "{report}");
        service.shutdown();
    }

    #[test]
    fn tiny_candidate_caches_evict_but_never_change_results() {
        let mut config = small_config();
        // A handful of loci's worth of budget: every sweep evicts.
        config.candidate_cache_bytes = 64;
        config.result_cache_bytes = 0;
        let service = Service::start(config, vec![toy_assembly()]);
        let assembly = toy_assembly();
        let guides: Vec<Vec<u8>> = distinct_specs(8).into_iter().map(|s| s.guide).collect();
        let spec = JobSpec::library("toy", b"NNNNNNNNNRG".to_vec(), guides.clone(), 3);
        let expect = union_oracle(&assembly, &guides, 3);
        for _ in 0..2 {
            let got = service.wait(service.submit(spec.clone()).unwrap()).unwrap();
            assert_eq!(got, expect, "evictions must never leak into results");
        }
        let report = service.metrics();
        assert!(
            report.candidates.evictions > 0,
            "64 bytes cannot hold every chunk's list: {report}"
        );
        service.shutdown();
    }

    #[test]
    fn malformed_library_specs_are_rejected() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let empty = JobSpec::library("toy", b"NNNRG".to_vec(), Vec::new(), 3);
        assert!(matches!(service.submit(empty), Err(SubmitError::BadJob(_))));
        let skewed = JobSpec::library("toy", b"NNNRG".to_vec(), vec![b"ACG".to_vec()], 3);
        assert!(matches!(
            service.submit(skewed),
            Err(SubmitError::BadJob(_))
        ));
        let mut both = JobSpec::library("toy", b"NNNRG".to_vec(), vec![b"ACGTG".to_vec()], 3);
        both.bulge = Some(BulgeLimits {
            max_dna: 1,
            max_rna: 1,
        });
        assert!(matches!(service.submit(both), Err(SubmitError::BadJob(_))));
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let service = Service::start(small_config(), vec![toy_assembly()]);
        let id = service
            .submit(JobSpec::new(
                "toy",
                b"NNNNNNNNNRG".to_vec(),
                b"ACGTACGTNNN".to_vec(),
                3,
            ))
            .unwrap();
        let got = service.wait(id).unwrap();
        assert!(!got.is_empty());
        service.shutdown();
    }
}
