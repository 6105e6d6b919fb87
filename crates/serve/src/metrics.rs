//! Service counters: admission, coalescing, scheduling and per-device
//! utilization, all lock-free so the hot paths never serialize on a
//! metrics mutex.

use std::sync::atomic::{AtomicU64, Ordering};

use cas_offinder::kernels::VariantCacheStats;
use cas_offinder::lru::hit_rate;

use crate::cache::CacheStats;
use crate::candidates::CandidateStats;
use crate::results::ResultCacheStats;
use crate::tenant::TenantId;

/// One tenant's slice of a [`MetricsReport`]: admission outcomes, goodput
/// in calibrated cost units, and completion-latency quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Which tenant the row describes.
    pub id: TenantId,
    /// The tenant's configured fair-queuing weight.
    pub weight: u32,
    /// Jobs admitted (including result-cache hits and merges).
    pub admitted: u64,
    /// Jobs load-shed at admission (over quota or over budget).
    pub shed: u64,
    /// Jobs fully completed.
    pub completed: u64,
    /// Summed admission cost of completed jobs — the currency weighted
    /// fairness is measured in.
    pub goodput_cost: u64,
    /// Completed jobs that finished after their declared deadline.
    pub deadline_misses: u64,
    /// Median submit-to-completion latency, nanoseconds.
    pub latency_p50_ns: u64,
    /// 95th-percentile submit-to-completion latency, nanoseconds.
    pub latency_p95_ns: u64,
    /// 99th-percentile submit-to-completion latency, nanoseconds.
    pub latency_p99_ns: u64,
}

impl TenantReport {
    /// Shed rate over the tenant's admission attempts (0 when none).
    pub fn shed_rate(&self) -> f64 {
        let total = self.admitted + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

/// Kernel-variant cache accounting over the service's lifetime: counter
/// deltas against the process-wide [`cas_offinder::kernels::VariantCache`]
/// snapshot taken when the service started (the cache is shared by every
/// service in the process), plus compile-time quantiles over the cache's
/// recent-compile ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VariantReport {
    /// Variant lookups served from the cache (including single-flight
    /// followers that waited on an in-flight compile).
    pub hits: u64,
    /// Variant lookups that had to compile.
    pub misses: u64,
    /// Variants evicted by the cache's capacity bound.
    pub evictions: u64,
    /// Compiles performed: single-flight makes every miss exactly one
    /// compile.
    pub compiles: u64,
    /// Median compile time of recent compiles, nanoseconds (0 when none).
    pub compile_p50_ns: u64,
    /// 95th-percentile compile time of recent compiles, nanoseconds.
    pub compile_p95_ns: u64,
}

impl VariantReport {
    /// The delta between a service-start snapshot of the variant cache and
    /// its current stats; quantiles come from the current recent-compile
    /// ring (the service's own compiles dominate it once warm).
    pub fn delta(baseline: &VariantCacheStats, now: &VariantCacheStats) -> Self {
        let misses = now.misses.saturating_sub(baseline.misses);
        VariantReport {
            hits: now.hits.saturating_sub(baseline.hits),
            misses,
            evictions: now.evictions.saturating_sub(baseline.evictions),
            compiles: misses,
            compile_p50_ns: now.compile_ns_quantile(0.5).unwrap_or(0),
            compile_p95_ns: now.compile_ns_quantile(0.95).unwrap_or(0),
        }
    }

    /// Hit rate over the service's own lookups, 0 when none happened.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

/// Counters for one simulated device in the pool.
#[derive(Default)]
pub struct DeviceMetrics {
    /// Simulated busy time, nanoseconds.
    pub busy_ns: AtomicU64,
    /// Chunk batches executed on this device.
    pub batches: AtomicU64,
    /// Batches this device stole from a sibling's queue.
    pub steals: AtomicU64,
    /// Kernel launches on the device (gauge from the simulator).
    pub kernel_launches: AtomicU64,
    /// Host-to-device bytes moved (gauge from the simulator).
    pub h2d_bytes: AtomicU64,
    /// Device-to-host bytes moved (gauge from the simulator).
    pub d2h_bytes: AtomicU64,
    /// Host-to-device bytes *not* moved because the chunk payload was
    /// already resident on the device (gauge from the simulator).
    pub h2d_skipped_bytes: AtomicU64,
    /// Batches whose chunk payload was resident — the upload was skipped.
    pub resident_hits: AtomicU64,
    /// Batches whose chunk payload had to be uploaded.
    pub resident_misses: AtomicU64,
    /// Sum of the scheduler's predicted service times, nanoseconds.
    pub predicted_ns: AtomicU64,
    /// Sum of |predicted - measured| service time, nanoseconds.
    pub prediction_abs_err_ns: AtomicU64,
}

/// Shared, lock-free service counters.
pub struct ServeMetrics {
    /// Jobs accepted into the admission queue.
    pub jobs_admitted: AtomicU64,
    /// Jobs load-shed at admission (tenant over quota, or queue cost
    /// budget exhausted).
    pub jobs_shed: AtomicU64,
    /// Jobs rejected for malformed specs (unknown assembly, bad lengths).
    pub jobs_rejected_invalid: AtomicU64,
    /// Jobs rejected up front because the predicted completion could not
    /// meet the declared deadline.
    pub jobs_rejected_deadline: AtomicU64,
    /// Completed jobs that finished after their declared deadline.
    pub deadline_misses: AtomicU64,
    /// `wait` calls that actually parked a thread (a non-blocking
    /// poll/callback harness asserts this stays 0).
    pub blocking_waits: AtomicU64,
    /// Jobs fully completed.
    pub jobs_completed: AtomicU64,
    /// Chunk batches formed by the coalescer.
    pub batches_formed: AtomicU64,
    /// Total job memberships across formed batches (for the coalescing
    /// ratio: memberships ÷ batches = average jobs per chunk launch).
    pub coalesced_jobs: AtomicU64,
    /// Batches whose payload selected the char comparer (raw chunks).
    pub comparer_char_batches: AtomicU64,
    /// Batches compared in 2-bit packed form.
    pub comparer_2bit_batches: AtomicU64,
    /// Batches compared in 4-bit nibble form.
    pub comparer_4bit_batches: AtomicU64,
    /// Finder launches executed across all workers.
    pub finder_launches: AtomicU64,
    /// Finder launches skipped because the chunk's candidate list replayed
    /// from the candidate-site cache.
    pub finder_launches_skipped: AtomicU64,
    /// Comparer launches executed (one per query, or one per guide block
    /// on the fused multi-guide path).
    pub comparer_launches: AtomicU64,
    /// How many of `comparer_launches` were fused multi-guide launches.
    pub fused_launches: AtomicU64,
    /// Chunk payloads workers uploaded ahead of demand while warming their
    /// planned partition (no kernels launched — upload only).
    pub prefetch_uploads: AtomicU64,
    /// Chunks whose planned owner changed across fleet-change plan
    /// recomputations (the exact set a migration moves).
    pub migrated_chunks: AtomicU64,
    /// Per-device counters, index-aligned with the pool.
    pub devices: Vec<DeviceMetrics>,
}

impl ServeMetrics {
    /// Zeroed counters for a pool of `devices` devices.
    pub fn new(devices: usize) -> Self {
        ServeMetrics {
            jobs_admitted: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_rejected_invalid: AtomicU64::new(0),
            jobs_rejected_deadline: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            blocking_waits: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            batches_formed: AtomicU64::new(0),
            coalesced_jobs: AtomicU64::new(0),
            comparer_char_batches: AtomicU64::new(0),
            comparer_2bit_batches: AtomicU64::new(0),
            comparer_4bit_batches: AtomicU64::new(0),
            finder_launches: AtomicU64::new(0),
            finder_launches_skipped: AtomicU64::new(0),
            comparer_launches: AtomicU64::new(0),
            fused_launches: AtomicU64::new(0),
            prefetch_uploads: AtomicU64::new(0),
            migrated_chunks: AtomicU64::new(0),
            devices: (0..devices).map(|_| DeviceMetrics::default()).collect(),
        }
    }
}

/// Per-device slice of a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name (e.g. `MI100`).
    pub name: String,
    /// Pipeline flavour the device runs (`OpenCL` or `SYCL`).
    pub api: String,
    /// Simulated busy time, seconds.
    pub busy_s: f64,
    /// Chunk batches executed.
    pub batches: u64,
    /// Batches stolen from siblings.
    pub steals: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Host-to-device bytes.
    pub h2d_bytes: u64,
    /// Device-to-host bytes.
    pub d2h_bytes: u64,
    /// Host-to-device bytes skipped thanks to chunk residency.
    pub h2d_skipped_bytes: u64,
    /// Batches served from a resident chunk payload (upload skipped).
    pub resident_hits: u64,
    /// Batches that uploaded their chunk payload.
    pub resident_misses: u64,
    /// Scheduler-predicted service time, seconds.
    pub predicted_s: f64,
    /// Mean absolute prediction error as a fraction of busy time.
    pub prediction_error: f64,
}

/// A complete point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Jobs accepted into the admission queue.
    pub jobs_admitted: u64,
    /// Jobs load-shed at admission (over quota or over budget).
    pub jobs_shed: u64,
    /// Sheds caused by a tenant exceeding its in-flight quota.
    pub sheds_quota: u64,
    /// Sheds caused by the queue-wide cost budget.
    pub sheds_budget: u64,
    /// Jobs rejected at admission (malformed spec).
    pub jobs_rejected_invalid: u64,
    /// Jobs rejected up front as deadline-infeasible.
    pub jobs_rejected_deadline: u64,
    /// Completed jobs that finished after their declared deadline.
    pub deadline_misses: u64,
    /// `wait` calls that actually parked a thread.
    pub blocking_waits: u64,
    /// Jobs fully completed.
    pub jobs_completed: u64,
    /// Chunk batches formed by the coalescer.
    pub batches_formed: u64,
    /// Total job memberships across batches.
    pub coalesced_jobs: u64,
    /// Executed batches that ran the char comparer (raw payloads).
    pub comparer_char_batches: u64,
    /// Executed batches compared in 2-bit packed form.
    pub comparer_2bit_batches: u64,
    /// Executed batches compared in 4-bit nibble form.
    pub comparer_4bit_batches: u64,
    /// Finder launches executed across all workers.
    pub finder_launches: u64,
    /// Finder launches skipped by replaying cached candidate lists.
    pub finder_launches_skipped: u64,
    /// Comparer launches executed (per query, or per guide block fused).
    pub comparer_launches: u64,
    /// How many of `comparer_launches` fused multiple guides.
    pub fused_launches: u64,
    /// Batches the dispatcher placed on their chunk's planned owner
    /// (0 unless the pool runs `Placement::Planned` with a plan installed).
    pub planned_hits: u64,
    /// Batches a saturated planned owner spilled to earliest-completion
    /// placement, priced with their real (non-resident) upload cost there.
    pub spill_fallbacks: u64,
    /// Chunk payloads uploaded ahead of demand by partition warmup.
    pub prefetch_uploads: u64,
    /// Chunks reassigned by fleet-change plan recomputations.
    pub migrated_chunks: u64,
    /// Jobs sitting in the admission queue at snapshot time — the live
    /// gauge autoscaling decisions read, distinct from the high water.
    pub queue_depth: usize,
    /// Deepest the admission queue has been.
    pub queue_depth_high_water: usize,
    /// Kernel-variant cache accounting (all zeros when specialization is
    /// off — the service then never touches the variant cache).
    pub variants: VariantReport,
    /// Genome-chunk cache accounting.
    pub cache: CacheStats,
    /// Content-addressed result cache accounting.
    pub results: ResultCacheStats,
    /// Candidate-site cache accounting (all zeros when disabled).
    pub candidates: CandidateStats,
    /// Per-tenant admission/goodput/latency rows, sorted by tenant id.
    /// Empty until some tenant has an admission outcome.
    pub tenants: Vec<TenantReport>,
    /// Per-device utilization.
    pub devices: Vec<DeviceReport>,
}

impl MetricsReport {
    /// Average jobs per chunk launch: >1 means the coalescer saved finder
    /// launches and chunk uploads versus running each job alone.
    pub fn coalescing_ratio(&self) -> f64 {
        if self.batches_formed == 0 {
            1.0
        } else {
            self.coalesced_jobs as f64 / self.batches_formed as f64
        }
    }

    /// Fraction of chunk lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Fraction of executed batches that found their chunk payload already
    /// resident on the device (0 when nothing ran).
    pub fn resident_hit_rate(&self) -> f64 {
        let hits = self.devices.iter().map(|d| d.resident_hits).sum();
        hit_rate(hits, self.devices.iter().map(|d| d.resident_misses).sum())
    }

    /// Host-to-device bytes residency avoided moving, across all devices.
    pub fn h2d_skipped_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.h2d_skipped_bytes).sum()
    }

    /// Fraction of submissions answered without computing: cache hits plus
    /// single-flight merges over all result-store admissions (0 when the
    /// result cache is disabled or nothing was submitted).
    pub fn result_cache_hit_rate(&self) -> f64 {
        hit_rate(self.results.hits + self.results.merges, self.results.misses)
    }

    /// How far per-tenant goodput strayed from the configured weights:
    /// the maximum over tenants of `|share/target − 1|`, where `share` is
    /// the tenant's fraction of total completed cost and `target` its
    /// fraction of total weight. 0 means goodput matched the weights
    /// exactly; the tier-1 gate requires ≤ 0.15 under the demo's 3-tenant
    /// overload. Returns 0 when fewer than two tenants completed work.
    pub fn fairness_max_deviation(&self) -> f64 {
        let rows: Vec<&TenantReport> = self.tenants.iter().filter(|t| t.goodput_cost > 0).collect();
        if rows.len() < 2 {
            return 0.0;
        }
        let total_cost: u64 = rows.iter().map(|t| t.goodput_cost).sum();
        let total_weight: u64 = rows.iter().map(|t| u64::from(t.weight)).sum();
        rows.iter()
            .map(|t| {
                let share = t.goodput_cost as f64 / total_cost as f64;
                let target = t.weight as f64 / total_weight as f64;
                (share / target - 1.0).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of candidate-cache lookups that skipped a finder launch
    /// (0 when the cache is disabled or nothing ran).
    pub fn candidate_hit_rate(&self) -> f64 {
        self.candidates.hit_rate()
    }

    /// Comparer launches per job-chunk unit: 1.0 means one launch per
    /// guide per chunk (the unfused baseline); the fused multi-guide path
    /// drives it toward `1 / GUIDE_BLOCK` on well-coalesced screens.
    pub fn comparer_launch_ratio(&self) -> f64 {
        if self.coalesced_jobs == 0 {
            1.0
        } else {
            self.comparer_launches as f64 / self.coalesced_jobs as f64
        }
    }

    /// Mean absolute predicted-vs-measured service-time error across all
    /// devices, as a fraction of total busy time (0 when nothing ran).
    pub fn mean_prediction_error(&self) -> f64 {
        let busy: f64 = self.devices.iter().map(|d| d.busy_s).sum();
        if busy == 0.0 {
            return 0.0;
        }
        let err: f64 = self
            .devices
            .iter()
            .map(|d| d.prediction_error * d.busy_s)
            .sum();
        err / busy
    }
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} admitted, {} completed, {} shed ({} quota / {} budget), \
             {} rejected (invalid), {} rejected (deadline)",
            self.jobs_admitted,
            self.jobs_completed,
            self.jobs_shed,
            self.sheds_quota,
            self.sheds_budget,
            self.jobs_rejected_invalid,
            self.jobs_rejected_deadline
        )?;
        writeln!(
            f,
            "qos: {} deadline misses, {} blocking waits, fairness deviation {:.1}%",
            self.deadline_misses,
            self.blocking_waits,
            100.0 * self.fairness_max_deviation()
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "{} (w{}): {} admitted, {} shed ({:.1}%), {} done, {} goodput, \
                 {} deadline misses, latency p50/p95/p99 {}/{}/{} ns",
                t.id,
                t.weight,
                t.admitted,
                t.shed,
                100.0 * t.shed_rate(),
                t.completed,
                t.goodput_cost,
                t.deadline_misses,
                t.latency_p50_ns,
                t.latency_p95_ns,
                t.latency_p99_ns
            )?;
        }
        writeln!(
            f,
            "coalescing: {} batches, {} job-chunk units, ratio {:.2}x",
            self.batches_formed,
            self.coalesced_jobs,
            self.coalescing_ratio()
        )?;
        writeln!(
            f,
            "cache: {:.1}% hit rate ({} hits / {} misses, {} evictions, {} resident, {} B)",
            100.0 * self.cache_hit_rate(),
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.len,
            self.cache.bytes_resident
        )?;
        writeln!(
            f,
            "results: {:.1}% served without compute ({} hits, {} merged, {} misses, \
             {} cached, {} B)",
            100.0 * self.result_cache_hit_rate(),
            self.results.hits,
            self.results.merges,
            self.results.misses,
            self.results.len,
            self.results.bytes_resident
        )?;
        writeln!(
            f,
            "residency: {:.1}% of batches reused a resident chunk, {} B uploads skipped",
            100.0 * self.resident_hit_rate(),
            self.h2d_skipped_bytes()
        )?;
        writeln!(
            f,
            "comparers: {} char batches, {} 2-bit, {} 4-bit",
            self.comparer_char_batches, self.comparer_2bit_batches, self.comparer_4bit_batches
        )?;
        writeln!(
            f,
            "launches: {} finder ({} skipped), {} comparer ({} fused, {:.2} per job-chunk)",
            self.finder_launches,
            self.finder_launches_skipped,
            self.comparer_launches,
            self.fused_launches,
            self.comparer_launch_ratio()
        )?;
        writeln!(
            f,
            "candidates: {:.1}% hit rate ({} hits / {} misses, {} inserts, {} evicted, \
             {} resident, {} B)",
            100.0 * self.candidate_hit_rate(),
            self.candidates.hits,
            self.candidates.misses,
            self.candidates.inserts,
            self.candidates.evictions,
            self.candidates.len,
            self.candidates.resident_bytes
        )?;
        writeln!(
            f,
            "placement: {} batches on planned owner, {} spills, {} prefetch uploads, \
             {} chunks migrated",
            self.planned_hits, self.spill_fallbacks, self.prefetch_uploads, self.migrated_chunks
        )?;
        writeln!(
            f,
            "variants: {:.1}% cache hit rate ({} hits / {} misses, {} compiles, \
             {} evicted, compile p50 {} ns / p95 {} ns)",
            100.0 * self.variants.hit_rate(),
            self.variants.hits,
            self.variants.misses,
            self.variants.compiles,
            self.variants.evictions,
            self.variants.compile_p50_ns,
            self.variants.compile_p95_ns
        )?;
        writeln!(
            f,
            "scheduler: {:.1}% mean |predicted - measured| service time",
            100.0 * self.mean_prediction_error()
        )?;
        writeln!(
            f,
            "queue depth: {} (high-water {})",
            self.queue_depth, self.queue_depth_high_water
        )?;
        for d in &self.devices {
            writeln!(
                f,
                "device {:>10} [{:>6}]: {:>8.3}s busy, {:>5} batches ({} stolen), \
                 {} launches, {} B up, {} B down, pred err {:.1}%",
                d.name,
                d.api,
                d.busy_s,
                d.batches,
                d.steals,
                d.kernel_launches,
                d.h2d_bytes,
                d.d2h_bytes,
                100.0 * d.prediction_error
            )?;
        }
        Ok(())
    }
}

pub(crate) fn busy_ns_from_s(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// Point-in-time state read off the fair queue and tenant ledger when a
/// report is assembled.
pub(crate) struct QueueView {
    /// Jobs queued at snapshot time.
    pub depth: usize,
    /// High-water mark of queued jobs.
    pub depth_high_water: usize,
    /// Sheds attributed to a tenant exceeding its derived quota.
    pub sheds_quota: u64,
    /// Sheds attributed to global cost-budget pressure.
    pub sheds_budget: u64,
    /// Per-tenant admission/latency rows.
    pub tenants: Vec<TenantReport>,
}

/// Plan-placement counters read off the device pool when a report is
/// assembled (zeros when the pool never ran planned placement).
#[derive(Default)]
pub(crate) struct PlanView {
    /// Batches placed on their chunk's planned owner.
    pub planned_hits: u64,
    /// Batches a saturated owner spilled to earliest-completion placement.
    pub spill_fallbacks: u64,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn load_report(
    metrics: &ServeMetrics,
    names: &[(String, String)],
    queue: QueueView,
    plan: PlanView,
    variants: VariantReport,
    cache: CacheStats,
    results: ResultCacheStats,
    candidates: CandidateStats,
) -> MetricsReport {
    MetricsReport {
        jobs_admitted: metrics.jobs_admitted.load(Ordering::Relaxed),
        jobs_shed: metrics.jobs_shed.load(Ordering::Relaxed),
        sheds_quota: queue.sheds_quota,
        sheds_budget: queue.sheds_budget,
        jobs_rejected_invalid: metrics.jobs_rejected_invalid.load(Ordering::Relaxed),
        jobs_rejected_deadline: metrics.jobs_rejected_deadline.load(Ordering::Relaxed),
        deadline_misses: metrics.deadline_misses.load(Ordering::Relaxed),
        blocking_waits: metrics.blocking_waits.load(Ordering::Relaxed),
        jobs_completed: metrics.jobs_completed.load(Ordering::Relaxed),
        batches_formed: metrics.batches_formed.load(Ordering::Relaxed),
        coalesced_jobs: metrics.coalesced_jobs.load(Ordering::Relaxed),
        comparer_char_batches: metrics.comparer_char_batches.load(Ordering::Relaxed),
        comparer_2bit_batches: metrics.comparer_2bit_batches.load(Ordering::Relaxed),
        comparer_4bit_batches: metrics.comparer_4bit_batches.load(Ordering::Relaxed),
        finder_launches: metrics.finder_launches.load(Ordering::Relaxed),
        finder_launches_skipped: metrics.finder_launches_skipped.load(Ordering::Relaxed),
        comparer_launches: metrics.comparer_launches.load(Ordering::Relaxed),
        fused_launches: metrics.fused_launches.load(Ordering::Relaxed),
        planned_hits: plan.planned_hits,
        spill_fallbacks: plan.spill_fallbacks,
        prefetch_uploads: metrics.prefetch_uploads.load(Ordering::Relaxed),
        migrated_chunks: metrics.migrated_chunks.load(Ordering::Relaxed),
        queue_depth: queue.depth,
        queue_depth_high_water: queue.depth_high_water,
        variants,
        cache,
        results,
        candidates,
        tenants: queue.tenants,
        devices: metrics
            .devices
            .iter()
            .zip(names)
            .map(|(d, (name, api))| DeviceReport {
                name: name.clone(),
                api: api.clone(),
                busy_s: d.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
                batches: d.batches.load(Ordering::Relaxed),
                steals: d.steals.load(Ordering::Relaxed),
                kernel_launches: d.kernel_launches.load(Ordering::Relaxed),
                h2d_bytes: d.h2d_bytes.load(Ordering::Relaxed),
                d2h_bytes: d.d2h_bytes.load(Ordering::Relaxed),
                h2d_skipped_bytes: d.h2d_skipped_bytes.load(Ordering::Relaxed),
                resident_hits: d.resident_hits.load(Ordering::Relaxed),
                resident_misses: d.resident_misses.load(Ordering::Relaxed),
                predicted_s: d.predicted_ns.load(Ordering::Relaxed) as f64 / 1e9,
                prediction_error: {
                    let busy = d.busy_ns.load(Ordering::Relaxed);
                    if busy == 0 {
                        0.0
                    } else {
                        d.prediction_abs_err_ns.load(Ordering::Relaxed) as f64 / busy as f64
                    }
                },
            })
            .collect(),
    }
}

/// One closed (or still-filling) time bucket of the windowed latency
/// ring, summarized: admission outcomes, the deepest the queue got,
/// and completion-latency percentiles over the window's samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowReport {
    /// Window ordinal: `floor(now / window)` since the service started.
    /// Gaps mean nothing happened for a whole window.
    pub index: u64,
    /// Jobs admitted during the window (including cache hits/merges).
    pub admitted: u64,
    /// Jobs shed during the window.
    pub shed: u64,
    /// Jobs whose results were published during the window.
    pub completed: u64,
    /// Deepest the admission queue was observed during the window.
    pub queue_depth_max: usize,
    /// Median completion latency over the window, nanoseconds.
    pub latency_p50_ns: u64,
    /// 95th-percentile completion latency, nanoseconds.
    pub latency_p95_ns: u64,
    /// 99th-percentile completion latency, nanoseconds.
    pub latency_p99_ns: u64,
}

/// A still-open bucket: raw samples, summarized on snapshot.
struct WindowData {
    index: u64,
    admitted: u64,
    shed: u64,
    completed: u64,
    depth_max: usize,
    latencies_ns: Vec<u64>,
}

impl WindowData {
    fn new(index: u64) -> Self {
        WindowData {
            index,
            admitted: 0,
            shed: 0,
            completed: 0,
            depth_max: 0,
            latencies_ns: Vec::new(),
        }
    }
}

/// Ring of time-bucketed latency/queue-depth windows. Every note call
/// carries its own `now_ns` (nanoseconds since the service started) so
/// the ring itself never reads a clock — which keeps it trivially
/// testable and means replayed timestamps bucket identically. Buckets
/// roll over when a note lands past the newest bucket's window; the
/// ring keeps the most recent `cap` buckets and drops the oldest.
///
/// Latencies are kept as raw samples per bucket and summarized to
/// nearest-rank percentiles at snapshot time: serving windows hold at
/// most a few thousand completions, so exact quantiles cost less than
/// maintaining mergeable sketches and never mis-rank a tail.
pub struct LatencyWindows {
    window_ns: u64,
    cap: usize,
    inner: std::sync::Mutex<std::collections::VecDeque<WindowData>>,
}

impl LatencyWindows {
    /// A ring bucketing by `window` and retaining `cap` buckets.
    ///
    /// # Panics
    /// Panics if `window` is zero or `cap` is zero.
    pub fn new(window: std::time::Duration, cap: usize) -> Self {
        let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        assert!(window_ns > 0, "window must be non-zero");
        assert!(cap > 0, "ring must hold at least one window");
        LatencyWindows {
            window_ns,
            cap,
            inner: std::sync::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// The configured bucket width.
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.window_ns)
    }

    fn with_bucket<R>(&self, now_ns: u64, f: impl FnOnce(&mut WindowData) -> R) -> R {
        let index = now_ns / self.window_ns;
        let mut ring = self.inner.lock().unwrap();
        // Notes arrive slightly out of order (submitters and workers
        // race to the clock); anything older than the newest bucket is
        // folded into the newest rather than resurrecting a closed one.
        let needs_push = match ring.back() {
            Some(back) => index > back.index,
            None => true,
        };
        if needs_push {
            ring.push_back(WindowData::new(index));
            while ring.len() > self.cap {
                ring.pop_front();
            }
        }
        f(ring.back_mut().expect("ring is non-empty after push"))
    }

    /// Count an admission at `now_ns`.
    pub fn note_admitted(&self, now_ns: u64) {
        self.with_bucket(now_ns, |w| w.admitted += 1);
    }

    /// Count a shed at `now_ns`.
    pub fn note_shed(&self, now_ns: u64) {
        self.with_bucket(now_ns, |w| w.shed += 1);
    }

    /// Record an observed queue depth at `now_ns`.
    pub fn note_depth(&self, now_ns: u64, depth: usize) {
        self.with_bucket(now_ns, |w| w.depth_max = w.depth_max.max(depth));
    }

    /// Record a completion at `now_ns` with its end-to-end latency.
    pub fn note_completion(&self, now_ns: u64, latency_ns: u64) {
        self.with_bucket(now_ns, |w| {
            w.completed += 1;
            w.latencies_ns.push(latency_ns);
        });
    }

    /// Snapshot every retained window, oldest first.
    pub fn reports(&self) -> Vec<WindowReport> {
        let ring = self.inner.lock().unwrap();
        ring.iter()
            .map(|w| {
                let mut sorted = w.latencies_ns.clone();
                sorted.sort_unstable();
                WindowReport {
                    index: w.index,
                    admitted: w.admitted,
                    shed: w.shed,
                    completed: w.completed,
                    queue_depth_max: w.depth_max,
                    latency_p50_ns: crate::tenant::quantile(&sorted, 0.50),
                    latency_p95_ns: crate::tenant::quantile(&sorted, 0.95),
                    latency_p99_ns: crate::tenant::quantile(&sorted, 0.99),
                }
            })
            .collect()
    }

    /// Nearest-rank quantile over every retained completion latency.
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
        let ring = self.inner.lock().unwrap();
        let mut all: Vec<u64> = ring
            .iter()
            .flat_map(|w| w.latencies_ns.iter().copied())
            .collect();
        all.sort_unstable();
        crate::tenant::quantile(&all, q)
    }

    /// Fraction of retained completions that finished slower than
    /// `slo_ns` (0 when no completions have been recorded).
    pub fn violation_rate(&self, slo_ns: u64) -> f64 {
        let ring = self.inner.lock().unwrap();
        let (mut total, mut late) = (0u64, 0u64);
        for w in ring.iter() {
            for &l in &w.latencies_ns {
                total += 1;
                if l > slo_ns {
                    late += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            late as f64 / total as f64
        }
    }

    /// Total completions retained across the ring.
    pub fn completions(&self) -> u64 {
        self.inner.lock().unwrap().iter().map(|w| w.completed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_ratio_is_jobs_per_batch() {
        let m = ServeMetrics::new(1);
        m.batches_formed.store(4, Ordering::Relaxed);
        m.coalesced_jobs.store(10, Ordering::Relaxed);
        let report = load_report(
            &m,
            &[("MI100".into(), "OpenCL".into())],
            queue_view(7, (0, 0), Vec::new()),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert!((report.coalescing_ratio() - 2.5).abs() < 1e-12);
        assert_eq!(report.queue_depth_high_water, 7);
        let text = report.to_string();
        assert!(text.contains("ratio 2.50x"), "{text}");
        assert!(text.contains("MI100"), "{text}");
    }

    #[test]
    fn residency_and_result_rates_aggregate_across_devices() {
        let m = ServeMetrics::new(2);
        m.devices[0].resident_hits.store(3, Ordering::Relaxed);
        m.devices[0].resident_misses.store(1, Ordering::Relaxed);
        m.devices[1].resident_misses.store(4, Ordering::Relaxed);
        m.devices[0]
            .h2d_skipped_bytes
            .store(1000, Ordering::Relaxed);
        m.devices[1].h2d_skipped_bytes.store(24, Ordering::Relaxed);
        let results = ResultCacheStats {
            hits: 5,
            misses: 10,
            merges: 5,
            ..ResultCacheStats::default()
        };
        let names = [
            ("MI60".into(), "OpenCL".into()),
            ("MI60".into(), "SYCL".into()),
        ];
        let report = load_report(
            &m,
            &names,
            queue_view(0, (0, 0), Vec::new()),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            results,
            CandidateStats::default(),
        );
        assert!((report.resident_hit_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(report.h2d_skipped_bytes(), 1024);
        assert!((report.result_cache_hit_rate() - 0.5).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("1024 B uploads skipped"), "{text}");
        assert!(text.contains("5 merged"), "{text}");
    }

    #[test]
    fn launch_counters_and_candidate_stats_reach_the_report() {
        let m = ServeMetrics::new(1);
        m.coalesced_jobs.store(32, Ordering::Relaxed);
        m.finder_launches.store(10, Ordering::Relaxed);
        m.finder_launches_skipped.store(6, Ordering::Relaxed);
        m.comparer_launches.store(4, Ordering::Relaxed);
        m.fused_launches.store(4, Ordering::Relaxed);
        let candidates = CandidateStats {
            hits: 9,
            misses: 1,
            inserts: 1,
            evictions: 2,
            len: 1,
            resident_bytes: 40,
        };
        let report = load_report(
            &m,
            &[("MI60".into(), "OpenCL".into())],
            queue_view(0, (0, 0), Vec::new()),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            candidates,
        );
        // 4 comparer launches covered 32 coalesced jobs: 1/8th of the
        // one-launch-per-guide baseline.
        assert!((report.comparer_launch_ratio() - 0.125).abs() < 1e-12);
        assert!((report.candidate_hit_rate() - 0.9).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("10 finder (6 skipped)"), "{text}");
        assert!(
            text.contains("4 comparer (4 fused, 0.12 per job-chunk)"),
            "{text}"
        );
        assert!(text.contains("90.0% hit rate"), "{text}");
        assert!(text.contains("2 evicted"), "{text}");
    }

    #[test]
    fn an_idle_service_reports_a_neutral_launch_ratio() {
        let report = load_report(
            &ServeMetrics::new(1),
            &[("MI60".into(), "OpenCL".into())],
            queue_view(0, (0, 0), Vec::new()),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert!((report.comparer_launch_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(report.candidate_hit_rate(), 0.0);
    }

    #[test]
    fn comparer_variant_counts_reach_the_report() {
        let m = ServeMetrics::new(1);
        m.comparer_char_batches.store(2, Ordering::Relaxed);
        m.comparer_2bit_batches.store(5, Ordering::Relaxed);
        m.comparer_4bit_batches.store(9, Ordering::Relaxed);
        let report = load_report(
            &m,
            &[("MI60".into(), "OpenCL".into())],
            queue_view(0, (0, 0), Vec::new()),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert_eq!(report.comparer_char_batches, 2);
        assert_eq!(report.comparer_2bit_batches, 5);
        assert_eq!(report.comparer_4bit_batches, 9);
        let text = report.to_string();
        assert!(text.contains("2 char batches, 5 2-bit, 9 4-bit"), "{text}");
    }

    #[test]
    fn plan_placement_counters_reach_the_report() {
        let m = ServeMetrics::new(1);
        m.prefetch_uploads.store(12, Ordering::Relaxed);
        m.migrated_chunks.store(7, Ordering::Relaxed);
        let report = load_report(
            &m,
            &[("MI60".into(), "OpenCL".into())],
            queue_view(0, (0, 0), Vec::new()),
            PlanView {
                planned_hits: 40,
                spill_fallbacks: 2,
            },
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert_eq!(report.planned_hits, 40);
        assert_eq!(report.spill_fallbacks, 2);
        assert_eq!(report.prefetch_uploads, 12);
        assert_eq!(report.migrated_chunks, 7);
        let text = report.to_string();
        assert!(
            text.contains(
                "40 batches on planned owner, 2 spills, 12 prefetch uploads, 7 chunks migrated"
            ),
            "{text}"
        );
    }

    #[test]
    fn empty_reports_have_zero_rates() {
        let m = ServeMetrics::new(1);
        let report = load_report(
            &m,
            &[("MI60".into(), "OpenCL".into())],
            queue_view(0, (0, 0), Vec::new()),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert_eq!(report.resident_hit_rate(), 0.0);
        assert_eq!(report.result_cache_hit_rate(), 0.0);
        assert_eq!(report.h2d_skipped_bytes(), 0);
        assert_eq!(report.fairness_max_deviation(), 0.0);
    }

    fn queue_view(
        depth_high_water: usize,
        sheds: (u64, u64),
        tenants: Vec<TenantReport>,
    ) -> QueueView {
        QueueView {
            depth: 0,
            depth_high_water,
            sheds_quota: sheds.0,
            sheds_budget: sheds.1,
            tenants,
        }
    }

    fn tenant_row(id: u32, weight: u32, goodput: u64) -> TenantReport {
        TenantReport {
            id: TenantId(id),
            weight,
            admitted: 1,
            shed: 0,
            completed: 1,
            goodput_cost: goodput,
            deadline_misses: 0,
            latency_p50_ns: 0,
            latency_p95_ns: 0,
            latency_p99_ns: 0,
        }
    }

    #[test]
    fn fairness_deviation_measures_goodput_against_weights() {
        let m = ServeMetrics::new(1);
        m.jobs_shed.store(3, Ordering::Relaxed);
        let exact = load_report(
            &m,
            &[("MI60".into(), "OpenCL".into())],
            queue_view(
                0,
                (2, 1),
                vec![
                    tenant_row(1, 4, 400),
                    tenant_row(2, 2, 200),
                    tenant_row(3, 1, 100),
                ],
            ),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert!(exact.fairness_max_deviation() < 1e-12, "goodput == weights");
        assert_eq!(exact.sheds_quota, 2);
        assert_eq!(exact.sheds_budget, 1);
        let text = exact.to_string();
        assert!(text.contains("3 shed (2 quota / 1 budget)"), "{text}");
        assert!(text.contains("tenant1 (w4)"), "{text}");

        // Tenant 3 got 2x its weighted share: deviation = 1.0.
        let skewed = load_report(
            &m,
            &[("MI60".into(), "OpenCL".into())],
            queue_view(
                0,
                (0, 0),
                vec![
                    tenant_row(1, 4, 350),
                    tenant_row(2, 2, 150),
                    tenant_row(3, 1, 200),
                ],
            ),
            PlanView::default(),
            VariantReport::default(),
            CacheStats::default(),
            ResultCacheStats::default(),
            CandidateStats::default(),
        );
        assert!(
            (skewed.fairness_max_deviation() - 1.0).abs() < 1e-12,
            "got {}",
            skewed.fairness_max_deviation()
        );
    }

    #[test]
    fn windows_roll_over_and_bucket_by_timestamp() {
        let w = LatencyWindows::new(std::time::Duration::from_millis(10), 8);
        let ms = |n: u64| n * 1_000_000;
        w.note_admitted(ms(1));
        w.note_admitted(ms(4));
        w.note_depth(ms(5), 3);
        w.note_shed(ms(7));
        // Crosses into window 1; window 3 is skipped entirely.
        w.note_admitted(ms(12));
        w.note_completion(ms(15), ms(11));
        w.note_depth(ms(16), 9);
        w.note_completion(ms(41), ms(2));
        let reports = w.reports();
        assert_eq!(
            reports.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 4],
            "one bucket per touched window, gaps preserved"
        );
        assert_eq!(reports[0].admitted, 2);
        assert_eq!(reports[0].shed, 1);
        assert_eq!(reports[0].queue_depth_max, 3);
        assert_eq!(reports[0].completed, 0);
        assert_eq!(reports[1].admitted, 1);
        assert_eq!(reports[1].completed, 1);
        assert_eq!(reports[1].queue_depth_max, 9);
        assert_eq!(reports[1].latency_p99_ns, ms(11));
        assert_eq!(reports[2].completed, 1);
    }

    #[test]
    fn window_ring_drops_oldest_past_cap() {
        let w = LatencyWindows::new(std::time::Duration::from_millis(1), 2);
        w.note_admitted(0);
        w.note_admitted(1_000_000);
        w.note_admitted(2_000_000);
        let reports = w.reports();
        assert_eq!(reports.len(), 2, "cap evicts the oldest bucket");
        assert_eq!(reports[0].index, 1);
        assert_eq!(reports[1].index, 2);
    }

    #[test]
    fn late_notes_fold_into_newest_window() {
        let w = LatencyWindows::new(std::time::Duration::from_millis(1), 4);
        w.note_admitted(5_000_000);
        // A straggler stamped before the open window must not resurrect
        // a closed bucket.
        w.note_admitted(3_000_000);
        let reports = w.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].admitted, 2);
    }

    #[test]
    fn aggregate_quantiles_and_violations_span_the_ring() {
        let w = LatencyWindows::new(std::time::Duration::from_millis(1), 16);
        for (i, lat) in [10u64, 20, 30, 40].into_iter().enumerate() {
            w.note_completion(i as u64 * 1_000_000, lat);
        }
        assert_eq!(w.completions(), 4);
        assert_eq!(w.latency_quantile_ns(0.5), 20);
        assert_eq!(w.latency_quantile_ns(0.99), 40);
        assert!((w.violation_rate(25) - 0.5).abs() < 1e-12);
        assert_eq!(w.violation_rate(100), 0.0);
    }
}
