//! # casoff-serve — batch serving for off-target search
//!
//! A multi-tenant serving layer over the `cas-offinder` pipelines: many
//! concurrent query jobs (guide + PAM + mismatch threshold + assembly) are
//! admitted through a cost-budgeted priority queue, **coalesced** by the
//! [batcher] so jobs scanning the same genome chunk share one chunk upload
//! and one finder launch, scheduled across a pool of simulated devices
//! (mixing OpenCL and SYCL pipelines on Radeon VII / MI60 / MI100 specs)
//! by *earliest predicted completion* under a per-device cost model, with
//! work stealing and occupancy-derived in-flight limits, and fed from a
//! byte-budgeted LRU [cache] of packed genome chunks that the runners
//! upload packed and decode on-device — **2-bit** while a chunk's
//! exceptions stay rare and compare-safe, **4-bit nibbles** for
//! exception-dense chunks so none of them falls back to the char comparer.
//! Bulge-aware searches
//! (`JobSpec::with_bulges`) are expanded into per-variant unit searches by
//! the batcher and served as one job.
//!
//! Two further layers avoid repeating work the pool already did. Devices
//! keep a budget of **resident chunk payloads** (`resident_chunks`): the
//! scheduler prices uploads at zero for chunks a device still holds, so
//! repeat chunks steer back to the device that uploaded them and the
//! runner skips the transfer outright. And a **content-addressed result
//! store** (`result_cache_bytes`) keyed by a canonical digest of the spec
//! serves repeat jobs straight from memory — concurrent identical specs
//! coalesce onto a single in-flight compute. The per-device cost model is
//! calibrated at startup from profiler-measured kernel rates rather than
//! hand-set constants.
//!
//! The front end is **multi-tenant and QoS-aware**. Every job carries a
//! [`TenantId`]; the admission [queue] keeps one FIFO sub-queue per tenant
//! and drains them by *weighted deficit round-robin* with the calibrated
//! per-job cost as the quantum currency, so device time follows configured
//! [`TenantConfig`] weights rather than submission rates. Per-tenant
//! in-flight quotas (defaulting to the weighted share of the cost budget)
//! make load shedding graceful and ordered: over-quota tenants shed first,
//! with a typed [`SubmitError::Shed`] retry hint. Jobs may carry a
//! deadline ([`JobSpec::with_deadline`]); admission consults the
//! calibrated device models and rejects infeasible deadlines up front
//! ([`SubmitError::DeadlineInfeasible`]). Completion is non-blocking
//! ([frontend]): [`Service::poll`] never parks,
//! [`Service::on_complete`] registers a runtime-agnostic completion
//! callback, and the blocking [`Service::wait`] is a thin wrapper over the
//! same hub.
//!
//! Results are byte-identical to the serial pipelines regardless of
//! arrival order or scheduling (see [`service`] for the argument), and the
//! service exposes [metrics] for admission, coalescing, cache
//! effectiveness, per-device utilization, and per-tenant QoS (goodput,
//! shed rate, deadline misses, latency percentiles).
//!
//! For load testing and capacity work, [trace] generates seeded,
//! replayable open-loop traffic (bursty / diurnal / tenant-shift /
//! hot-spot phases; the same [`TraceSpec`] always submits byte-identical
//! job sequences), [metrics] keeps a ring of time-bucketed latency
//! windows (p50/p95/p99 and queue-depth timelines via
//! [`Service::latency_windows`]), and [autoscale] scales the device pool
//! against a predicted-queue-delay SLO — drain-before-retire on the way
//! down, minimal-migration shard replans both ways — so the fleet
//! follows load instead of being sized for the peak.
//!
//! ```
//! use casoff_serve::{JobSpec, Service, ServiceConfig};
//!
//! let assembly = genome::synth::hg38_mini(0.002);
//! let mut config = ServiceConfig::paper_pool();
//! config.chunk_size = 1 << 10;
//! let service = Service::start(config, vec![assembly]);
//! let id = service
//!     .submit(JobSpec::new(
//!         "hg38-mini",
//!         b"NNNNNNNNNRG".to_vec(),
//!         b"ACGTACGTNNN".to_vec(),
//!         3,
//!     ))
//!     .unwrap();
//! let sites = service.wait(id).unwrap();
//! println!("{} sites; {}", sites.len(), service.metrics());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod batcher;
pub mod cache;
#[cfg(test)]
mod cache_characterization;
mod calibrate;
pub mod candidates;
pub mod frontend;
pub mod job;
pub mod metrics;
pub mod queue;
mod results;
mod scheduler;
pub mod service;
pub mod shard;
pub mod tenant;
pub mod trace;

pub use autoscale::{
    AutoscaleConfig, AutoscaleReport, Autoscaler, Controller, Decision, ScaleDirection, ScaleEvent,
    WindowObservation,
};
pub use cache::{CacheStats, ChunkEncoding, GenomeCache, NIBBLE_DENSITY_THRESHOLD};
pub use candidates::{CandidateCache, CandidateKey, CandidateLookup, CandidateStats};
pub use frontend::{Poll, Ticket, WaitError};
pub use job::{Job, JobId, JobSpec, Priority};
pub use metrics::{
    DeviceReport, LatencyWindows, MetricsReport, TenantReport, VariantReport, WindowReport,
};
pub use queue::{FairJobQueue, QueueError};
pub use results::ResultCacheStats;
pub use scheduler::Placement;
pub use service::{DeviceSlot, Service, ServiceConfig, SubmitError};
pub use shard::ShardPlan;
pub use tenant::{TenantConfig, TenantId};
pub use trace::{ArrivalShape, HotSpot, PhaseSpec, TraceEvent, TraceSpec};
