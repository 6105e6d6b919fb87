//! The device pool: per-device batch queues with cost-aware placement,
//! chunk-residency affinity, occupancy-derived in-flight limits, and work
//! stealing.
//!
//! Placement is no longer "shortest queue": queue depth treats a one-job
//! batch over a small chunk the same as an eight-job batch over a full
//! chunk, and treats a consumer Radeon VII the same as an MI100 with twice
//! its throughput. Instead each device carries a [`DeviceModel`] — measured
//! per-kernel service rates (see [`crate::calibrate`]) plus overheads from
//! its [`DeviceSpec`] — and the dispatcher places every batch on the device
//! with the *earliest predicted completion*: the sum of the predicted
//! service times still pending on that device plus the batch's own
//! predicted time under that device's model.
//!
//! The model is also **residency-aware**: each device tracks the chunk
//! payloads its worker's one chunk runner keeps uploaded (a
//! [`cas_offinder::lru::Lru`] of residency tokens with the runner's budget
//! and weights), and a batch whose chunk is resident on a device is priced
//! without the chunk upload there. That discount is what
//! steers repeat chunks back to the device already holding them; an exact
//! score tie further breaks toward the resident device before falling back
//! to the lower index. The scheduler's resident set is a *prediction* —
//! the chunk runners verify the token before skipping any upload, so a
//! wrong guess costs only a mispriced batch, never a wrong result.
//!
//! Stealing cooperates with residency instead of fighting it: an idle
//! thief first looks through the victim's queue (from the back, where the
//! youngest work sits) for a batch whose chunk *it* already holds, and
//! only then takes the newest batch outright. Either way the stolen batch
//! is re-priced under the thief's model with the thief's own residency —
//! a stolen chunk that is non-resident on the thief pays the real upload.
//!
//! The properties the service relies on are unchanged: a device never
//! idles while a sibling has a backlog (stealing), and no device queue
//! grows past its in-flight limit (backpressure).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cas_offinder::kernels::specialize::specialized_model;
use cas_offinder::kernels::{ComparerKernel, VariantKind, GUIDE_BLOCK};
use cas_offinder::lru::Lru;
use cas_offinder::{Api, OptLevel};
use gpu_sim::isa::compile_program;
use gpu_sim::occupancy::occupancy;
use gpu_sim::{DeviceSpec, NdRange};

use crate::batcher::ChunkBatch;
use crate::cache::{ChunkKey, ChunkPayload, EncodedChunk};
use crate::calibrate::{kernel_rates, ClassRates, KernelRates};
use crate::candidates::{CandidateCache, CandidateKey};
use crate::results::{fnv1a64, FNV_OFFSET};
use crate::shard::ShardPlan;

/// How many of the four nucleotides an IUPAC pattern base admits.
fn iupac_degeneracy(b: u8) -> u32 {
    match b.to_ascii_uppercase() {
        b'A' | b'C' | b'G' | b'T' | b'U' => 1,
        b'R' | b'Y' | b'S' | b'W' | b'K' | b'M' => 2,
        b'B' | b'D' | b'H' | b'V' => 3,
        _ => 4,
    }
}

/// Expected fraction of scan positions the finder promotes to comparer
/// candidates. The finder sweeps every position, but each per-job comparer
/// pass only touches the loci whose PAM matched — charging comparers for
/// the full scan overestimates heavy batches badly. The fraction follows
/// from the pattern itself: a base admitting `d` of the four nucleotides
/// passes a uniform position with probability `d/4`, positions are
/// independent, and the reverse-complement scan doubles the expectation
/// (the overlap term is negligible for any selective PAM).
fn candidate_fraction(pattern: &[u8]) -> f64 {
    let per_strand: f64 = pattern
        .iter()
        .map(|&b| f64::from(iupac_degeneracy(b)) / 4.0)
        .product();
    (2.0 * per_strand).min(1.0)
}

/// How the dispatcher places batches on device queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Place each batch on the device with the earliest predicted
    /// completion under that device's cost model, discounting the chunk
    /// upload on devices that already hold the chunk; per-device in-flight
    /// limits derive from the comparer's occupancy.
    #[default]
    EarliestCompletion,
    /// Deterministic placement under an installed [`ShardPlan`]: every
    /// batch goes to its chunk's planned owner. When the owner's queue
    /// sits at its occupancy-derived in-flight limit, the dispatcher
    /// spills to earliest-completion placement only past a calibrated
    /// threshold: the owner's predicted completion (backlog plus its
    /// resident-priced run) must exceed the best sibling's (backlog plus
    /// the non-resident run, paying the real upload) — otherwise it waits
    /// for owner room, because a transiently full queue drains faster
    /// than a spilled upload costs. Work stealing is disabled — the plan,
    /// not idleness, decides ownership — so a scan's per-device work is a
    /// pure function of the plan and the calibrated models. Without an
    /// installed plan this degrades to [`Placement::EarliestCompletion`].
    Planned,
}

/// Identity of a chunk's uploaded payload: what the scheduler predicts
/// residency with and what the chunk runners verify before skipping an
/// upload. It names the chunk's *content* by the genome cache's key —
/// identical `(assembly, pattern length, chunk ordinal)` triples, and only
/// those, produce identical tokens — so a token match means the bytes
/// already on the device are the bytes this batch would upload. Patterns
/// of one length slice an assembly into the same chunks and share every
/// resident payload; patterns of different lengths never share one.
pub(crate) fn residency_token(key: &ChunkKey) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, key.assembly.as_bytes());
    h = fnv1a64(h, &[0]);
    h = fnv1a64(h, &(key.plen as u64).to_le_bytes());
    fnv1a64(h, &(key.index as u64).to_le_bytes())
}

/// Which upload + kernel combination a batch's payload selects; each class
/// is priced with its own measured rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadClass {
    /// Raw bytes: `finder` + char `comparer`.
    Raw,
    /// 2-bit packed payload: `finder_packed` + `comparer_2bit`.
    Packed2Bit,
    /// 4-bit nibble payload: `finder_nibble` + `comparer_4bit`.
    Nibble4Bit,
    /// Bias class of fused multi-guide batches (any encoding): one
    /// `comparer_multi` launch per [`GUIDE_BLOCK`]-guide block instead of
    /// one comparer launch per job. Never a payload class itself — the
    /// encoding still selects the kernels — but fused batches mispredict
    /// differently enough from serial ones to earn their own bias cell.
    MultiGuide,
}

impl PayloadClass {
    /// Number of distinct classes — sizes the per-class bias tables.
    pub(crate) const COUNT: usize = 4;

    /// Stable dense index for per-class tables.
    pub(crate) fn index(self) -> usize {
        match self {
            PayloadClass::Raw => 0,
            PayloadClass::Packed2Bit => 1,
            PayloadClass::Nibble4Bit => 2,
            PayloadClass::MultiGuide => 3,
        }
    }
}

/// The dispatcher's estimate of what a [`ChunkBatch`] costs, extracted
/// once at dispatch and re-priced per device (and per residency state).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchCost {
    /// Scan positions the finder sweeps.
    pub scan_len: usize,
    /// Pattern length (work per position, and query-table size).
    pub plen: usize,
    /// Coalesced jobs — one comparer pass each.
    pub jobs: usize,
    /// Host bytes of the encoded chunk payload — skipped when resident.
    pub chunk_bytes: usize,
    /// Which kernels the payload selects.
    pub class: PayloadClass,
    /// Expected fraction of scan positions whose PAM matches (either
    /// strand), derived from the pattern's degeneracy.
    pub candidate_fraction: f64,
    /// The chunk payload's residency token.
    pub token: u64,
    /// The batch's comparer passes run fused: one `comparer_multi` launch
    /// per [`GUIDE_BLOCK`]-guide block, priced with the measured fused
    /// rates instead of the serial per-job ones.
    pub fused: bool,
    /// `ceil(jobs / GUIDE_BLOCK)` when fused — how many comparer launches
    /// the batch actually costs (`jobs` when serial).
    pub guide_blocks: usize,
    /// The candidate cache already holds this (chunk, pattern, encoding)'s
    /// finder output, so the run skips the finder launch and its time is
    /// priced at zero.
    pub finder_cached: bool,
}

impl BatchCost {
    pub fn of(batch: &ChunkBatch) -> Self {
        Self::from_parts(
            &batch.key.pattern,
            &batch.chunk,
            batch.jobs.len(),
            residency_token(&batch.chunk_key()),
        )
    }

    /// The bias cell this batch's completions correct: fused batches share
    /// one [`PayloadClass::MultiGuide`] cell across encodings, serial
    /// batches keep their encoding's cell. The encoding class in `class`
    /// still selects the kernel rates either way.
    pub fn bias_class(&self) -> PayloadClass {
        if self.fused {
            PayloadClass::MultiGuide
        } else {
            self.class
        }
    }

    /// The cost of a (possibly hypothetical) batch of `jobs` queries of
    /// `pattern` over `chunk` — what plan predictions price without
    /// materializing a [`ChunkBatch`].
    pub fn from_parts(pattern: &[u8], chunk: &EncodedChunk, jobs: usize, token: u64) -> Self {
        let class = match chunk.payload() {
            ChunkPayload::Packed(_) => PayloadClass::Packed2Bit,
            ChunkPayload::Nibble(_) => PayloadClass::Nibble4Bit,
            ChunkPayload::Raw(_) => PayloadClass::Raw,
        };
        BatchCost {
            scan_len: chunk.scan_len,
            plen: pattern.len(),
            jobs,
            chunk_bytes: chunk.upload_byte_len(),
            class,
            candidate_fraction: candidate_fraction(pattern),
            token,
            fused: false,
            guide_blocks: jobs,
            finder_cached: false,
        }
    }
}

impl KernelRates {
    /// The measured rate set an encoding class selects — the serial
    /// flavour, or the fused multi-guide one.
    fn class(&self, class: PayloadClass, fused: bool) -> &ClassRates {
        match (class, fused) {
            (PayloadClass::Raw, false) => &self.raw,
            (PayloadClass::Raw, true) => &self.multi_raw,
            (PayloadClass::Packed2Bit, false) => &self.packed,
            (PayloadClass::Packed2Bit, true) => &self.multi_packed,
            (PayloadClass::Nibble4Bit, false) => &self.nibble,
            (PayloadClass::Nibble4Bit, true) => &self.multi_nibble,
            (PayloadClass::MultiGuide, _) => {
                unreachable!("MultiGuide is a bias class, not an encoding")
            }
        }
    }
}

/// A device's predicted service rates: measured per-kernel seconds per
/// work unit plus measured per-batch, per-job and residency overheads —
/// no hand-set constants.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviceModel {
    rates: KernelRates,
    /// Batches this device may hold queued/running before dispatch blocks —
    /// how many chunk-sized grids fit in its resident wave budget.
    pub in_flight_limit: usize,
}

impl DeviceModel {
    /// Model `spec` serving `chunk_size`-position batches through `api`'s
    /// host path with the comparer compiled at `opt`, using measured
    /// kernel rates (probing the device at that chunk size on first use,
    /// memoized per `(device, chunk size, opt, specialize, api)`). The
    /// OpenCL and SYCL hosts carry different fixed per-batch and per-job
    /// costs, so each device's rates are probed through its own chunk
    /// runner flavour. With `specialize` the
    /// occupancy-derived in-flight limit and the measured rates both come
    /// from the JIT-specialized comparer the workers actually launch —
    /// the specialized code model folds the pattern into immediates, so its
    /// register footprint (and thus occupancy) can only match or beat the
    /// generic comparer's.
    pub fn calibrated(
        spec: &DeviceSpec,
        chunk_size: usize,
        opt: OptLevel,
        specialize: bool,
        api: Api,
    ) -> Self {
        // Occupancy representative: the specialized comparer is modeled at
        // the calibration probe's pattern length (11); what matters for the
        // in-flight limit is the register/occupancy regime, not the exact
        // pattern.
        let model = if specialize {
            specialized_model(VariantKind::CharComparer, 11)
        } else {
            ComparerKernel::code_model_for(opt)
        };
        let program = compile_program(&model);
        let wgs = 64usize;
        let gws = chunk_size.div_ceil(wgs) * wgs;
        let nd = NdRange::linear(gws, wgs);
        let occ = occupancy(&program.resources(), &nd, spec);

        // Resident waves across the whole device at this occupancy, divided
        // by the waves one batch puts in flight.
        let resident = occ.waves_per_simd * spec.simds_per_cu * spec.compute_units();
        let waves_per_batch = (gws as u32).div_ceil(spec.wavefront).max(1);
        let in_flight_limit = (resident / waves_per_batch).clamp(1, 32) as usize;

        DeviceModel {
            rates: kernel_rates(spec, chunk_size, opt, specialize, api),
            in_flight_limit,
        }
    }

    /// Queue depth past which a planned owner counts as saturated and
    /// dispatch may consider spilling its chunk to a sibling: twice the
    /// occupancy-derived in-flight window — one window feeding the
    /// device, one absorbing dispatch-vs-drain jitter. Below it the
    /// owner takes its chunks unconditionally; queueing deeper on the
    /// planned owner is almost always cheaper than re-uploading the
    /// chunk elsewhere.
    pub fn spill_threshold(&self) -> usize {
        self.in_flight_limit * 2
    }

    /// Predicted wall-clock service time of a batch on this device: the
    /// class's measured fixed batch cost, the measured marginal cost per
    /// coalesced job, the finder and comparer passes at their measured
    /// kernel rates, and the chunk payload bytes at the measured
    /// interconnect slope. With `resident`, the chunk payload moves no
    /// bytes and its measured fixed transfer cost is discounted — only the
    /// per-batch query tables (inside the per-job terms) still move.
    ///
    /// A `fused` batch is priced with the class rates measured through the
    /// multi-guide runner instead: the per-job marginal shrinks to a query
    /// table and its slice of one block launch, and the comparer rate is
    /// the fused kernel's. A `finder_cached` batch prices its finder pass
    /// at zero — the run replays the cached candidate list.
    pub fn predict_s(&self, cost: &BatchCost, resident: bool) -> f64 {
        let class = self.rates.class(cost.class, cost.fused);
        let scan_units = (cost.scan_len * cost.plen) as f64;
        let chunk = if resident {
            -class.resident_discount_s
        } else {
            cost.chunk_bytes as f64 * self.rates.upload_s_per_byte
        };
        let finder = if cost.finder_cached {
            0.0
        } else {
            scan_units * class.finder_s_per_unit
        };
        (class.batch_overhead_s + chunk).max(0.0)
            + cost.jobs as f64 * class.per_job_overhead_s
            + finder
            + cost.candidate_fraction * scan_units * cost.jobs as f64 * class.comparer_s_per_unit
    }

    /// Sustained admission throughput of this device in scan-position cost
    /// units per second: a representative non-resident packed batch of one
    /// `chunk_size`-position job, priced by [`Self::predict_s`]. Deadline
    /// admission sums this across the pool to translate queued cost into a
    /// predicted completion time.
    pub fn admission_units_per_s(&self, chunk_size: usize) -> f64 {
        let cost = BatchCost {
            scan_len: chunk_size,
            plen: 11,
            jobs: 1,
            chunk_bytes: chunk_size.div_ceil(4),
            class: PayloadClass::Packed2Bit,
            candidate_fraction: 0.1,
            token: 0,
            fused: false,
            guide_blocks: 1,
            finder_cached: false,
        };
        chunk_size as f64 / self.predict_s(&cost, false).max(1e-12)
    }
}

struct Pending {
    batch: ChunkBatch,
    cost: BatchCost,
    /// Bias-corrected prediction under the model of the queue the batch
    /// sits in — what pending-time accounting uses.
    predicted_s: f64,
    /// The same prediction before the bias correction — the denominator
    /// the completion report folds into the bias estimate.
    model_s: f64,
}

struct PoolInner {
    queues: Vec<VecDeque<Pending>>,
    /// Per device: sum of predicted service time queued or running.
    pending_s: Vec<f64>,
    /// Per device, per payload class: the bias correction completions fold
    /// into predictions — a decayed ratio of sums, measured service time
    /// over model-predicted. The calibrated model is the prior; the bias
    /// corrects its systematic error, so a device the model flatters stops
    /// attracting extra work. The correction is per class because the
    /// classes run different kernels — a scalar bias settles between their
    /// ratios and stays wrong for every class of a mixed workload.
    bias: Vec<[f64; PayloadClass::COUNT]>,
    /// Decayed sums of model-predicted (`.0`) and measured (`.1`) service
    /// seconds backing each bias cell.
    bias_sums: Vec<[(f64, f64); PayloadClass::COUNT]>,
    /// Per device: the predicted resident chunk tokens, weighted 1 each
    /// under the runner's `resident_chunks` budget, as the runner weighs
    /// its store. Predictive only — the runner's token check is the guard.
    residency: Vec<Lru<u64, ()>>,
    /// That budget; 0 disables residency.
    resident_budget: usize,
    /// Per device: in the fleet? Out-of-fleet devices receive no new
    /// placements (planned, fallback, or stolen); already-queued batches
    /// still drain through their worker.
    active: Vec<bool>,
    closed: bool,
}

impl PoolInner {
    /// Whether `device` is predicted to hold the chunk `token` names.
    fn resident(&self, device: usize, token: u64) -> bool {
        self.residency[device].peek(&token).is_some()
    }

    /// Predict that `device` holds `token`'s chunk from now on, as its most
    /// recently used payload (nothing, with residency off).
    fn note_resident(&mut self, device: usize, token: u64) {
        if self.resident_budget != 0 {
            self.residency[device].insert(token, (), 1);
        }
    }
}

/// A pool of `n` device work queues shared by one dispatcher and `n`
/// workers.
pub(crate) struct DevicePool {
    models: Vec<DeviceModel>,
    placement: Placement,
    /// Workers fuse multi-job comparer passes into guide-block launches,
    /// so dispatch prices multi-job batches with the fused rates.
    multi_guide: bool,
    /// The service's candidate-site cache, when enabled: dispatch peeks it
    /// to price the finder stage at zero for batches whose candidate list
    /// is already resident. Predictive only — the worker's own lookup is
    /// what actually skips the launch.
    candidates: Option<Arc<CandidateCache>>,
    /// The installed chunk→device ownership map, swapped wholesale when
    /// the fleet changes. Consulted only under [`Placement::Planned`].
    plan: Mutex<Option<Arc<ShardPlan>>>,
    /// Batches placed on their chunk's planned owner.
    planned_hits: AtomicU64,
    /// Batches a saturated owner spilled to earliest-completion placement.
    spill_fallbacks: AtomicU64,
    inner: Mutex<PoolInner>,
    /// Signalled when work arrives or the pool closes (workers wait).
    work: Condvar,
    /// Signalled when a queue drains below its limit (dispatcher waits).
    space: Condvar,
}

/// What a worker receives from [`DevicePool::next`].
pub(crate) struct Assignment {
    pub batch: ChunkBatch,
    /// Predicted service time under the executing worker's model — the
    /// worker reports it back via [`DevicePool::complete`] and the metrics
    /// compare it against the measured time.
    pub predicted_s: f64,
    /// The prediction before the bias correction — the completion report's
    /// denominator for the bias estimate.
    pub model_s: f64,
    /// Payload class of the batch — selects which bias cell the completion
    /// report corrects.
    pub class: PayloadClass,
    /// Whether the batch was *priced* with its finder skipped (the
    /// candidate cache held the chunk's list at dispatch time). The worker
    /// executes what was priced: a list published after dispatch is
    /// declined rather than silently making the batch cheaper than
    /// predicted.
    pub finder_cached: bool,
    /// True when the batch came from a sibling's queue.
    pub stolen: bool,
}

impl DevicePool {
    /// A pool over `models` with `resident_budget` predicted chunk slots
    /// per device (0 disables residency-aware pricing entirely).
    pub fn new(models: Vec<DeviceModel>, placement: Placement, resident_budget: usize) -> Self {
        assert!(!models.is_empty(), "the pool needs at least one device");
        let n = models.len();
        DevicePool {
            models,
            placement,
            multi_guide: false,
            candidates: None,
            plan: Mutex::new(None),
            planned_hits: AtomicU64::new(0),
            spill_fallbacks: AtomicU64::new(0),
            inner: Mutex::new(PoolInner {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                pending_s: vec![0.0; n],
                bias: vec![[1.0; PayloadClass::COUNT]; n],
                bias_sums: vec![[(0.0, 0.0); PayloadClass::COUNT]; n],
                residency: (0..n).map(|_| Lru::new(resident_budget)).collect(),
                resident_budget,
                active: vec![true; n],
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Price multi-job batches with the fused multi-guide rates — set this
    /// iff the workers' pipeline config enables `multi_guide`, so the
    /// prediction matches what the runners actually launch.
    pub fn with_multi_guide(mut self, on: bool) -> Self {
        self.multi_guide = on;
        self
    }

    /// Let dispatch peek `cache` to predict finder-launch skips — pass the
    /// same cache the workers consult.
    pub fn with_candidate_cache(mut self, cache: Arc<CandidateCache>) -> Self {
        self.candidates = Some(cache);
        self
    }

    /// Install (or replace) the chunk→device ownership map consulted by
    /// [`Placement::Planned`] dispatch.
    pub fn install_plan(&self, plan: Arc<ShardPlan>) {
        *self.plan.lock().unwrap() = Some(plan);
    }

    /// The currently installed plan, if any.
    pub fn plan_snapshot(&self) -> Option<Arc<ShardPlan>> {
        self.plan.lock().unwrap().clone()
    }

    /// `(planned placements, spill fallbacks)` so far.
    pub fn plan_counters(&self) -> (u64, u64) {
        (
            self.planned_hits.load(Ordering::Relaxed),
            self.spill_fallbacks.load(Ordering::Relaxed),
        )
    }

    /// Mark `device` in or out of the fleet. An out-of-fleet device takes
    /// no new placements and steals nothing, but batches already queued on
    /// it still drain through its worker — deactivation never strands work.
    ///
    /// # Panics
    ///
    /// Panics if the call would deactivate the last active device.
    pub fn set_active(&self, device: usize, active: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.active[device] = active;
        assert!(
            inner.active.iter().any(|&a| a),
            "the fleet needs at least one active device"
        );
        drop(inner);
        // Activation opens placement room and deactivation reroutes
        // planned traffic, so wake any blocked dispatcher either way.
        self.space.notify_all();
    }

    /// Mirror a worker-side prefetch upload into the scheduler's resident
    /// prediction, so planned batches get priced with the upload discount
    /// their runner will actually deliver.
    pub fn note_resident(&self, worker: usize, token: u64) {
        self.inner.lock().unwrap().note_resident(worker, token);
    }

    /// Current per-device, per-class bias corrections (the dimensionless
    /// EWMA factors completions fold into predictions) — plan predictions
    /// apply them so a pre-run makespan estimate carries the same
    /// correction dispatch uses. Index the inner array with
    /// [`PayloadClass::index`].
    pub fn bias_snapshot(&self) -> Vec<[f64; PayloadClass::COUNT]> {
        self.inner.lock().unwrap().bias.clone()
    }

    /// Per-device fleet membership, for zeroing a departed device's weight
    /// when the plan is rebuilt on fleet change.
    pub fn active_snapshot(&self) -> Vec<bool> {
        self.inner.lock().unwrap().active.clone()
    }

    /// Batches queued per device right now — the autoscaler's windowed
    /// queue-depth signal, read in one lock pass so the vector is a
    /// consistent instant across devices.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.inner
            .lock()
            .unwrap()
            .queues
            .iter()
            .map(|q| q.len())
            .collect()
    }

    /// Queue `batch` on `device`, priced under that device's model and
    /// current residency prediction, and wake the workers. Consumes the
    /// guard: the lock drops before the notify. `assume_resident` prices
    /// the chunk as already uploaded regardless of the tracked set —
    /// planned-owner placements use it, because the owner's one-pass
    /// partition prefetch runs before any of its batches do (sizing the
    /// residency budget to hold the partition is the config's contract).
    fn enqueue_locked(
        &self,
        mut inner: std::sync::MutexGuard<'_, PoolInner>,
        device: usize,
        batch: ChunkBatch,
        cost: BatchCost,
        assume_resident: bool,
    ) {
        let resident =
            (assume_resident && inner.resident_budget != 0) || inner.resident(device, cost.token);
        let model_s = self.models[device].predict_s(&cost, resident);
        let predicted_s = inner.bias[device][cost.bias_class().index()] * model_s;
        inner.pending_s[device] += predicted_s;
        // Optimistic: once queued here the chunk will be uploaded here, so
        // later siblings of this chunk see the discount.
        inner.note_resident(device, cost.token);
        inner.queues[device].push_back(Pending {
            batch,
            cost,
            predicted_s,
            model_s,
        });
        drop(inner);
        self.work.notify_all();
    }

    /// Place `batch` per the pool's [`Placement`] policy — by default on
    /// the device with the earliest predicted completion (pending predicted
    /// time + this batch's predicted time under that device's model, with
    /// the chunk upload discounted on devices predicted to hold the chunk)
    /// — blocking while every queue is at its in-flight limit. Exact ties
    /// break toward a chunk-resident device, then the lower device index.
    ///
    /// Under [`Placement::Planned`] the chunk's owner takes the batch
    /// outright up to its calibrated spill threshold — twice the
    /// occupancy-derived in-flight window, so dispatch-vs-drain jitter
    /// queues on the owner instead of scattering the partition. Past the
    /// threshold the owner is saturated and the batch spills to the
    /// earliest-completion sibling only if that sibling's predicted
    /// completion (backlog plus the run, paying the upload where
    /// non-resident) beats the owner's — and otherwise waits for owner
    /// room: a transiently full queue drains faster than a spilled upload
    /// costs.
    pub fn dispatch(&self, batch: ChunkBatch) {
        let mut cost = BatchCost::of(&batch);
        if self.multi_guide && cost.jobs > 1 {
            cost.fused = true;
            cost.guide_blocks = cost.jobs.div_ceil(GUIDE_BLOCK);
        }
        if let Some(cache) = &self.candidates {
            let key = CandidateKey::of(&batch.key.pattern, &batch.chunk);
            cost.finder_cached = cache.peek(&key);
        }
        // Resolve the planned owner before taking the queue lock: the plan
        // is an immutable snapshot, swapped wholesale on fleet change.
        let owner = match self.placement {
            Placement::Planned => self
                .plan_snapshot()
                .map(|plan| plan.owner_of(&batch.key.assembly, batch.chunk_index)),
            _ => None,
        };
        let mut inner = self.inner.lock().unwrap();
        loop {
            // Planned placement: an in-fleet owner below its spill
            // threshold takes the batch outright, no scoring.
            let owner_active = owner.filter(|&o| inner.active[o]);
            if let Some(o) = owner_active {
                if inner.queues[o].len() < self.models[o].spill_threshold() {
                    // Priced resident: the owner prefetches its partition
                    // before running any of it.
                    self.enqueue_locked(inner, o, batch, cost, true);
                    self.planned_hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            let mut best: Option<(usize, f64, bool)> = None;
            for (i, model) in self.models.iter().enumerate() {
                if !inner.active[i] {
                    continue;
                }
                if inner.queues[i].len() >= model.in_flight_limit {
                    continue;
                }
                let resident = inner.resident(i, cost.token);
                let score = inner.pending_s[i]
                    + inner.bias[i][cost.bias_class().index()] * model.predict_s(&cost, resident);
                let better = match best {
                    None => true,
                    Some((_, t, r)) => score < t || (score == t && resident && !r),
                };
                if better {
                    best = Some((i, score, resident));
                }
            }
            match (owner_active, best) {
                // Owner in fleet but full: spill only when the sibling's
                // predicted completion beats the owner's — the sibling pays
                // the real upload where non-resident, the owner prices its
                // backlog plus a (usually resident) run. Otherwise wait for
                // owner room rather than scatter the partition.
                (Some(o), Some((device, eta, _))) => {
                    let resident = inner.resident_budget != 0 || inner.resident(o, cost.token);
                    let owner_eta = inner.pending_s[o]
                        + inner.bias[o][cost.bias_class().index()]
                            * self.models[o].predict_s(&cost, resident);
                    if eta < owner_eta {
                        self.enqueue_locked(inner, device, batch, cost, false);
                        self.spill_fallbacks.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                // No usable owner (none planned, or it left the fleet):
                // plain earliest-completion placement. A rerouted planned
                // batch still counts as a spill.
                (None, Some((device, _, _))) => {
                    self.enqueue_locked(inner, device, batch, cost, false);
                    if owner.is_some() {
                        self.spill_fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
                _ => {}
            }
            inner = self.space.wait(inner).unwrap();
        }
    }

    /// Fetch the next batch for `worker`: its own queue first, then the
    /// sibling with the most predicted pending work. The thief prefers the
    /// youngest victim batch whose chunk the thief already holds, else the
    /// youngest outright; either way the steal is re-priced under the
    /// thief's model and residency, and its pending time moves with it.
    /// Blocks while the pool is empty; returns `None` once closed *and*
    /// drained.
    pub fn next(&self, worker: usize) -> Option<Assignment> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let inner_ref = &mut *inner;
            if let Some(p) = inner_ref.queues[worker].pop_front() {
                inner_ref.note_resident(worker, p.cost.token);
                drop(inner);
                self.space.notify_all();
                return Some(Assignment {
                    class: p.cost.bias_class(),
                    finder_cached: p.cost.finder_cached,
                    batch: p.batch,
                    predicted_s: p.predicted_s,
                    model_s: p.model_s,
                    stolen: false,
                });
            }
            // Planned placement disables stealing outright — ownership is
            // the plan's call, not idleness's — and a device out of the
            // fleet must not pull new work either way.
            let may_steal = self.placement != Placement::Planned && inner_ref.active[worker];
            let victim = may_steal
                .then(|| {
                    inner_ref
                        .queues
                        .iter()
                        .enumerate()
                        .filter(|&(i, q)| i != worker && !q.is_empty())
                        .max_by(|&(i, _), &(j, _)| {
                            inner_ref.pending_s[i].total_cmp(&inner_ref.pending_s[j])
                        })
                        .map(|(i, _)| i)
                })
                .flatten();
            if let Some(v) = victim {
                let queue = &inner_ref.queues[v];
                let pick = queue
                    .iter()
                    .rposition(|p| inner_ref.resident(worker, p.cost.token))
                    .unwrap_or(queue.len() - 1);
                let p = inner_ref.queues[v]
                    .remove(pick)
                    .expect("pick is in bounds of a non-empty queue");
                inner_ref.pending_s[v] = (inner_ref.pending_s[v] - p.predicted_s).max(0.0);
                let resident = inner_ref.resident(worker, p.cost.token);
                let model_s = self.models[worker].predict_s(&p.cost, resident);
                let predicted_s = inner_ref.bias[worker][p.cost.bias_class().index()] * model_s;
                inner_ref.pending_s[worker] += predicted_s;
                inner_ref.note_resident(worker, p.cost.token);
                drop(inner);
                self.space.notify_all();
                return Some(Assignment {
                    class: p.cost.bias_class(),
                    finder_cached: p.cost.finder_cached,
                    batch: p.batch,
                    predicted_s,
                    model_s,
                    stolen: true,
                });
            }
            if inner.closed {
                return None;
            }
            inner = self.work.wait(inner).unwrap();
        }
    }

    /// Retire a finished batch's predicted time from `worker`'s pending
    /// total and fold the measured service time into the device's bias
    /// correction for `class`. Called by the worker after running an
    /// [`Assignment`].
    pub fn complete(
        &self,
        worker: usize,
        class: PayloadClass,
        predicted_s: f64,
        model_s: f64,
        measured_s: f64,
    ) {
        let mut inner = self.inner.lock().unwrap();
        inner.pending_s[worker] = (inner.pending_s[worker] - predicted_s).max(0.0);
        if model_s > 0.0 && measured_s > 0.0 {
            // The bias is a decayed ratio of sums — total measured seconds
            // over total model-predicted seconds — not a mean of per-batch
            // ratios. Per-batch ratios within a class disperse widely (the
            // model prices comparer work from the pattern's expected
            // candidate fraction; real chunks deviate either way), and a
            // per-batch EWMA chases whichever chunks finished last. The
            // ratio of sums weighs every batch by its predicted size, which
            // is exactly the correction that makes aggregate busy-time
            // predictions (plan makespans) land. The decay keeps it
            // adaptive: a device whose real rates drift re-converges within
            // ~1/(1-GAMMA) completions. Clamped so a pathological burst
            // cannot run the correction away from the calibrated model.
            const GAMMA: f64 = 0.98;
            let cell = &mut inner.bias_sums[worker][class.index()];
            cell.0 = cell.0 * GAMMA + model_s;
            cell.1 = cell.1 * GAMMA + measured_s;
            let ratio = (cell.1 / cell.0).clamp(0.25, 4.0);
            inner.bias[worker][class.index()] = ratio;
        }
        drop(inner);
        // A completion shrinks this device's predicted backlog, which can
        // flip a planned dispatcher's wait-vs-spill comparison.
        self.space.notify_all();
    }

    /// Close the pool: queued batches still drain, then workers see `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.work.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{BatchJob, BatchKey};
    use crate::cache::{ChunkEncoding, EncodedChunk};
    use cas_offinder::Query;
    use std::sync::Arc;

    fn model(spec: &DeviceSpec) -> DeviceModel {
        DeviceModel::calibrated(spec, 1 << 13, OptLevel::Base, false, Api::OpenCl)
    }

    fn batch_with(index: usize, scan_len: usize, jobs: usize) -> ChunkBatch {
        ChunkBatch {
            key: BatchKey {
                assembly: "a".into(),
                pattern: b"NNNNNNNNNRG".to_vec(),
            },
            chunk_index: index,
            chunk: Arc::new(EncodedChunk::encode(
                0,
                "chr1".into(),
                0,
                scan_len,
                &vec![b'A'; scan_len + 11],
                ChunkEncoding::Adaptive,
            )),
            jobs: (0..jobs)
                .map(|i| BatchJob {
                    id: i as u64,
                    query: Query::new(b"ACGTACGTNNN".to_vec(), 1),
                })
                .collect(),
        }
    }

    fn batch(index: usize) -> ChunkBatch {
        batch_with(index, 4, 1)
    }

    #[test]
    fn identical_devices_and_batches_round_robin() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 0);
        for i in 0..4 {
            pool.dispatch(batch(i));
        }
        // Equal predictions: earliest-completion placement alternates 0,1,0,1.
        let a = pool.next(0).unwrap();
        assert!(!a.stolen);
        assert_eq!(a.batch.chunk_index, 0);
        assert!(a.predicted_s > 0.0);
        let b = pool.next(1).unwrap();
        assert!(!b.stolen);
        assert_eq!(b.batch.chunk_index, 1);
    }

    #[test]
    fn a_heavy_batch_skips_the_shorter_queue_for_a_faster_device() {
        // Worker 0 = Radeon VII, worker 1 = MI100 (~1.7x the cycle slots).
        let pool = DevicePool::new(
            vec![
                model(&DeviceSpec::radeon_vii()),
                model(&DeviceSpec::mi100()),
            ],
            Placement::default(),
            0,
        );
        // A light batch lands on the faster (empty) MI100.
        pool.dispatch(batch_with(0, 512, 1));
        // The heavy batch sees RVII with the *shorter* (empty) queue, but
        // MI100's queued light batch plus the heavy batch still finishes
        // sooner than the heavy batch alone would on the RVII.
        pool.dispatch(batch_with(1, 8192, 8));
        let first = pool.next(1).unwrap();
        assert!(!first.stolen);
        assert_eq!(first.batch.chunk_index, 0, "light batch went to MI100");
        let second = pool.next(1).unwrap();
        assert!(!second.stolen);
        assert_eq!(
            second.batch.chunk_index, 1,
            "heavy batch also chose MI100 over the empty RVII queue"
        );
        assert!(second.predicted_s > first.predicted_s);
    }

    #[test]
    fn in_flight_limits_derive_from_occupancy_and_batch_footprint() {
        let spec = DeviceSpec::mi60();
        let small = DeviceModel::calibrated(&spec, 64, OptLevel::Base, false, Api::OpenCl);
        let large = DeviceModel::calibrated(&spec, 1 << 13, OptLevel::Base, false, Api::OpenCl);
        assert!(small.in_flight_limit >= large.in_flight_limit);
        assert!(large.in_flight_limit >= 1);
        // A bigger device sustains more in-flight chunks than a smaller one.
        let rvii = DeviceModel::calibrated(
            &DeviceSpec::radeon_vii(),
            1 << 13,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let mi100 = DeviceModel::calibrated(
            &DeviceSpec::mi100(),
            1 << 13,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        assert!(mi100.in_flight_limit >= rvii.in_flight_limit);
    }

    #[test]
    fn idle_workers_steal_from_the_most_loaded_sibling() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 3], Placement::default(), 0);
        for i in 0..4 {
            pool.dispatch(batch(i)); // earliest-completion: 0,1,2,0
        }
        // Worker 2 drains its own then steals from worker 0 (most pending).
        assert!(!pool.next(2).unwrap().stolen);
        let stolen = pool.next(2).unwrap();
        assert!(stolen.stolen);
        assert_eq!(stolen.batch.chunk_index, 3, "steals from the back");
        assert!(
            stolen.predicted_s > 0.0,
            "re-priced under the thief's model"
        );
    }

    #[test]
    fn dispatch_blocks_at_the_per_device_in_flight_limit() {
        let mut m = model(&DeviceSpec::mi60());
        m.in_flight_limit = 2;
        let pool = Arc::new(DevicePool::new(vec![m], Placement::default(), 0));
        pool.dispatch(batch(0));
        pool.dispatch(batch(1));
        let p2 = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            p2.dispatch(batch(2)); // must block until next() frees a slot
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "dispatch must be blocked at the limit");
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 0);
        t.join().unwrap();
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 1);
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 2);
    }

    #[test]
    fn completed_batches_release_their_pending_time() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 0);
        pool.dispatch(batch(0));
        let a = pool.next(0).unwrap();
        pool.complete(0, a.class, a.predicted_s, a.model_s, a.predicted_s);
        // With device 0 idle again, the next identical batch ties and the
        // tie breaks toward device 0 — nothing was left pending.
        pool.dispatch(batch(1));
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 1);
    }

    #[test]
    fn close_drains_then_terminates() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 0);
        pool.dispatch(batch(0));
        pool.close();
        assert!(pool.next(0).is_some());
        assert!(pool.next(0).is_none());
        assert!(pool.next(1).is_none());
    }

    #[test]
    fn repeat_chunks_steer_to_the_device_holding_them() {
        // Two identical devices; without residency the tie sends chunk 7 to
        // device 0. Seed chunk 7 as resident on device 1: the upload
        // discount makes device 1 strictly cheaper, beating the index tie.
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 4);
        let b = batch(7);
        pool.note_resident(1, residency_token(&b.chunk_key()));
        pool.dispatch(b);
        let a = pool.next(1).unwrap();
        assert!(!a.stolen, "placed on the resident device, not stolen");
        assert_eq!(a.batch.chunk_index, 7);
        // And the placed prediction carries the discount: strictly cheaper
        // than the same batch priced non-resident on the same model.
        let cost = BatchCost::of(&batch(7));
        assert!(a.predicted_s < pool.models[1].predict_s(&cost, false));
        assert!((a.predicted_s - pool.models[1].predict_s(&cost, true)).abs() < 1e-15);
    }

    #[test]
    fn stolen_non_resident_chunks_pay_the_full_upload() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 4);
        pool.dispatch(batch(3)); // ties to device 0, predicted resident there
        let a = pool.next(1).unwrap(); // worker 1 is idle and steals it
        assert!(a.stolen);
        let cost = BatchCost::of(&batch(3));
        // Fresh pool: bias is 1.0, so the re-price is exactly the thief's
        // non-resident prediction — the upload is charged for real.
        assert!((a.predicted_s - pool.models[1].predict_s(&cost, false)).abs() < 1e-15);
        assert!(a.predicted_s > pool.models[1].predict_s(&cost, true));
    }

    #[test]
    fn thieves_prefer_victim_batches_whose_chunk_they_hold() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 4);
        // Pin both batches onto device 0 by inflating device 1's backlog.
        pool.inner.lock().unwrap().pending_s[1] = 1.0;
        pool.dispatch(batch(7));
        pool.dispatch(batch(8));
        {
            let mut inner = pool.inner.lock().unwrap();
            inner.pending_s[1] = 0.0;
            inner.note_resident(1, residency_token(&batch(7).chunk_key()));
        }
        let a = pool.next(1).unwrap();
        assert!(a.stolen);
        assert_eq!(
            a.batch.chunk_index, 7,
            "steals the chunk it holds, not the youngest"
        );
        let cost = BatchCost::of(&batch(7));
        assert!((a.predicted_s - pool.models[1].predict_s(&cost, true)).abs() < 1e-15);
    }

    #[test]
    fn resident_sets_evict_least_recently_used_tokens() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60())], Placement::default(), 2);
        // 1 is refreshed, so 3 evicts 2.
        for token in [1, 2, 1, 3] {
            pool.note_resident(0, token);
        }
        let inner = pool.inner.lock().unwrap();
        assert!(inner.resident(0, 1));
        assert!(!inner.resident(0, 2));
        assert!(inner.resident(0, 3));
        let off = DevicePool::new(vec![model(&DeviceSpec::mi60())], Placement::default(), 0);
        off.note_resident(0, 1);
        assert!(
            !off.inner.lock().unwrap().resident(0, 1),
            "budget 0 disables residency"
        );
    }

    /// A plan over the tests' `"a"` assembly (`n` chunks) with one weight
    /// per device.
    fn plan(weights: &[f64], chunks: usize) -> Arc<ShardPlan> {
        Arc::new(ShardPlan::build(weights, &[("a".to_string(), chunks)]))
    }

    #[test]
    fn planned_placement_steers_every_chunk_to_its_owner() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::Planned, 4);
        pool.install_plan(plan(&[1.0, 1.0], 4));
        // Chunks 0-1 belong to device 0, chunks 2-3 to device 1 — dispatch
        // out of range order to prove it is the plan deciding, not scores.
        for index in [2, 0, 3, 1] {
            pool.dispatch(batch(index));
        }
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 0);
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 1);
        assert_eq!(pool.next(1).unwrap().batch.chunk_index, 2);
        assert_eq!(pool.next(1).unwrap().batch.chunk_index, 3);
        assert_eq!(pool.plan_counters(), (4, 0), "all planned, no spills");
    }

    #[test]
    fn saturated_owner_spills_to_earliest_completion_and_pays_the_upload() {
        // Device 0 owns every chunk but can hold only one batch in
        // flight, so its spill threshold is two queued batches.
        let mut owner = model(&DeviceSpec::mi60());
        owner.in_flight_limit = 1;
        assert_eq!(owner.spill_threshold(), 2);
        let pool = DevicePool::new(
            vec![owner, model(&DeviceSpec::mi60())],
            Placement::Planned,
            4,
        );
        pool.install_plan(plan(&[1.0, 0.0], 8));
        pool.dispatch(batch(0)); // fills the in-flight window
        pool.dispatch(batch(1)); // still below the spill threshold
        pool.dispatch(batch(2)); // owner saturated: must spill, not block
        let spilled = pool.next(1).unwrap();
        assert!(!spilled.stolen, "spill is a placement, not a steal");
        assert_eq!(spilled.batch.chunk_index, 2);
        // The spilled batch is non-resident on the fallback device, so its
        // price carries the real chunk upload.
        let cost = BatchCost::of(&batch(2));
        assert!((spilled.predicted_s - pool.models[1].predict_s(&cost, false)).abs() < 1e-15);
        assert!(spilled.predicted_s > pool.models[1].predict_s(&cost, true));
        assert_eq!(pool.plan_counters(), (2, 1));
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 0);
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 1);
    }

    #[test]
    fn a_saturated_owner_spills_a_full_workload_without_deadlock() {
        // Device 0 owns every chunk but never drains its queue: once the
        // owner's spill threshold (two batches) fills, every dispatch
        // finds the owner saturated and must spill to the fallback — whose predicted
        // completion only beats the owner's while its own backlog is
        // clear, so the dispatcher alternates spill / block-for-space in
        // lockstep with the fallback worker's completions. The workload
        // draining completely is the no-deadlock proof; a stuck
        // wait-vs-spill comparison would hang this test.
        let mut owner = model(&DeviceSpec::mi60());
        owner.in_flight_limit = 1;
        let pool = Arc::new(DevicePool::new(
            vec![owner, model(&DeviceSpec::mi60())],
            Placement::Planned,
            64,
        ));
        pool.install_plan(plan(&[1.0, 0.0], 64));
        // Every spilled batch pays the real upload: non-resident price
        // under the fallback's model (bias stays 1.0 because the worker
        // reports measured == predicted).
        let expect_spill_s = pool.models[1].predict_s(&BatchCost::of(&batch(1)), false);
        let drained = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut n = 0;
                while let Some(a) = pool.next(1) {
                    assert!(!a.stolen, "spills are placements, not steals");
                    assert!(
                        (a.predicted_s - expect_spill_s).abs() < 1e-15,
                        "spilled batches pay the non-resident upload price"
                    );
                    pool.complete(1, a.class, a.predicted_s, a.model_s, a.predicted_s);
                    n += 1;
                }
                n
            })
        };
        for i in 0..64 {
            pool.dispatch(batch(i));
        }
        pool.close();
        assert_eq!(drained.join().unwrap(), 62, "owner kept two, rest spilled");
        assert_eq!(pool.plan_counters(), (2, 62));
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 0);
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 1);
    }

    #[test]
    fn planned_placement_disables_stealing() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::Planned, 4);
        pool.install_plan(plan(&[1.0, 0.0], 8));
        pool.dispatch(batch(0));
        pool.close();
        // Worker 1 idles next to a backlog it would previously have stolen.
        assert!(pool.next(1).is_none(), "no steal under planned placement");
        assert_eq!(pool.next(0).unwrap().batch.chunk_index, 0);
    }

    #[test]
    fn deactivated_devices_receive_no_placements() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 0);
        pool.set_active(1, false);
        for i in 0..4 {
            pool.dispatch(batch(i));
        }
        // Without the deactivation the round-robin tie would alternate.
        for i in 0..4 {
            let a = pool.next(0).unwrap();
            assert!(!a.stolen);
            assert_eq!(a.batch.chunk_index, i);
        }
    }

    #[test]
    #[should_panic(expected = "at least one active device")]
    fn the_last_active_device_cannot_be_deactivated() {
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60()); 2], Placement::default(), 0);
        pool.set_active(0, false);
        pool.set_active(1, false);
    }

    #[test]
    fn fused_and_cached_costs_reprice_the_batch() {
        let m = model(&DeviceSpec::mi60());
        let mut cost = BatchCost::of(&batch_with(0, 4096, 8));
        assert_eq!(cost.bias_class(), PayloadClass::Packed2Bit);
        let serial = m.predict_s(&cost, false);

        cost.fused = true;
        cost.guide_blocks = 1;
        assert_eq!(
            cost.bias_class(),
            PayloadClass::MultiGuide,
            "fused batches train the multi-guide bias cell"
        );
        let fused = m.predict_s(&cost, false);
        assert!(fused.is_finite() && fused > 0.0);
        assert_ne!(
            fused.to_bits(),
            serial.to_bits(),
            "fused batches price through the measured multi rates"
        );

        cost.finder_cached = true;
        let cached = m.predict_s(&cost, false);
        assert!(
            cached < fused,
            "a cached candidate list prices the finder at zero: {cached} vs {fused}"
        );
    }

    #[test]
    fn dispatch_marks_fused_batches_and_peeks_the_candidate_cache() {
        let cache = Arc::new(CandidateCache::new(1 << 16));
        let pool = DevicePool::new(vec![model(&DeviceSpec::mi60())], Placement::default(), 0)
            .with_multi_guide(true)
            .with_candidate_cache(Arc::clone(&cache));

        pool.dispatch(batch_with(0, 64, 4));
        let a = pool.next(0).unwrap();
        assert_eq!(a.class, PayloadClass::MultiGuide, "coalesced batches fuse");
        assert!(!a.finder_cached, "nothing published yet");

        // Publish the chunk's (empty) list; the identical batch now prices
        // its finder at zero and the assignment carries that decision.
        let again = batch_with(0, 64, 4);
        let key = CandidateKey::of(&again.key.pattern, &again.chunk);
        match cache.lookup_or_lead(&key) {
            crate::candidates::CandidateLookup::Lead => cache.publish(
                &key,
                Arc::new(cas_offinder::pipeline::chunk::CandidateSites {
                    loci: Vec::new(),
                    flags: Vec::new(),
                }),
            ),
            crate::candidates::CandidateLookup::Hit(_) => unreachable!("first lookup leads"),
        }
        pool.dispatch(again);
        let b = pool.next(0).unwrap();
        assert!(b.finder_cached, "dispatch peeks the published list");
        assert!(
            b.predicted_s < a.predicted_s,
            "the cached batch is cheaper: {} vs {}",
            b.predicted_s,
            a.predicted_s
        );

        // A single-job batch stays serial even with fusion enabled.
        pool.dispatch(batch_with(1, 64, 1));
        let c = pool.next(0).unwrap();
        assert_eq!(c.class, PayloadClass::Packed2Bit);
    }

    #[test]
    fn residency_tokens_name_chunk_content_not_the_pattern() {
        let token = |assembly: &str, pattern: &[u8], index| {
            let key = BatchKey {
                assembly: assembly.into(),
                pattern: pattern.to_vec(),
            };
            let b = ChunkBatch {
                key,
                chunk_index: index,
                ..batch(index)
            };
            residency_token(&b.chunk_key())
        };
        let t = token("a", b"NGG", 3);
        assert_eq!(t, token("a", b"NGG", 3), "stable across calls");
        assert_ne!(t, token("a", b"NGG", 4));
        assert_ne!(t, token("b", b"NGG", 3));
        assert_eq!(t, token("a", b"NAG", 3), "equal lengths share the chunk");
        assert_ne!(t, token("a", b"NNGG", 3), "other lengths slice it anew");
    }
}
