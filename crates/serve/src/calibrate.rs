//! Cost-model calibration: measure batch service costs instead of
//! hand-tuning them.
//!
//! The scheduler's earlier cost model priced work in "cycles per unit"
//! and weighted the 2-bit comparer with a hand-set constant; the packed
//! path's prediction error (0.52 mean |predicted − measured| / busy) was
//! nearly three times the raw path's because those constants were fit to
//! the raw kernels. This module replaces them with measurements taken
//! through the real chunk runner of the device's own API at first use of
//! a `(device, chunk size, opt, specialize, api)` key:
//!
//! * per-kernel seconds-per-work-unit for the finder and comparer of each
//!   payload class, read from the runner's finder and comparer timing
//!   counters;
//! * fixed per-batch and marginal per-job overheads (query-table uploads,
//!   counter fills, result readbacks, launch costs), obtained by running
//!   the same probe batch with one and with two coalesced queries and
//!   differencing whole-batch device time — the same quantity the serving
//!   workers later compare predictions against;
//! * the fixed cost a resident chunk payload avoids, measured directly as
//!   the gap between a resident miss and a resident hit of the same run;
//! * a per-byte upload slope from two timed buffer writes.
//!
//! The probe deliberately mirrors the serving regime rather than a
//! synthetic extreme: it scans a chunk of the *serving* chunk size (kernel
//! time per work unit is not scale-free — small grids leave wave slots
//! idle and amortize launch latency worse), uses a realistic PAM pattern
//! over pseudo-random bases (so the comparer runs over a typical candidate
//! population, not all positions), and realistic mismatch thresholds (so
//! result readbacks are as rare as in production). The result is memoized
//! for the process lifetime, so the cost is paid once per device model.
//!
//! That memoization is load-bearing for [autoscaling](crate::autoscale):
//! the controller prices hypothetical fleets — "would adding the MI100
//! bring predicted queue delay under the SLO?" — from the per-device
//! admission rates derived here, and re-activating a drained device must
//! not stall admissions behind a fresh probe. Because every device model
//! in the pool is calibrated once at [`Service::start`](crate::Service),
//! scale-up decisions and post-scale replans read cached rates and take
//! effect within one controller window.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use cas_offinder::pipeline::chunk::{Backend, ChunkRunner, OpenCl, Payload, Sites, Sycl};
use cas_offinder::pipeline::PipelineConfig;
use cas_offinder::{Api, OptLevel, Query, TimingBreakdown};
use genome::fourbit::NibbleSeq;
use genome::rng::Xoshiro256;
use genome::twobit::PackedSeq;
use gpu_sim::profile::Profile;
use gpu_sim::{DeviceSpec, ExecMode};
use opencl_rt::{ClBuffer, ClDeviceId, CommandQueue, Context, MemFlags};

/// Probe pattern: nine `N`s and an `RG` PAM, the workload the paper
/// searches for. The PAM admits roughly a quarter of positions across
/// both strands, so the comparer is timed over a candidate population of
/// serving-like size (the measured count from the probe run is what the
/// rate divides by, not an assumption).
const PROBE_PATTERN: &[u8] = b"NNNNNNNNNRG";

/// Residency token for the probe chunk — any value works; the probe
/// runner holds exactly one chunk.
const PROBE_TOKEN: u64 = 0x5EED;

/// Measured service costs for one payload class (raw chars, 2-bit packed,
/// or 4-bit nibbles) on one device.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassRates {
    /// Finder kernel seconds per pattern base per scan position.
    pub finder_s_per_unit: f64,
    /// Comparer kernel seconds per pattern base per candidate locus.
    pub comparer_s_per_unit: f64,
    /// Fixed whole-batch cost outside the kernels and the chunk payload
    /// bytes: counter fills and reads, launch costs, the chunk's fixed
    /// per-transfer charges.
    pub batch_overhead_s: f64,
    /// Marginal cost of one more coalesced job beyond its comparer kernel
    /// time: its query-table upload, counter round-trips and readbacks.
    pub per_job_overhead_s: f64,
    /// Fixed cost a resident chunk avoids (the payload's per-transfer
    /// charges; the avoided bytes are priced by the upload slope).
    pub resident_discount_s: f64,
}

/// Measured device service rates: one [`ClassRates`] per payload class —
/// serial and fused-multi-guide flavours — plus the marginal upload cost
/// per byte on the interconnect.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelRates {
    /// Raw one-byte-per-base chunks (`finder` + `comparer`).
    pub raw: ClassRates,
    /// 2-bit packed chunks (`finder_packed` + `comparer-2bit`).
    pub packed: ClassRates,
    /// 4-bit nibble chunks (`finder_nibble` + `comparer-4bit`).
    pub nibble: ClassRates,
    /// Raw chunks through the fused multi-guide comparer
    /// (`comparer_multi`): the per-job marginal is a query table and a
    /// slice of one block launch, not a launch of its own.
    pub multi_raw: ClassRates,
    /// 2-bit packed chunks through `comparer_multi-2bit`.
    pub multi_packed: ClassRates,
    /// 4-bit nibble chunks through `comparer_multi-4bit`.
    pub multi_nibble: ClassRates,
    /// Marginal upload cost per byte.
    pub upload_s_per_byte: f64,
}

/// Rates for `spec`'s device serving `chunk_size`-position batches with
/// the comparer compiled at `opt`, measuring on first use and memoized
/// thereafter. Probes run through the chunk runner of the device's own
/// `api`: the OpenCL and SYCL hosts pay different fixed costs per batch
/// (explicit `clEnqueueWriteBuffer` query-table uploads versus implicit
/// first-access accessor transfers, different launch sequences), and a
/// single multiplicative bias cannot fit both across varying coalescing
/// widths — so each API gets rates measured through its own host path.
/// With `specialize` the probe runner prefers the JIT-specialized
/// per-(pattern, threshold) kernel variants, so the measured rates price
/// the specialized code the serving workers actually launch — a separate
/// memo entry from the generic rates.
pub(crate) fn kernel_rates(
    spec: &DeviceSpec,
    chunk_size: usize,
    opt: OptLevel,
    specialize: bool,
    api: Api,
) -> KernelRates {
    type Key = (&'static str, usize, OptLevel, bool, Api);
    static CACHE: OnceLock<Mutex<HashMap<Key, KernelRates>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap();
    *cache
        .entry((spec.name, chunk_size, opt, specialize, api))
        .or_insert_with(|| match api {
            Api::OpenCl => measure::<OpenCl>(spec, chunk_size, opt, specialize),
            Api::Sycl => measure::<Sycl>(spec, chunk_size, opt, specialize),
        })
}

/// One probe batch, measured the way the serving workers measure: device
/// time elapsed across query preparation and the chunk run.
struct ProbeRun {
    elapsed_s: f64,
    finder_s: f64,
    comparer_s: f64,
    candidates: usize,
}

/// Run one probe batch through `runner` — the same host path the serving
/// worker for that API uses, so the measured costs include each flavour's
/// own fixed overheads. Each finder and comparer call is one launch, so the
/// kernel times are the runner's own timing counters.
fn probe<B: Backend>(
    runner: &ChunkRunner<B>,
    scan: usize,
    payload: Payload<'_>,
    queries: &[Query],
    token: Option<u64>,
) -> ProbeRun {
    let (timing, profile): &mut (TimingBreakdown, Profile) = &mut Default::default();
    let before = runner.elapsed_s();
    runner
        .run_queries(payload, scan, token, Sites::Find, queries, timing, profile)
        .expect("simulated launch cannot fail");
    ProbeRun {
        elapsed_s: runner.elapsed_s() - before,
        finder_s: timing.finder_s,
        comparer_s: timing.comparer_s,
        candidates: timing.candidates as usize,
    }
}

/// Decompose two-query/four-query/resident-hit probes through the fused
/// multi-guide runner into [`ClassRates`]. The fused path only engages
/// past one query, so the base probe is the two-query run and the per-job
/// marginal is half the two→four gap — both fused, both one guide block.
/// The comparer rate is per guide per candidate unit, exactly the
/// quantity `predict_s` multiplies back by `jobs`.
fn fused_class_rates(
    scan: usize,
    two: &ProbeRun,
    four: &ProbeRun,
    hit: &ProbeRun,
    chunk_bytes: usize,
    upload_s_per_byte: f64,
) -> ClassRates {
    let plen = PROBE_PATTERN.len();
    let finder = (two.finder_s / (scan * plen) as f64).max(f64::MIN_POSITIVE);
    let comparer =
        (two.comparer_s / (two.candidates * plen * 2).max(1) as f64).max(f64::MIN_POSITIVE);
    let per_job = (((four.elapsed_s - two.elapsed_s)
        - (four.comparer_s - two.comparer_s)
        - (four.finder_s - two.finder_s))
        / 2.0)
        .max(0.0);
    let chunk_byte_s = chunk_bytes as f64 * upload_s_per_byte;
    let batch_overhead =
        (two.elapsed_s - two.finder_s - two.comparer_s - 2.0 * per_job - chunk_byte_s).max(0.0);
    let resident_discount = ((two.elapsed_s - hit.elapsed_s) - chunk_byte_s).max(0.0);
    ClassRates {
        finder_s_per_unit: finder,
        comparer_s_per_unit: comparer,
        batch_overhead_s: batch_overhead,
        per_job_overhead_s: per_job,
        resident_discount_s: resident_discount,
    }
}

/// Decompose one-query/two-query/resident-hit probes into [`ClassRates`].
fn class_rates(
    scan: usize,
    one: &ProbeRun,
    two: &ProbeRun,
    hit: &ProbeRun,
    chunk_bytes: usize,
    upload_s_per_byte: f64,
) -> ClassRates {
    let plen = PROBE_PATTERN.len();
    let finder = (one.finder_s / (scan * plen) as f64).max(f64::MIN_POSITIVE);
    let comparer = (one.comparer_s / (one.candidates * plen).max(1) as f64).max(f64::MIN_POSITIVE);
    // The second query's marginal cost beyond its own kernel time.
    let per_job = ((two.elapsed_s - one.elapsed_s)
        - (two.comparer_s - one.comparer_s)
        - (two.finder_s - one.finder_s))
        .max(0.0);
    let chunk_byte_s = chunk_bytes as f64 * upload_s_per_byte;
    let batch_overhead =
        (one.elapsed_s - one.finder_s - one.comparer_s - per_job - chunk_byte_s).max(0.0);
    // What the resident hit skipped, minus the skipped bytes themselves.
    let resident_discount = ((one.elapsed_s - hit.elapsed_s) - chunk_byte_s).max(0.0);
    ClassRates {
        finder_s_per_unit: finder,
        comparer_s_per_unit: comparer,
        batch_overhead_s: batch_overhead,
        per_job_overhead_s: per_job,
        resident_discount_s: resident_discount,
    }
}

fn measure<B: Backend>(
    spec: &DeviceSpec,
    scan: usize,
    opt: OptLevel,
    specialize: bool,
) -> KernelRates {
    let plen = PROBE_PATTERN.len();
    let config = PipelineConfig::new(spec.clone())
        .chunk_size(scan)
        .opt(opt)
        .exec_mode(ExecMode::Sequential)
        .specialize(specialize);
    const SETUP: &str = "simulated setup cannot fail on the probe pattern";
    let runner = ChunkRunner::<B>::new(&config, PROBE_PATTERN).expect(SETUP);
    let upload_s_per_byte = upload_slope(spec);

    // Pseudo-random concrete bases and guides, the same statistics as the
    // synthetic serving fixtures: the PAM admits a typical candidate
    // population and full-site matches (result readbacks) stay rare at
    // these thresholds, so both probe costs match serving costs. Concrete
    // bases also mean the packed probe has no exception loci.
    let mut rng = Xoshiro256::seed_from_u64(0xCA11_B8A7E);
    let seq: Vec<u8> = (0..scan + plen)
        .map(|_| *rng.choose(b"ACGT").unwrap())
        .collect();
    let mut guide = || {
        let mut g: Vec<u8> = (0..8).map(|_| *rng.choose(b"ACGT").unwrap()).collect();
        g.extend_from_slice(b"NNN");
        g
    };
    let one = [Query::new(guide(), 3)];
    let two = [one[0].clone(), Query::new(guide(), 3)];
    let four = [
        two[0].clone(),
        two[1].clone(),
        Query::new(guide(), 3),
        Query::new(guide(), 3),
    ];

    let raw_payload = Payload::Raw(&seq);
    let raw1 = probe(&runner, scan, raw_payload, &one, None);
    let raw2 = probe(&runner, scan, raw_payload, &two, None);
    // First resident run misses and uploads; the second hits and skips.
    probe(&runner, scan, raw_payload, &one, Some(PROBE_TOKEN));
    let raw_hit = probe(&runner, scan, raw_payload, &one, Some(PROBE_TOKEN));
    let raw = class_rates(scan, &raw1, &raw2, &raw_hit, seq.len(), upload_s_per_byte);

    let packed = PackedSeq::encode(&seq);
    debug_assert!(packed.exceptions().is_empty(), "probe bases are concrete");
    let packed_bytes = packed.packed_bytes().len() + packed.mask_bytes().len();
    let pk_payload = Payload::Packed(&packed);
    let pk1 = probe(&runner, scan, pk_payload, &one, None);
    let pk2 = probe(&runner, scan, pk_payload, &two, None);
    probe(&runner, scan, pk_payload, &one, Some(PROBE_TOKEN));
    let pk_hit = probe(&runner, scan, pk_payload, &one, Some(PROBE_TOKEN));
    let packed_rates = class_rates(scan, &pk1, &pk2, &pk_hit, packed_bytes, upload_s_per_byte);

    // The nibble probe reuses the same concrete bases: the kernels' cost
    // does not depend on how degenerate the masks are, only the encoding
    // selection does — so a concrete-base probe prices exception-dense
    // serving chunks correctly.
    let nibble = NibbleSeq::encode(&seq);
    let nb_payload = Payload::Nibble(&nibble);
    let nb1 = probe(&runner, scan, nb_payload, &one, None);
    let nb2 = probe(&runner, scan, nb_payload, &two, None);
    probe(&runner, scan, nb_payload, &one, Some(PROBE_TOKEN));
    let nb_hit = probe(&runner, scan, nb_payload, &one, Some(PROBE_TOKEN));
    let nibble_rates = class_rates(
        scan,
        &nb1,
        &nb2,
        &nb_hit,
        nibble.device_byte_len(),
        upload_s_per_byte,
    );

    // The SYCL runner's resources release implicitly when dropped; the
    // OpenCL runner follows the 13-step contract and releases explicitly.
    runner.release();

    // The fused flavour, through a multi-guide runner of the same API: the
    // two- and four-query probes both launch one `comparer_multi` block,
    // so their gap isolates the fused per-job marginal (a query table and
    // readback, no launch of its own).
    let multi_config = config.multi_guide(true);
    let multi_runner = ChunkRunner::<B>::new(&multi_config, PROBE_PATTERN).expect(SETUP);
    let fused = |payload: Payload<'_>, chunk_bytes: usize| {
        let two_run = probe(&multi_runner, scan, payload, &two, None);
        let four_run = probe(&multi_runner, scan, payload, &four, None);
        probe(&multi_runner, scan, payload, &two, Some(PROBE_TOKEN));
        let hit = probe(&multi_runner, scan, payload, &two, Some(PROBE_TOKEN));
        fused_class_rates(
            scan,
            &two_run,
            &four_run,
            &hit,
            chunk_bytes,
            upload_s_per_byte,
        )
    };
    let multi_raw = fused(raw_payload, seq.len());
    let multi_packed = fused(pk_payload, packed_bytes);
    let multi_nibble = fused(nb_payload, nibble.device_byte_len());
    multi_runner.release();

    KernelRates {
        raw,
        packed: packed_rates,
        nibble: nibble_rates,
        multi_raw,
        multi_packed,
        multi_nibble,
        upload_s_per_byte,
    }
}

/// Fit the marginal per-byte upload cost from two timed writes of
/// different sizes; the subtraction cancels the fixed per-transfer
/// overhead, which the batch and residency measurements carry instead.
fn upload_slope(spec: &DeviceSpec) -> f64 {
    const SMALL: usize = 1024;
    const LARGE: usize = 65536;
    let device = ClDeviceId::from_spec(spec.clone());
    let ctx = Context::with_mode(&[device], ExecMode::Sequential)
        .expect("one probe device is always found");
    let queue = CommandQueue::new(&ctx, 0).expect("probe context has a device");
    let buf: ClBuffer<u8> =
        ClBuffer::create(&ctx, MemFlags::ReadWrite, LARGE).expect("probe buffer fits");
    let small = queue
        .enqueue_write_buffer(&buf, true, 0, &vec![0u8; SMALL])
        .expect("in-bounds write cannot fail");
    let large = queue
        .enqueue_write_buffer(&buf, true, 0, &vec![0u8; LARGE])
        .expect("in-bounds write cannot fail");
    let slope = (large.duration_s() - small.duration_s()) / (LARGE - SMALL) as f64;
    buf.release();
    slope.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBE_CHUNK: usize = 1 << 13;

    #[test]
    fn measured_rates_are_positive_and_finite() {
        let r = kernel_rates(
            &DeviceSpec::mi60(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        for class in [&r.raw, &r.packed, &r.nibble] {
            assert!(class.finder_s_per_unit.is_finite() && class.finder_s_per_unit > 0.0);
            assert!(class.comparer_s_per_unit.is_finite() && class.comparer_s_per_unit > 0.0);
            assert!(class.batch_overhead_s.is_finite() && class.batch_overhead_s >= 0.0);
            assert!(class.per_job_overhead_s.is_finite() && class.per_job_overhead_s >= 0.0);
            assert!(class.resident_discount_s.is_finite() && class.resident_discount_s >= 0.0);
        }
        assert!(r.upload_s_per_byte.is_finite() && r.upload_s_per_byte > 0.0);
    }

    #[test]
    fn fused_rates_are_measured_per_encoding_and_sane() {
        let r = kernel_rates(
            &DeviceSpec::mi60(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        for class in [&r.multi_raw, &r.multi_packed, &r.multi_nibble] {
            assert!(class.finder_s_per_unit.is_finite() && class.finder_s_per_unit > 0.0);
            assert!(class.comparer_s_per_unit.is_finite() && class.comparer_s_per_unit > 0.0);
            assert!(class.batch_overhead_s.is_finite() && class.batch_overhead_s >= 0.0);
            assert!(class.per_job_overhead_s.is_finite() && class.per_job_overhead_s >= 0.0);
            assert!(class.resident_discount_s.is_finite() && class.resident_discount_s >= 0.0);
        }
        // One fused launch covers the whole guide block, so the fused
        // comparer can never cost more per work unit than one-launch-per-guide
        // (small slack for probe measurement noise).
        for (multi, serial) in [
            (&r.multi_raw, &r.raw),
            (&r.multi_packed, &r.packed),
            (&r.multi_nibble, &r.nibble),
        ] {
            assert!(
                multi.comparer_s_per_unit <= serial.comparer_s_per_unit * 1.05,
                "fused {} vs serial {}",
                multi.comparer_s_per_unit,
                serial.comparer_s_per_unit
            );
        }
    }

    #[test]
    fn resident_chunks_earn_a_real_discount() {
        // Skipping the payload transfers must be worth something, and the
        // discount can never exceed the whole fixed batch cost it is
        // subtracted from.
        let r = kernel_rates(
            &DeviceSpec::radeon_vii(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        for class in [&r.raw, &r.packed, &r.nibble] {
            assert!(class.resident_discount_s > 0.0, "{class:?}");
            assert!(
                class.resident_discount_s <= class.batch_overhead_s,
                "{class:?}"
            );
        }
    }

    #[test]
    fn repeat_lookups_are_memoized() {
        let a = kernel_rates(
            &DeviceSpec::mi100(),
            PROBE_CHUNK,
            OptLevel::Opt3,
            false,
            Api::OpenCl,
        );
        let b = kernel_rates(
            &DeviceSpec::mi100(),
            PROBE_CHUNK,
            OptLevel::Opt3,
            false,
            Api::OpenCl,
        );
        assert_eq!(
            a.raw.finder_s_per_unit.to_bits(),
            b.raw.finder_s_per_unit.to_bits()
        );
        assert_eq!(
            a.packed.comparer_s_per_unit.to_bits(),
            b.packed.comparer_s_per_unit.to_bits()
        );
    }

    #[test]
    fn faster_interconnects_upload_cheaper_per_byte() {
        let mi100 = kernel_rates(
            &DeviceSpec::mi100(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let rvii = kernel_rates(
            &DeviceSpec::radeon_vii(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let ratio = rvii.upload_s_per_byte / mi100.upload_s_per_byte;
        // MI100 (PCIe 4) moves bytes at twice Radeon VII's PCIe 3 rate.
        let expect = DeviceSpec::mi100().interconnect_bytes_per_s()
            / DeviceSpec::radeon_vii().interconnect_bytes_per_s();
        assert!((ratio / expect - 1.0).abs() < 0.05, "{ratio} vs {expect}");
    }

    #[test]
    fn nibble_rates_are_measured_from_the_nibble_kernels() {
        // The nibble finder decodes on-device like the packed finder, so
        // its measured per-unit rate must land in the same regime as the
        // other finders — a zero (kernel never profiled, name list stale)
        // or a wild outlier would poison every Nibble4Bit prediction.
        let r = kernel_rates(
            &DeviceSpec::mi60(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let ratio = r.nibble.finder_s_per_unit / r.packed.finder_s_per_unit;
        assert!((0.25..=4.0).contains(&ratio), "finder rate ratio {ratio}");
        let ratio = r.nibble.comparer_s_per_unit / r.packed.comparer_s_per_unit;
        assert!((0.25..=4.0).contains(&ratio), "comparer rate ratio {ratio}");
    }

    #[test]
    fn specialized_rates_are_measured_and_never_slower_comparers() {
        // Specialization is a separate memo entry measured through the
        // specialized runner: the rates must be sane, and the specialized
        // comparer — pattern folded into immediates — must not price worse
        // per work unit than the generic comparer it replaces.
        let g = kernel_rates(
            &DeviceSpec::mi60(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let s = kernel_rates(
            &DeviceSpec::mi60(),
            PROBE_CHUNK,
            OptLevel::Base,
            true,
            Api::OpenCl,
        );
        for class in [&s.raw, &s.packed, &s.nibble] {
            assert!(class.finder_s_per_unit.is_finite() && class.finder_s_per_unit > 0.0);
            assert!(class.comparer_s_per_unit.is_finite() && class.comparer_s_per_unit > 0.0);
        }
        for (spec, gen) in [
            (&s.raw, &g.raw),
            (&s.packed, &g.packed),
            (&s.nibble, &g.nibble),
        ] {
            assert!(
                spec.comparer_s_per_unit <= gen.comparer_s_per_unit * 1.01,
                "specialized comparer must not be slower: {} vs {}",
                spec.comparer_s_per_unit,
                gen.comparer_s_per_unit
            );
        }
    }

    #[test]
    fn rates_are_per_unit_not_per_launch() {
        // Chunk sizes are probed independently (each is its own memo
        // entry), but the finder rate they measure prices the same kernel
        // per work unit — a 16x larger probe grid must land on a
        // comparable rate, not a 16x larger one.
        let small = kernel_rates(
            &DeviceSpec::mi100(),
            512,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let large = kernel_rates(
            &DeviceSpec::mi100(),
            PROBE_CHUNK,
            OptLevel::Base,
            false,
            Api::OpenCl,
        );
        let ratio = small.raw.finder_s_per_unit / large.raw.finder_s_per_unit;
        assert!((0.5..=2.0).contains(&ratio), "rate ratio {ratio}");
    }
}
