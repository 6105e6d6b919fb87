//! One device-resident genome per device: sequential jobs under two PAM
//! patterns of one length, on a one-device pool, upload each chunk payload
//! once. Every later sweep, under either pattern, runs on the resident
//! copy, and every job still matches the CPU oracle.

use cas_offinder::{cpu, Api, OffTarget, SearchInput};
use casoff_serve::cache::{ChunkPayload, EncodedChunk};
use casoff_serve::{ChunkEncoding, DeviceSlot, JobSpec, MetricsReport, Service, ServiceConfig};
use genome::{Assembly, Chunker};
use gpu_sim::DeviceSpec;

const CHUNK_SIZE: usize = 512;
const PATTERNS: [&[u8]; 2] = [b"NNNNNNNNNRG", b"NNNNNNNNNGG"];
const GUIDES: [&[u8]; 4] = [
    b"ACGTACGTNNN",
    b"TTGACCATNNN",
    b"GATTACAGNNN",
    b"CCGGTTAANNN",
];

fn assembly() -> Assembly {
    genome::synth::hg38_mini(0.001)
}

fn oracle(assembly: &Assembly, spec: &JobSpec) -> Vec<OffTarget> {
    let text = format!(
        "{}\n{}\n{} {}\n",
        spec.assembly,
        std::str::from_utf8(&spec.pattern).unwrap(),
        std::str::from_utf8(&spec.guide).unwrap(),
        spec.max_mismatches
    );
    cpu::search_sequential(assembly, &SearchInput::parse(&text).unwrap())
}

/// `(resident hits, resident misses, skipped h2d bytes)` of the one device.
fn residency(report: &MetricsReport) -> (u64, u64, u64) {
    let d = &report.devices[0];
    (d.resident_hits, d.resident_misses, d.h2d_skipped_bytes)
}

/// The chunks a sweep runs and the bytes uploading all of them moves.
fn sweep_of(assembly: &Assembly) -> (u64, u64) {
    let plen = PATTERNS[0].len();
    let mut chunks = 0;
    let mut bytes = 0;
    for chunk in Chunker::new(assembly, CHUNK_SIZE, plen).filter(|c| c.seq.len() >= plen) {
        let encoded = EncodedChunk::encode(
            chunk.chrom_index,
            chunk.chrom_name.to_string(),
            chunk.start,
            chunk.scan_len,
            chunk.seq,
            ChunkEncoding::Adaptive,
        );
        // The clean miniature packs without exception bytes, so the
        // scheduler's upload size is exactly what a resident hit skips.
        if let ChunkPayload::Packed(p) = encoded.payload() {
            assert!(p.exceptions().is_empty());
        }
        chunks += 1;
        bytes += encoded.upload_byte_len() as u64;
    }
    (chunks, bytes)
}

fn check_one_upload_per_chunk(api: Api) {
    let asm = assembly();
    let (chunks, sweep_bytes) = sweep_of(&asm);
    assert!(chunks > 1, "the fixture must span several chunks");
    let mut config = ServiceConfig::paper_pool();
    config.devices = vec![DeviceSlot {
        spec: DeviceSpec::mi60(),
        api,
    }];
    config.chunk_size = CHUNK_SIZE;
    // Every job is a fresh sweep, and no replayed candidate list adds its
    // own skipped upload to the payload bytes counted here.
    config.result_cache_bytes = 0;
    config.candidate_cache_bytes = 0;
    let service = Service::start(config, vec![assembly()]);

    let mut after_first_sweeps = None;
    for (i, guide) in GUIDES.iter().enumerate() {
        let spec = JobSpec::new("hg38-mini", PATTERNS[i % 2], guide.to_vec(), 3);
        let id = service.submit(spec.clone()).unwrap();
        assert_eq!(
            service.wait(id).unwrap(),
            oracle(&asm, &spec),
            "{api} job {i}"
        );
        let (hits, misses, skipped) = residency(&service.metrics());
        match i {
            0 => assert_eq!(
                (hits, misses),
                (0, chunks),
                "{api}: the first sweep uploads"
            ),
            1 => {
                assert_eq!(
                    (hits, misses, skipped),
                    (chunks, chunks, sweep_bytes),
                    "{api}: the second pattern runs on the first one's uploads"
                );
                after_first_sweeps = Some((hits, misses));
            }
            _ => {}
        }
    }
    let (hits, misses, skipped) = residency(&service.metrics());
    let sweeps = GUIDES.len() as u64;
    assert_eq!(misses, chunks, "{api}: each chunk payload uploads once");
    assert_eq!(skipped, (sweeps - 1) * sweep_bytes, "{api}");
    let (hits0, misses0) = after_first_sweeps.unwrap();
    let later = (hits - hits0) as f64 / ((hits - hits0) + (misses - misses0)) as f64;
    assert!(
        later >= 0.9,
        "{api}: hit rate {later} after one sweep per pattern"
    );
    service.shutdown();
}

#[test]
fn equal_length_patterns_share_one_resident_genome_per_device() {
    check_one_upload_per_chunk(Api::OpenCl);
    check_one_upload_per_chunk(Api::Sycl);
}
