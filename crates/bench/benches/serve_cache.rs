//! Micro-benchmark: the serving cache's raw vs adaptive (2-bit packed on
//! clean chunks) payloads at an equal byte budget, served through the
//! chunk runner on three device specs. The packed cache holds ~2.7x the
//! chunks, so a working set that thrashes the raw cache fits the packed
//! one — the summary lines report hit rate, per-pass upload bytes, and
//! simulated batch time per spec, and the bench fails unless the adaptive
//! cache's hit rate beats the raw cache's on every spec.
//!
//! A second group replays an **exception-dense** soft-masked assembly,
//! where the 2-bit form would be unsafe or heavier than nibbles: the
//! adaptive encoding flips those chunks to 4-bit nibbles and keeps every
//! pass on a packed device payload at half a byte per base.

use std::sync::Arc;

use cas_offinder::pipeline::chunk::{OclChunkRunner, Sites};
use cas_offinder::pipeline::PipelineConfig;
use cas_offinder::SearchInput;
use cas_offinder::TimingBreakdown;
use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use casoff_serve::cache::{ChunkKey, EncodedChunk};
use casoff_serve::{ChunkEncoding, GenomeCache};
use genome::{synth, Assembly, Chunker};
use gpu_sim::DeviceSpec;

const CHUNK_SIZE: usize = 1 << 13;
const GENOME_SCALE: f64 = 0.02;
/// Shared byte budget: comfortably holds the packed working set, thrashes
/// the raw one — the equal-budget comparison the serve cache is about.
const CACHE_BYTES: usize = 128 * 1024;

struct Workload {
    runner: OclChunkRunner,
    tables: cas_offinder::pipeline::chunk::OclQueryTables,
    cache: GenomeCache,
    chunks: Vec<(ChunkKey, Vec<u8>, usize)>,
    encoding: ChunkEncoding,
}

impl Workload {
    fn new(spec: DeviceSpec, assembly: &Assembly, encoding: ChunkEncoding) -> Self {
        let input = SearchInput::parse(&format!(
            "{}\nNNNNNNNNNRG\nACGTACGTNNN 3\n",
            assembly.name()
        ))
        .unwrap();
        let config = PipelineConfig::new(spec).chunk_size(CHUNK_SIZE);
        let runner = OclChunkRunner::new(&config, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&input.queries).unwrap();
        let plen = runner.plen();
        let chunks: Vec<(ChunkKey, Vec<u8>, usize)> = Chunker::new(assembly, CHUNK_SIZE, plen)
            .enumerate()
            .filter(|(_, c)| c.seq.len() >= plen)
            .map(|(index, c)| {
                (
                    ChunkKey {
                        assembly: assembly.name().to_string(),
                        plen,
                        index,
                    },
                    c.seq.to_vec(),
                    c.scan_len,
                )
            })
            .collect();
        Workload {
            runner,
            tables,
            cache: GenomeCache::new(CACHE_BYTES),
            chunks,
            encoding,
        }
    }

    /// One pass over every chunk through the cache and the runner, the way
    /// a serve worker replays a repeat tenant's working set.
    fn pass(&self) -> f64 {
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        for (key, seq, scan_len) in &self.chunks {
            let chunk: Arc<EncodedChunk> = self.cache.get_or_insert_with(key, || {
                EncodedChunk::encode(0, "chr".into(), 0, *scan_len, seq, self.encoding)
            });
            let p = chunk.payload().as_payload();
            self.runner
                .run(
                    p,
                    *scan_len,
                    None,
                    Sites::Find,
                    &self.tables,
                    &mut timing,
                    &mut profile,
                )
                .unwrap();
        }
        timing.finder_s + timing.comparer_s + timing.transfer_s
    }
}

fn encoding_label(encoding: ChunkEncoding) -> &'static str {
    match encoding {
        ChunkEncoding::Raw => "raw",
        ChunkEncoding::Adaptive => "adaptive",
    }
}

/// Run every spec under every encoding; returns each run's
/// `(spec, encoding, hit rate)` after its warm and steady passes.
fn run_group(
    c: &mut Criterion,
    group_name: &str,
    assembly: &Assembly,
    encodings: &[ChunkEncoding],
) -> Vec<(&'static str, ChunkEncoding, f64)> {
    let specs = [
        ("rvii", DeviceSpec::radeon_vii()),
        ("mi60", DeviceSpec::mi60()),
        ("mi100", DeviceSpec::mi100()),
    ];
    let mut group = c.benchmark_group(group_name);
    group.sample_size(5);
    let mut hit_rates = Vec::new();
    for (name, spec) in specs {
        for &encoding in encodings {
            let label = encoding_label(encoding);
            let w = Workload::new(spec.clone(), assembly, encoding);
            // Warm pass fills the cache, second pass shows steady state.
            w.pass();
            let before = w.runner.traffic().h2d_bytes;
            let sim_s = w.pass();
            let uploaded = w.runner.traffic().h2d_bytes - before;
            let stats = w.cache.stats();
            println!(
                "{group_name}/{name}/{label}: {:.1}% hits, {} resident ({} B), \
                 {uploaded} B uploaded/pass, {sim_s:.6} s simulated/pass",
                100.0 * stats.hit_rate(),
                stats.len,
                stats.bytes_resident,
            );
            hit_rates.push((name, encoding, stats.hit_rate()));
            group.bench_function(format!("{name}/{label}"), |b| b.iter(|| w.pass()));
        }
    }
    group.finish();
    hit_rates
}

fn bench_serve_cache(c: &mut Criterion) {
    let clean = synth::hg38_mini(GENOME_SCALE);
    let hit_rates = run_group(
        c,
        "serve-cache",
        &clean,
        &[ChunkEncoding::Raw, ChunkEncoding::Adaptive],
    );
    // The claim this bench exists for: at the shared budget the adaptive
    // cache keeps the clean working set resident that thrashes the raw one.
    for pair in hit_rates.chunks(2) {
        let [(name, ChunkEncoding::Raw, raw), (_, ChunkEncoding::Adaptive, adaptive)] = pair else {
            unreachable!("runs come in raw, adaptive pairs per spec");
        };
        assert!(
            adaptive > raw,
            "serve-cache/{name}: adaptive hit rate {:.1}% must beat raw {:.1}% at {CACHE_BYTES} B",
            100.0 * adaptive,
            100.0 * raw,
        );
    }

    // Exception-dense workload: soft-mask runs and degenerate bases push
    // the adaptive encoding onto its 4-bit path, contrasted with raw.
    let masked = synth::hg38_masked_mini(GENOME_SCALE);
    run_group(
        c,
        "serve-cache-masked",
        &masked,
        &[ChunkEncoding::Raw, ChunkEncoding::Adaptive],
    );
}

criterion_group!(benches, bench_serve_cache);
criterion_main!(benches);
