//! Micro-benchmark: generic vs JIT-specialized comparer kernels on the
//! serving chunk path, cold vs warm variant cache.
//!
//! The specialization stage constant-folds each query's compiled pattern
//! and mismatch threshold into a per-(pattern digest, threshold, encoding)
//! kernel variant; the folded kernels skip the query-table uploads and
//! the table loads entirely. This bench drives the same multi-guide
//! adaptive (4-bit nibble) workload through the OpenCL chunk runner twice
//! per device spec — once with the generic kernels, once specialized —
//! and reports the simulated pass time, the speedup, and the global
//! variant cache's behaviour across the cold first pass (compiles) and
//! the warm steady state (hits, no compiles).

use std::sync::Arc;

use cas_offinder::kernels::specialize::global_cache;
use cas_offinder::pipeline::chunk::{OclChunkRunner, Sites};
use cas_offinder::pipeline::PipelineConfig;
use cas_offinder::{Query, SearchInput, TimingBreakdown};
use casoff_bench::microbench::Criterion;
use casoff_bench::{criterion_group, criterion_main};
use casoff_serve::cache::{ChunkKey, EncodedChunk};
use casoff_serve::{ChunkEncoding, GenomeCache};
use genome::{synth, Assembly, Chunker};
use gpu_sim::DeviceSpec;

const CHUNK_SIZE: usize = 1 << 13;
const GENOME_SCALE: f64 = 0.02;
const CACHE_BYTES: usize = 128 * 1024;
/// Distinct guides, each its own (pattern, threshold) variant family —
/// enough tenants that the cold pass pays a real compile burst.
const GUIDES: usize = 8;

struct Workload {
    runner: OclChunkRunner,
    tables: cas_offinder::pipeline::chunk::OclQueryTables,
    cache: GenomeCache,
    chunks: Vec<(ChunkKey, Vec<u8>, usize)>,
}

impl Workload {
    fn new(spec: DeviceSpec, assembly: &Assembly, specialize: bool) -> Self {
        let input = SearchInput::parse(&format!(
            "{}\nNNNNNNNNNRG\nACGTACGTNNN 3\n",
            assembly.name()
        ))
        .unwrap();
        // A multi-tenant query mix: distinct guides at distinct thresholds,
        // the shape that exercises one variant per (pattern, threshold).
        let queries: Vec<Query> = (0..GUIDES)
            .map(|i| {
                let mut g = Vec::with_capacity(11);
                for j in 0..8 {
                    g.push(b"ACGT"[(i * 5 + j * 3) % 4]);
                }
                g.extend_from_slice(b"NNN");
                Query::new(g, 2 + (i % 3) as u16)
            })
            .collect();
        let config = PipelineConfig::new(spec)
            .chunk_size(CHUNK_SIZE)
            .specialize(specialize);
        let runner = OclChunkRunner::new(&config, &input.pattern).unwrap();
        let tables = runner.prepare_queries(&queries).unwrap();
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
        }
    }

    /// One pass over every chunk on the adaptive (4-bit nibble) payload —
    /// the encoding where both the finder and the comparer specialize.
    fn pass(&self) -> f64 {
        let mut timing = TimingBreakdown::default();
        let mut profile = gpu_sim::profile::Profile::new();
        for (key, seq, scan_len) in &self.chunks {
            let chunk: Arc<EncodedChunk> = self.cache.get_or_insert_with(key, || {
                EncodedChunk::encode(0, "chr".into(), 0, *scan_len, seq, ChunkEncoding::Adaptive)
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

fn bench_serve_specialize(c: &mut Criterion) {
    let assembly = synth::hg38_masked_mini(GENOME_SCALE);
    let specs = [
        ("rvii", DeviceSpec::radeon_vii()),
        ("mi60", DeviceSpec::mi60()),
        ("mi100", DeviceSpec::mi100()),
    ];
    let mut group = c.benchmark_group("serve-specialize");
    group.sample_size(5);
    for (name, spec) in specs {
        let generic = Workload::new(spec.clone(), &assembly, false);
        let generic_s = generic.pass();

        // The first specialized pass is the cold one: every (pattern,
        // threshold) variant misses the process-global cache and compiles.
        let specialized = Workload::new(spec.clone(), &assembly, true);
        let before = global_cache().stats();
        let cold_s = specialized.pass();
        let after_cold = global_cache().stats();
        let warm_s = specialized.pass();
        let after_warm = global_cache().stats();

        let cold_compiles = after_cold.misses - before.misses;
        let warm_compiles = after_warm.misses - after_cold.misses;
        println!(
            "serve-specialize/{name}: generic {generic_s:.6} s/pass, specialized cold \
             {cold_s:.6} s/pass ({cold_compiles} compiles), warm {warm_s:.6} s/pass \
             ({warm_compiles} compiles, {:.2}x vs generic)",
            generic_s / warm_s,
        );

        group.bench_function(format!("{name}/generic"), |b| b.iter(|| generic.pass()));
        group.bench_function(format!("{name}/specialized-warm"), |b| {
            b.iter(|| specialized.pass())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve_specialize);
criterion_main!(benches);
