//! Per-layer probes for traced runs. Each one times the benchmark's own
//! calls into one layer's public functions, or reads counters the program
//! already exports; nothing inside the program is instrumented.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cas_offinder::kernels::{
    ComparerKernel, ComparerOutput, FinderKernel, FinderOutput, FourBitComparerKernel,
    GuideThresholds, MultiComparerKernel, MultiComparerOutput, TwoBitComparerKernel, GUIDE_BLOCK,
};
use cas_offinder::pipeline::chunk::{OclChunkRunner, SyclChunkRunner};
use cas_offinder::pipeline::{entries_to_offtargets, PipelineConfig};
use cas_offinder::{
    sort_canonical, Api, CompiledSeq, OptLevel, SearchInput, SearchReport, TimingBreakdown,
};
use genome::fourbit::NibbleSeq;
use genome::twobit::{PackedSeq, TwoBitSeq};
use genome::{Assembly, Chunker};
use gpu_sim::profile::Profile;
use gpu_sim::{
    Device, DeviceSpec, ExecMode, ItemCtx, KernelProgram, LaunchReport, LocalMem, NdRange,
};

use crate::record::{median, quantile, Outcome};
use crate::trace::Tracer;

/// Work-group size of the direct kernel launches (the SYCL application's).
const WORK_GROUP: usize = 256;
/// Empty-kernel launches timed for the launch overhead.
const LAUNCHES: usize = 200;
/// Passes over the chunks when timing the genome encoders.
const ENCODE_PASSES: usize = 3;

/// A serial search replayed call by call, with a span around each call
/// into the pipeline layer. It is the loop of `pipeline::ocl::run` and
/// `pipeline::sycl::run`, so it returns the same records and simulated
/// times.
pub fn replay_search(
    api: Api,
    assembly: &Assembly,
    input: &SearchInput,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    request: u64,
) -> Result<SearchReport, String> {
    let root = Some(tracer.open("bench.search", request, None));
    let wall = Instant::now();
    let mut timing = TimingBreakdown::default();
    let mut profile = Profile::new();
    let mut offtargets = Vec::new();
    let device = match api {
        Api::OpenCl => {
            let runner = tracer
                .time("pipeline.opencl.runner_new", request, root, || {
                    OclChunkRunner::new(config, &input.pattern)
                })
                .map_err(|e| e.to_string())?;
            let tables = tracer
                .time("pipeline.opencl.prepare_queries", request, root, || {
                    runner.prepare_queries(&input.queries)
                })
                .map_err(|e| e.to_string())?;
            let plen = runner.plen();
            for chunk in Chunker::new(assembly, config.chunk_size, plen) {
                if chunk.seq.len() < plen {
                    continue;
                }
                let per_query = tracer
                    .time("pipeline.opencl.run_chunk", request, root, || {
                        runner.run_chunk(
                            chunk.seq,
                            chunk.scan_len,
                            &tables,
                            &mut timing,
                            &mut profile,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                tracer.time("pipeline.map_entries", request, root, || {
                    for (query, entries) in input.queries.iter().zip(&per_query) {
                        entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
                    }
                });
            }
            tracer.time("pipeline.opencl.release", request, root, || {
                runner.finish();
                timing.elapsed_s = runner.elapsed_s();
                let device = runner.device_name();
                tables.release();
                runner.release();
                device
            })
        }
        Api::Sycl => {
            let runner = tracer
                .time("pipeline.sycl.runner_new", request, root, || {
                    SyclChunkRunner::new(config, &input.pattern)
                })
                .map_err(|e| e.to_string())?;
            let tables = tracer.time("pipeline.sycl.prepare_queries", request, root, || {
                runner.prepare_queries(&input.queries)
            });
            let plen = runner.plen();
            for chunk in Chunker::new(assembly, config.chunk_size, plen) {
                if chunk.seq.len() < plen {
                    continue;
                }
                let per_query = tracer
                    .time("pipeline.sycl.run_chunk", request, root, || {
                        runner.run_chunk(
                            chunk.seq,
                            chunk.scan_len,
                            &tables,
                            &mut timing,
                            &mut profile,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                tracer.time("pipeline.map_entries", request, root, || {
                    for (query, entries) in input.queries.iter().zip(&per_query) {
                        entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
                    }
                });
            }
            tracer.time("pipeline.sycl.release", request, root, || {
                runner.wait();
                timing.elapsed_s = runner.elapsed_s();
                drop(tables);
                drop(runner);
                config.device.name.to_owned()
            })
        }
    };
    tracer.time("pipeline.sort", request, root, || {
        sort_canonical(&mut offtargets)
    });
    timing.wall = wall.elapsed();
    if let Some(root) = root {
        tracer.close(root);
    }
    Ok(SearchReport {
        api,
        device,
        offtargets,
        timing,
        profile,
    })
}

/// `pipeline.*` from the replay spans, and `sim.<api>.*` and the
/// comparer's share of kernel time from the searches' timing breakdowns.
pub fn pipeline_metrics(out: &mut Outcome, tracer: &Tracer, reports: &[SearchReport]) {
    for (label, api) in [("opencl", Api::OpenCl), ("sycl", Api::Sycl)] {
        let runner_new = tracer.durations_ms(&format!("pipeline.{label}.runner_new"));
        out.set(
            format!("pipeline.{label}.runner_new_ms"),
            median(&runner_new),
        );
        let chunks = tracer.durations_ms(&format!("pipeline.{label}.run_chunk"));
        out.set(
            format!("pipeline.{label}.run_chunk_p50_ms"),
            quantile(&chunks, 0.5),
        );
        out.set(
            format!("pipeline.{label}.run_chunk_p95_ms"),
            quantile(&chunks, 0.95),
        );
        let sum = |part: fn(&TimingBreakdown) -> f64| -> f64 {
            reports
                .iter()
                .filter(|r| r.api == api)
                .map(|r| part(&r.timing))
                .sum()
        };
        out.set(format!("sim.{label}.transfer_s"), sum(|t| t.transfer_s));
        out.set(format!("sim.{label}.finder_s"), sum(|t| t.finder_s));
        out.set(format!("sim.{label}.comparer_s"), sum(|t| t.comparer_s));
    }
    let finder: f64 = reports.iter().map(|r| r.timing.finder_s).sum();
    let comparer: f64 = reports.iter().map(|r| r.timing.comparer_s).sum();
    out.set("sim.comparer_kernel_share", comparer / (finder + comparer));
}

/// `genome.*`: one synthesis of the workload's assemblies, and both
/// packed encoders over every chunk of them.
pub fn genome_metrics(
    out: &mut Outcome,
    synthesize: fn() -> Vec<Assembly>,
    chunk_size: usize,
    overlap: usize,
) {
    let start = Instant::now();
    let assemblies = synthesize();
    out.set("genome.synth_s", start.elapsed().as_secs_f64());
    let chunks: Vec<&[u8]> = assemblies
        .iter()
        .flat_map(|a| Chunker::new(a, chunk_size, overlap).map(|c| c.seq))
        .collect();
    let bases = chunks.iter().map(|c| c.len()).sum::<usize>() as f64;
    let ns_per_base = |encode: &dyn Fn(&[u8])| {
        let passes: Vec<f64> = (0..ENCODE_PASSES)
            .map(|_| {
                let start = Instant::now();
                for chunk in &chunks {
                    encode(chunk);
                }
                start.elapsed().as_secs_f64() * 1e9 / bases
            })
            .collect();
        median(&passes)
    };
    out.set(
        "genome.encode_2bit_ns_per_base",
        ns_per_base(&|c| {
            black_box(PackedSeq::encode(black_box(c)));
        }),
    );
    out.set(
        "genome.encode_4bit_ns_per_base",
        ns_per_base(&|c| {
            black_box(NibbleSeq::encode(black_box(c)));
        }),
    );
}

/// One arithmetic operation per work-item, so a launch costs the
/// simulator's fixed per-launch work and little else.
struct Empty;

impl KernelProgram for Empty {
    type Private = ();

    fn name(&self) -> &str {
        "empty"
    }

    fn run_phase(
        &self,
        _phase: usize,
        item: &mut ItemCtx,
        _private: &mut (),
        _local: &mut LocalMem,
    ) {
        item.ops(1);
    }
}

/// `gpu_sim.launch_overhead_us`: median host time of one-group launches
/// of an empty kernel.
pub fn launch_overhead(out: &mut Outcome) -> Result<(), String> {
    let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
    let mut samples = Vec::with_capacity(LAUNCHES);
    for _ in 0..LAUNCHES {
        let start = Instant::now();
        device
            .launch(&Empty, NdRange::linear(64, 64))
            .map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    out.set("gpu_sim.launch_overhead_us", median(&samples));
    Ok(())
}

/// What the kernel probe launches on: the workload's assembly cut at its
/// chunk size, its PAM pattern, and its first guides (up to one fused
/// block) at its mismatch threshold.
pub struct KernelProbe<'a> {
    pub assembly: &'a Assembly,
    pub chunk_size: usize,
    pub pattern: &'a [u8],
    pub guides: &'a [Vec<u8>],
    pub threshold: u16,
    pub opt: OptLevel,
}

/// Metric labels of the probed kernels, in launch order.
const KERNELS: [&str; 5] = [
    "finder",
    "comparer",
    "comparer_2bit",
    "comparer_4bit",
    "comparer_multi",
];

/// `kernels.<k>.host_ns_per_item`, `sim.<k>.*` and
/// `gpu_sim.host_ns_per_global_load`, from direct `Device::launch`es of
/// every kernel over every chunk of the probe assembly; the finder's
/// candidate list feeds the comparers.
pub fn kernel_metrics(out: &mut Outcome, probe: &KernelProbe<'_>) -> Result<(), String> {
    let sim = |e: gpu_sim::SimError| e.to_string();
    let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
    let pattern = CompiledSeq::compile(probe.pattern);
    let plen = pattern.plen();
    let block: Vec<CompiledSeq> = probe
        .guides
        .iter()
        .take(GUIDE_BLOCK)
        .map(|g| CompiledSeq::compile(g))
        .collect();
    let query = block.first().ok_or("the kernel probe needs a guide")?;
    let block_comp: Vec<u8> = block.iter().flat_map(|c| c.comp().to_vec()).collect();
    let block_index: Vec<i32> = block.iter().flat_map(|c| c.comp_index().to_vec()).collect();
    let block_thresholds = vec![probe.threshold; block.len()];

    let mut profiles: [Profile; 5] = Default::default();
    let mut wall = [Duration::ZERO; 5];
    let mut note = |k: usize, report: LaunchReport| {
        wall[k] += report.wall_time;
        profiles[k].record(report);
    };
    for chunk in Chunker::new(probe.assembly, probe.chunk_size, plen) {
        if chunk.seq.len() < plen {
            continue;
        }
        let chr = device.alloc_from_slice(chunk.seq).map_err(sim)?;
        let pat = device
            .alloc_constant_from_slice(pattern.comp())
            .map_err(sim)?;
        let pat_index = device
            .alloc_constant_from_slice(pattern.comp_index())
            .map_err(sim)?;
        let found = FinderOutput::allocate(&device, chunk.scan_len).map_err(sim)?;
        let (finder, _) = FinderKernel::new(
            chr.clone(),
            pat,
            pat_index,
            found,
            chunk.scan_len,
            chunk.seq.len(),
            &pattern,
        );
        note(
            0,
            device
                .launch(&finder, NdRange::linear_cover(chunk.scan_len, WORK_GROUP))
                .map_err(sim)?,
        );
        let n = finder.out.count_matches();
        if n == 0 {
            continue;
        }
        let (loci, flags) = (finder.out.loci.clone(), finder.out.flags.clone());
        let nd = NdRange::linear_cover(n, WORK_GROUP);
        let comp = device.alloc_from_slice(query.comp()).map_err(sim)?;
        let comp_index = device.alloc_from_slice(query.comp_index()).map_err(sim)?;

        let (k, _) = ComparerKernel::new(
            probe.opt,
            chr.clone(),
            loci.clone(),
            flags.clone(),
            comp.clone(),
            comp_index.clone(),
            n,
            probe.threshold,
            ComparerOutput::allocate(&device, 2 * n + 1).map_err(sim)?,
            query,
        );
        note(1, device.launch(&k, nd).map_err(sim)?);

        let two = TwoBitSeq::encode(chunk.seq);
        let (k, _) = TwoBitComparerKernel::new(
            device.alloc_from_slice(two.packed_bytes()).map_err(sim)?,
            device.alloc_from_slice(two.mask_bytes()).map_err(sim)?,
            loci.clone(),
            flags.clone(),
            comp.clone(),
            comp_index.clone(),
            n,
            probe.threshold,
            ComparerOutput::allocate(&device, 2 * n + 1).map_err(sim)?,
            query,
        );
        note(2, device.launch(&k, nd).map_err(sim)?);

        let four = NibbleSeq::encode(chunk.seq);
        let (k, _) = FourBitComparerKernel::new(
            device.alloc_from_slice(four.nibble_bytes()).map_err(sim)?,
            loci.clone(),
            flags.clone(),
            comp,
            comp_index,
            n,
            probe.threshold,
            ComparerOutput::allocate(&device, 2 * n + 1).map_err(sim)?,
            query,
        );
        note(3, device.launch(&k, nd).map_err(sim)?);

        let (k, _) = MultiComparerKernel::new(
            chr,
            loci,
            flags,
            device.alloc_from_slice(&block_comp).map_err(sim)?,
            device.alloc_from_slice(&block_index).map_err(sim)?,
            GuideThresholds::PerGuide(device.alloc_from_slice(&block_thresholds).map_err(sim)?),
            n,
            plen,
            block.len(),
            MultiComparerOutput::allocate(&device, 2 * n * block.len() + 1).map_err(sim)?,
        );
        note(4, device.launch(&k, nd).map_err(sim)?);
    }

    for (k, label) in KERNELS.iter().enumerate() {
        let Some((_, stats)) = profiles[k].hotspots().into_iter().next() else {
            continue;
        };
        let ns_per_item = wall[k].as_secs_f64() * 1e9 / stats.items as f64;
        out.set(format!("kernels.{label}.host_ns_per_item"), ns_per_item);
        out.set(format!("sim.{label}.total_s"), stats.total_s);
        out.set(format!("sim.{label}.calls"), stats.calls as f64);
        out.set(format!("sim.{label}.occupancy"), f64::from(stats.occupancy));
        out.set(
            format!("sim.{label}.global_load_bytes"),
            stats.counters.global_load_bytes as f64,
        );
        out.set(
            format!("sim.{label}.arith_ops"),
            stats.counters.arith_ops as f64,
        );
    }
    if let Some((_, comparer)) = profiles[1].hotspots().into_iter().next() {
        let ns = wall[1].as_secs_f64() * 1e9 / comparer.counters.global_loads as f64;
        out.set("gpu_sim.host_ns_per_global_load", ns);
    }
    Ok(())
}
