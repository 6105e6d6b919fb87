//! Ablations beyond the paper's tables: the design choices DESIGN.md marks
//! with ♦, plus the extensions (2-bit packing, multi-GPU).

use cas_offinder::pipeline::chunk::{Sites, SyclChunkRunner};
use cas_offinder::pipeline::{self, entries_to_offtargets, PipelineConfig};
use cas_offinder::{sort_canonical, OffTarget, OptLevel, SearchInput, TimingBreakdown};
use casoff_serve::cache::{ChunkEncoding::Adaptive, ChunkPayload, EncodedChunk};
use genome::{Assembly, Chunker};
use gpu_sim::{profile::Profile, DeviceSpec};
use sycl_rt::SyclResult;

use crate::{fmt_s, fmt_x, Runner, TextTable};

/// Results of the ablation suite.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Comparer kernel seconds per work-group size (64/128/256/512),
    /// baseline comparer on MI100, hg19 dataset.
    pub workgroup: Vec<(usize, f64)>,
    /// (char comparer seconds, 2-bit comparer seconds) on MI100, hg19.
    pub twobit: (f64, f64),
    /// (chunks encoded as 4-bit nibbles, chunks run) in the 2-bit search.
    pub nibble_chunks: (usize, usize),
    /// Elapsed seconds for 1..=4 MI100 devices.
    pub multi_gpu: Vec<(usize, f64)>,
}

impl Ablations {
    /// Run the suite on the runner's workload at its chunk size (the
    /// multi-GPU rows at a quarter of it).
    pub fn run(runner: &mut Runner) -> Ablations {
        let chunk = runner.chunk_size();
        let workload = runner.workload();
        let assembly = &workload.hg19;
        let input = workload.input(0);

        // ♦ Work-group size (the Table VIII mechanism).
        let workgroup = [64usize, 128, 256, 512]
            .into_iter()
            .map(|wgs| {
                let config = PipelineConfig::new(DeviceSpec::mi100())
                    .chunk_size(chunk)
                    .work_group_size(Some(wgs));
                let report = pipeline::sycl::run(assembly, &input, &config).expect("pipeline");
                (wgs, report.timing.comparer_s)
            })
            .collect();

        // Extension: 2-bit packed genome (related work [21]).
        let config = PipelineConfig::new(DeviceSpec::mi100())
            .chunk_size(chunk)
            .opt(OptLevel::Opt3);
        let chars = pipeline::sycl::run(assembly, &input, &config).expect("pipeline");
        let (sites, packed, nibbles) = packed_search(assembly, &input, &config).expect("pipeline");
        assert_eq!(sites, chars.offtargets, "2-bit vs char sites");
        let twobit = (chars.timing.comparer_s, packed.comparer_s);

        // Extension: multi-GPU scaling.
        let multi_gpu = (1usize..=4)
            .map(|n| {
                let fleet = vec![DeviceSpec::mi100(); n];
                let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(chunk / 4);
                let (report, _) =
                    pipeline::multi::run(assembly, &input, &config, &fleet).expect("pipeline");
                (n, report.timing.elapsed_s)
            })
            .collect();

        Ablations {
            workgroup,
            twobit,
            nibble_chunks: (nibbles, packed.finder_launches),
            multi_gpu,
        }
    }

    /// Render the three ablations.
    pub fn render(&self) -> Vec<TextTable> {
        let mut wg = TextTable::new(
            "Ablation — work-group size (baseline comparer, MI100, hg19-mini)",
            &["work-group", "comparer (sim s)", "vs 256"],
        );
        let base_256 = self
            .workgroup
            .iter()
            .find(|&&(w, _)| w == 256)
            .map(|&(_, t)| t)
            .unwrap_or(1.0);
        for &(wgs, t) in &self.workgroup {
            wg.row(vec![wgs.to_string(), fmt_s(t), fmt_x(t / base_256)]);
        }

        let mut tb = TextTable::new(
            "Extension — 2-bit packed genome (opt3 comparer, MI100, hg19-mini; related work [21])",
            &["kernel", "comparer (sim s)", "speedup"],
        );
        let ((char_s, packed_s), (nibbles, chunks)) = (self.twobit, self.nibble_chunks);
        tb.row(vec!["char".into(), fmt_s(char_s), fmt_x(1.0)]);
        let label = format!("2-bit ({nibbles} of {chunks} chunks 4-bit)");
        tb.row(vec![label, fmt_s(packed_s), fmt_x(char_s / packed_s)]);

        let mut mg = TextTable::new(
            "Extension — multi-GPU scaling (MI100 fleet, hg19-mini)",
            &["devices", "elapsed (sim s)", "scaling"],
        );
        let single = self.multi_gpu.first().map(|&(_, t)| t).unwrap_or(1.0);
        for &(n, t) in &self.multi_gpu {
            mg.row(vec![n.to_string(), fmt_s(t), fmt_x(single / t)]);
        }

        vec![wg, tb, mg]
    }
}

/// The 2-bit row's search: the serial SYCL loop of `pipeline::search` on
/// one [`SyclChunkRunner`] sized for the longest chunk, with each chunk
/// encoded by the serving cache's adaptive rule — 2-bit packed where that
/// compares exactly, 4-bit nibbles otherwise. Returns the canonically
/// sorted off-targets, the timing and the number of chunks that went to
/// nibbles.
///
/// # Errors
///
/// Propagates SYCL exceptions.
pub fn packed_search(
    assembly: &Assembly,
    input: &SearchInput,
    config: &PipelineConfig,
) -> SyclResult<(Vec<OffTarget>, TimingBreakdown, usize)> {
    let plen = input.pattern_len();
    let chunks = || Chunker::new(assembly, config.chunk_size, plen).filter(|c| c.seq.len() >= plen);
    let longest = chunks().map(|chunk| chunk.scan_len).max().unwrap_or(1);
    let runner = SyclChunkRunner::new(&config.clone().chunk_size(longest), &input.pattern)?;
    let tables = runner.prepare_queries(&input.queries);
    let (mut t, mut prof) = (TimingBreakdown::default(), Profile::new());
    let (mut offtargets, mut nibbles) = (Vec::new(), 0);
    for chunk in chunks() {
        // Only the payload is staged; the coordinates stay on `chunk`.
        let encoded = EncodedChunk::encode(0, String::new(), 0, 0, chunk.seq, Adaptive);
        let payload = encoded.payload();
        nibbles += usize::from(matches!(payload, ChunkPayload::Nibble(_)));
        let (p, len) = (payload.as_payload(), chunk.scan_len);
        let run = runner.run(p, len, None, Sites::Find, &tables, &mut t, &mut prof)?;
        for (query, entries) in input.queries.iter().zip(&run.per_query) {
            entries_to_offtargets(&chunk, &query.seq, plen, entries, &mut offtargets);
        }
    }
    t.elapsed_s = runner.elapsed_s();
    sort_canonical(&mut offtargets);
    Ok((offtargets, t, nibbles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use cas_offinder::Strand;

    #[test]
    fn ablation_shapes_hold() {
        let mut runner = Runner::new(Workload::new(0.01), 1 << 12);
        let a = Ablations::run(&mut runner);

        // The suite runs at the runner's chunk size, not at `repro`'s
        // 128 Ki default: the 2-bit row counts the runner's chunks.
        let chunks = |size| {
            let (hg19, plen) = (
                &runner.workload().hg19,
                runner.workload().input(0).pattern_len(),
            );
            Chunker::new(hg19, size, plen)
                .filter(|c| c.seq.len() >= plen)
                .count()
        };
        assert_ne!(chunks(1 << 12), chunks(1 << 17));
        assert_eq!(a.nibble_chunks.1, chunks(1 << 12), "2-bit row chunk count");

        // Smaller groups pay staging/dispatch more often.
        let t = |w: usize| a.workgroup.iter().find(|&&(x, _)| x == w).unwrap().1;
        assert!(t(64) > t(256), "workgroup: {:?}", a.workgroup);

        // Packing beats chars.
        assert!(a.twobit.1 < a.twobit.0, "2-bit: {:?}", a.twobit);

        // More devices, faster runs.
        assert!(
            a.multi_gpu[3].1 < a.multi_gpu[0].1 * 0.5,
            "{:?}",
            a.multi_gpu
        );

        let rendered = a.render();
        assert_eq!(rendered.len(), 3);
        assert!(rendered[1].to_string().contains("2-bit"));
    }

    #[test]
    fn degenerate_query_base_over_degenerate_genome_base_is_found() {
        // `R` in the query against `R` in the genome is a match; a 2-bit
        // payload would read the genome's `R` as `N` and drop the site.
        let mut assembly = Assembly::new("amb");
        assembly.push(genome::Chromosome::new("c1", b"TTACGRACGTAGGTT".to_vec()));
        let input = SearchInput::parse("amb\nNNNNNNNNNGG\nACGRACGTNNN 0\n").unwrap();
        let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(64);
        let (sites, _, nibbles) = packed_search(&assembly, &input, &config).unwrap();
        assert_eq!(nibbles, 1);
        let oracle = cas_offinder::cpu::search_sequential(&assembly, &input);
        assert_eq!(sites, oracle);
        assert_eq!(oracle.len(), 1, "{oracle:?}");
        let site = &oracle[0];
        assert_eq!((site.chrom.as_str(), site.position), ("c1", 2));
        assert_eq!((site.strand, site.mismatches), (Strand::Forward, 0));
    }
}
