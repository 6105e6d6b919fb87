//! # casoff-bench — experiment harness for the SOCC'23 reproduction
//!
//! One module per table/figure of the paper's evaluation:
//!
//! | Experiment | Module | Regenerates |
//! |---|---|---|
//! | Table I | [`experiments::table1`] | programming-step counts (13 vs 8) |
//! | Table VIII | [`experiments::table8`] | OpenCL vs SYCL elapsed time |
//! | Fig. 2 | [`experiments::fig2`] | comparer kernel time, base..opt4 |
//! | Table IX | [`experiments::table9`] | baseline vs optimized SYCL app |
//! | Table X | [`experiments::table10`] | code length / registers / occupancy |
//!
//! The `repro` binary runs them all and prints paper-vs-measured tables;
//! `EXPERIMENTS.md` records a full run.

pub mod experiments;
pub mod microbench;
pub mod paper;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use cas_offinder::pipeline::{self, PipelineConfig};
use cas_offinder::{Api, OptLevel, SearchInput, SearchReport};
use genome::{synth, Assembly};
use gpu_sim::DeviceSpec;

/// The evaluation workload: both miniature assemblies and the canonical
/// input, at a given scale (1.0 ≈ 6–7.5 Mbp per assembly).
pub struct Workload {
    /// `hg19-mini`.
    pub hg19: Assembly,
    /// `hg38-mini`.
    pub hg38: Assembly,
    /// The scale the assemblies were generated at.
    pub scale: f64,
}

impl Workload {
    /// Generate the workload at `scale`.
    pub fn new(scale: f64) -> Workload {
        Workload {
            hg19: synth::hg19_mini(scale),
            hg38: synth::hg38_mini(scale),
            scale,
        }
    }

    /// Dataset by index (0 = hg19, 1 = hg38), matching [`paper::DATASETS`].
    pub fn dataset(&self, index: usize) -> &Assembly {
        match index {
            0 => &self.hg19,
            _ => &self.hg38,
        }
    }

    /// The canonical example input targeting dataset `index`.
    pub fn input(&self, index: usize) -> SearchInput {
        SearchInput::canonical_example(self.dataset(index).name())
    }

    /// Base pairs of the real assembly the miniature stands in for.
    pub fn full_bp(index: usize) -> u64 {
        match index {
            0 => synth::HG19_FULL_BP,
            _ => synth::HG38_FULL_BP,
        }
    }

    /// Factor to extrapolate a simulated miniature time to the full
    /// assembly.
    pub fn extrapolation_factor(&self, index: usize) -> f64 {
        Self::full_bp(index) as f64 / self.dataset(index).total_len() as f64
    }
}

/// One memoised search: (device, dataset, API, comparer opt level).
pub type SearchKey = (usize, usize, Api, OptLevel);

/// Runs pipelines and caches their reports, so experiments that share a
/// configuration (e.g. Table VIII's SYCL baseline and Table IX's baseline)
/// simulate it once.
pub struct Runner {
    workload: Workload,
    chunk_size: usize,
    cache: HashMap<SearchKey, SearchReport>,
}

impl Runner {
    /// A runner over `workload` with the given chunk size.
    pub fn new(workload: Workload, chunk_size: usize) -> Runner {
        Runner {
            workload,
            chunk_size,
            cache: HashMap::new(),
        }
    }

    /// The workload under test.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Owned scan positions per chunk of every search this runner makes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The three simulated devices, in the paper's order.
    pub fn devices() -> [DeviceSpec; 3] {
        DeviceSpec::paper_devices()
    }

    /// Simulate (or fetch from cache) one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the underlying pipeline fails — experiments are expected
    /// to run on valid configurations.
    pub fn report(
        &mut self,
        device: usize,
        dataset: usize,
        api: Api,
        opt: OptLevel,
    ) -> &SearchReport {
        let key = (device, dataset, api, opt);
        if !self.cache.contains_key(&key) {
            let report = self.simulate(key);
            self.cache.insert(key, report);
        }
        &self.cache[&key]
    }

    /// Simulate every search in `keys` that is not cached yet, on at most
    /// `available_parallelism` scoped threads. A search's report is a pure
    /// function of its key, so the cache ends up holding what
    /// [`report`](Self::report) would compute one search at a time.
    ///
    /// # Panics
    ///
    /// Panics if a pipeline fails, as [`report`](Self::report) does.
    pub fn precompute(&mut self, keys: &[SearchKey]) {
        let mut todo: Vec<SearchKey> = Vec::new();
        for key in keys {
            if !self.cache.contains_key(key) && !todo.contains(key) {
                todo.push(*key);
            }
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let next = AtomicUsize::new(0);
        let this = &*self;
        let reports: Vec<(SearchKey, SearchReport)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads.min(todo.len()))
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        while let Some(&key) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                            done.push((key, this.simulate(key)));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a search thread panicked"))
                .collect()
        });
        self.cache.extend(reports);
    }

    /// Run one search.
    fn simulate(&self, (device, dataset, api, opt): SearchKey) -> SearchReport {
        let spec = Self::devices()[device].clone();
        let config = PipelineConfig::new(spec)
            .chunk_size(self.chunk_size)
            .opt(opt);
        let (assembly, input) = (self.workload.dataset(dataset), self.workload.input(dataset));
        match api {
            Api::OpenCl => {
                pipeline::ocl::run(assembly, &input, &config).expect("opencl pipeline failed")
            }
            Api::Sycl => {
                pipeline::sycl::run(assembly, &input, &config).expect("sycl pipeline failed")
            }
        }
    }
}

/// A plain-text table with a title, for terminal output.
#[derive(Debug, Clone)]
pub struct TextTable {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, cell) in cells.iter().enumerate().take(cols) {
                write!(f, "{:w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format seconds with four decimals.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.4}")
}

/// Format a ratio (speedup) with two decimals.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}")
}

/// Relative deviation of `measured` from `expected`, as a percentage.
pub fn deviation_pct(measured: f64, expected: f64) -> f64 {
    (measured - expected) / expected * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_indexing() {
        let w = Workload::new(0.003);
        assert_eq!(w.dataset(0).name(), "hg19-mini");
        assert_eq!(w.dataset(1).name(), "hg38-mini");
        assert_eq!(w.input(1).genome, "hg38-mini");
        assert!(w.extrapolation_factor(0) > 100.0);
    }

    #[test]
    fn runner_caches_reports() {
        let mut r = Runner::new(Workload::new(0.002), 1 << 14);
        let a = r.report(2, 0, Api::Sycl, OptLevel::Base).timing.elapsed_s;
        let before = r.cache.len();
        let b = r.report(2, 0, Api::Sycl, OptLevel::Base).timing.elapsed_s;
        assert_eq!(a, b);
        assert_eq!(r.cache.len(), before);
    }

    #[test]
    fn precomputed_searches_equal_one_at_a_time_reports() {
        let keys = [
            (2, 0, Api::Sycl, OptLevel::Base),
            (0, 0, Api::OpenCl, OptLevel::Base),
            (2, 0, Api::Sycl, OptLevel::Base),
        ];
        let mut parallel = Runner::new(Workload::new(0.002), 1 << 14);
        parallel.precompute(&keys);
        assert_eq!(parallel.cache.len(), 2, "duplicates run once");
        let mut serial = Runner::new(Workload::new(0.002), 1 << 14);
        for (g, d, api, opt) in keys {
            let (a, b) = (
                serial.report(g, d, api, opt),
                &parallel.cache[&(g, d, api, opt)],
            );
            assert_eq!(a.offtargets, b.offtargets);
            assert_eq!(a.timing.elapsed_s.to_bits(), b.timing.elapsed_s.to_bits());
            assert_eq!(a.timing.comparer_s.to_bits(), b.timing.comparer_s.to_bits());
        }
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new("demo", &["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_s(1.23456789), "1.2346");
        assert_eq!(fmt_x(1.234), "1.23");
        assert!((deviation_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
    }
}
