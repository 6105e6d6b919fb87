//! # cas-offinder — off-target site search for Cas9 RNA-guided endonucleases
//!
//! A from-scratch reimplementation of
//! [Cas-OFFinder](https://github.com/snugel/cas-offinder) (Bae, Park & Kim,
//! 2014) built to reproduce *"Experience Migrating OpenCL to SYCL: A Case
//! Study on Searches for Potential Off-Target Sites of Cas9 RNA-Guided
//! Endonucleases on AMD GPUs"* (Jin & Vetter, SOCC 2023).
//!
//! The search takes a PAM pattern (e.g. `NNNNNNNNNNNNNNNNNNNNNRG` for
//! SpCas9), a set of guide queries, and a mismatch threshold, and scans a
//! genome on both strands:
//!
//! 1. the **finder** kernel selects every position whose window matches the
//!    PAM pattern on either strand ([`kernels::FinderKernel`]);
//! 2. the **comparer** kernel counts mismatched bases at each candidate and
//!    compacts the sites within the threshold ([`kernels::ComparerKernel`]),
//!    in the paper's five optimization stages ([`kernels::OptLevel`]).
//!
//! Two host applications drive the kernels on the `gpu-sim` device
//! simulator: [`pipeline::ocl`] (the 13-step OpenCL original) and
//! [`pipeline::sycl`] (the 8-step SYCL migration). [`cpu`] holds the scalar
//! oracle and the multithreaded host baseline; [`bulge`] adds the
//! insertion/deletion (bulge) search; [`kernels::Comparer`] is the serving
//! comparer family — packed-genome (the original authors' follow-up work),
//! JIT-specialized and fused multi-guide comparers, one strand loop generic
//! over the reference encoding and the guide source.
//!
//! ## Quickstart
//!
//! ```
//! use cas_offinder::pipeline::{self, PipelineConfig};
//! use cas_offinder::SearchInput;
//! use gpu_sim::DeviceSpec;
//!
//! // A miniature genome and the canonical example input.
//! let assembly = genome::synth::hg38_mini(0.002);
//! let input = SearchInput::canonical_example("hg38-mini");
//!
//! // Run the SYCL application on a simulated MI100.
//! let config = PipelineConfig::new(DeviceSpec::mi100()).chunk_size(1 << 16);
//! let report = pipeline::sycl::run(&assembly, &input, &config)?;
//! println!("{} sites in {:.3}s simulated", report.offtargets.len(), report.timing.elapsed_s);
//!
//! // The GPU pipelines agree with the scalar oracle.
//! assert_eq!(report.offtargets, cas_offinder::cpu::search_sequential(&assembly, &input));
//! # Ok::<(), sycl_rt::SyclException>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod input;
mod pattern;
mod report;
mod site;

pub mod bulge;
pub mod cli;
pub mod cpu;
pub mod kernels;
pub mod lru;
pub mod pipeline;
pub mod stats;

pub use input::{InputError, Query, SearchInput};
pub use kernels::OptLevel;
pub use pattern::CompiledSeq;
pub use report::{Api, SearchReport, TimingBreakdown};
pub use site::{sort_canonical, OffTarget, Strand};
