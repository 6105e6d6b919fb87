//! # gpu-sim — a deterministic GPU device simulator
//!
//! This crate is the hardware substrate of the workspace's reproduction of
//! *"Experience Migrating OpenCL to SYCL: A Case Study on Searches for
//! Potential Off-Target Sites of Cas9 RNA-Guided Endonucleases on AMD GPUs"*
//! (Jin & Vetter, SOCC 2023). The paper's experiments ran on AMD Radeon
//! VII / MI60 / MI100 GPUs; this crate stands in for that hardware with a
//! functional + first-order-performance model:
//!
//! * **Functional execution.** Kernels ([`kernel::KernelProgram`]) run over
//!   [`NdRange`]s with the full OpenCL/SYCL abstract memory model of the
//!   paper's Fig. 1: global and constant memory ([`DeviceBuffer`]), shared
//!   local memory per work-group ([`kernel::LocalMem`]), private state per
//!   work-item, work-group barriers (structured phases) and device-scope
//!   atomics. Work-groups run in order on the calling thread, so results,
//!   including the landing order of atomically compacted outputs, are the
//!   same on every run.
//! * **Performance model.** Every access is counted ([`AccessCounters`]);
//!   wavefronts are priced at their slowest lane ([`executor`]); a pseudo-ISA
//!   compiler estimates code bytes and register pressure ([`isa`]); register
//!   pressure determines occupancy ([`occupancy`]); and the timing model
//!   ([`timing`]) converts all of it into simulated seconds on a given
//!   [`DeviceSpec`] (Table VII presets).
//!
//! ## Quickstart
//!
//! ```
//! use gpu_sim::kernel::{KernelProgram, LocalMem};
//! use gpu_sim::{Device, DeviceBuffer, DeviceSpec, ItemCtx, NdRange};
//!
//! struct Saxpy {
//!     a: f32,
//!     x: DeviceBuffer<f32>,
//!     y: DeviceBuffer<f32>,
//! }
//!
//! impl KernelProgram for Saxpy {
//!     type Private = ();
//!     fn name(&self) -> &str {
//!         "saxpy"
//!     }
//!     fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
//!         let i = item.global_id(0);
//!         let v = self.a * self.x.load(item, i) + self.y.load(item, i);
//!         item.ops(2);
//!         self.y.store(item, i, v);
//!     }
//! }
//!
//! let device = Device::new(DeviceSpec::mi100());
//! let x = device.alloc_from_slice(&[1.0f32; 256])?;
//! let y = device.alloc_from_slice(&[2.0f32; 256])?;
//! let report = device.launch(
//!     &Saxpy { a: 3.0, x, y: y.clone() },
//!     NdRange::linear(256, 64),
//! )?;
//! assert_eq!(y.to_vec(), vec![5.0f32; 256]);
//! assert!(report.sim_time_s > 0.0);
//! # Ok::<(), gpu_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod clock;
mod counters;
mod device;
mod error;
mod item;
mod local;
mod memory;
mod ndrange;
mod spec;
mod traffic;

pub mod executor;
pub mod isa;
pub mod kernel;
pub mod occupancy;
pub mod profile;
pub mod timing;

pub use clock::SimClock;
pub use counters::AccessCounters;
pub use device::Device;
pub use error::{SimError, SimResult};
pub use executor::{ExecMode, LaunchReport};
pub use item::ItemCtx;
pub use kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
pub use memory::{AddressSpace, AtomicScalar, DeviceBuffer, Scalar};
pub use ndrange::NdRange;
pub use spec::DeviceSpec;
pub use traffic::{TrafficCounters, TrafficSnapshot};
