//! # sycl-rt — a SYCL-flavoured host runtime on the `gpu-sim` simulator
//!
//! The SYCL side of the paper's migration study: the *eight logical
//! programming steps* of Table I — device selector, queue, buffer, kernel
//! lambda, submit, implicit accessor-driven transfers, events, and implicit
//! release via destructors. Compare with the thirteen steps of the sibling
//! `opencl-rt` crate; both execute on the same simulated devices, exactly as
//! the paper's two applications ran on the same GPUs.
//!
//! The API mirrors the constructs the paper walks through in §III:
//!
//! * [`Buffer`] with lazy device binding and implicit release (Table II);
//! * ranged [`Accessor`]s and `handler::copy` for data movement (Table III);
//! * `nd_item` coordinate queries via [`gpu_sim::ItemCtx`] (Table IV);
//! * `atomic_ref`-style atomics on accessors (Table V);
//! * [`Queue::submit`] + [`Handler::parallel_for`] for kernel execution
//!   (Table VI), with work-group barriers expressed as the structured
//!   phases of [`gpu_sim::KernelProgram`].
//!
//! ```
//! use sycl_rt::selector::GpuSelector;
//! use sycl_rt::{AccessMode, Buffer, Queue};
//!
//! let queue = Queue::new(&GpuSelector::new())?;
//! let buf = Buffer::from_slice(&[10u32, 20, 30, 40]);
//! queue.submit(|h| {
//!     let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
//!     h.parallel_for_fn("halve", gpu_sim::NdRange::linear(4, 4), move |item| {
//!         let i = item.global_id(0);
//!         let v = acc.load(item, i);
//!         acc.store(item, i, v / 2);
//!     })
//! })?;
//! assert_eq!(buf.to_vec(), vec![5, 10, 15, 20]);
//! # Ok::<(), sycl_rt::SyclException>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accessor;
mod buffer;
mod error;
mod event;
mod queue;

pub mod selector;
pub mod steps;

pub use accessor::{AccessMode, Accessor};
pub use buffer::{Buffer, BufferKind};
pub use error::{SyclException, SyclResult};
pub use event::SyclEvent;
pub use queue::{Handler, Queue};
pub use selector::{DefaultSelector, DeviceSelector, GpuSelector, SpecSelector};
pub use steps::{Step, StepLog};
