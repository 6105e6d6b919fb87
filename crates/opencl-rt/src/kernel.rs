//! Kernel objects and arguments (Table I steps 8–9).

use std::fmt;
use std::sync::Arc;

use gpu_sim::executor::LaunchReport;
use gpu_sim::{Device, DeviceBuffer, NdRange, SimResult};

use std::sync::Mutex;

use crate::error::{ClError, ClResult};
use crate::steps::{Step, StepLog};

macro_rules! kernel_arg_buffers {
    ($(($variant:ident, $t:ty, $as_fn:ident)),* $(,)?) => {
        /// A value bound to a kernel argument slot (`clSetKernelArg`).
        ///
        /// OpenCL kernel arguments are set positionally and type-erased; the
        /// kernel implementation recovers the typed values with the `as_*`
        /// accessors, which produce `CL_INVALID_ARG_VALUE`-style errors on
        /// mismatch.
        #[derive(Debug, Clone)]
        #[non_exhaustive]
        pub enum KernelArg {
            $(
                #[doc = concat!("A buffer of `", stringify!($t), "` elements.")]
                $variant(DeviceBuffer<$t>),
            )*
            /// A `u8` scalar.
            U8(u8),
            /// A `u16` scalar.
            U16(u16),
            /// A `u32` scalar.
            U32(u32),
            /// An `i32` scalar.
            I32(i32),
            /// A `u64` scalar.
            U64(u64),
            /// An `f32` scalar.
            F32(f32),
            /// A `__local` allocation of `bytes` bytes (a NULL-argument
            /// `clSetKernelArg` with a size).
            Local {
                /// Size of the local allocation in bytes.
                bytes: usize,
            },
        }

        impl KernelArg {
            $(
                #[doc = concat!("Recover a `", stringify!($t), "` buffer bound at `index`.")]
                ///
                /// # Errors
                ///
                /// Returns [`ClError::InvalidArgValue`] when the slot holds
                /// something else.
                pub fn $as_fn(&self, index: usize) -> ClResult<DeviceBuffer<$t>> {
                    match self {
                        KernelArg::$variant(b) => Ok(b.clone()),
                        other => Err(ClError::InvalidArgValue {
                            index,
                            expected: format!(
                                concat!("buffer of ", stringify!($t), ", got {:?}"),
                                other.kind()
                            ),
                        }),
                    }
                }
            )*
        }
    };
}

kernel_arg_buffers!(
    (BufU8, u8, as_buf_u8),
    (BufI8, i8, as_buf_i8),
    (BufU16, u16, as_buf_u16),
    (BufI16, i16, as_buf_i16),
    (BufU32, u32, as_buf_u32),
    (BufI32, i32, as_buf_i32),
    (BufU64, u64, as_buf_u64),
    (BufI64, i64, as_buf_i64),
    (BufF32, f32, as_buf_f32),
    (BufF64, f64, as_buf_f64),
);

macro_rules! kernel_arg_scalars {
    ($(($variant:ident, $t:ty, $as_fn:ident)),* $(,)?) => {
        impl KernelArg {
            $(
                #[doc = concat!("Recover a `", stringify!($t), "` scalar bound at `index`.")]
                ///
                /// # Errors
                ///
                /// Returns [`ClError::InvalidArgValue`] when the slot holds
                /// something else.
                pub fn $as_fn(&self, index: usize) -> ClResult<$t> {
                    match self {
                        KernelArg::$variant(v) => Ok(*v),
                        other => Err(ClError::InvalidArgValue {
                            index,
                            expected: format!(
                                concat!(stringify!($t), " scalar, got {:?}"),
                                other.kind()
                            ),
                        }),
                    }
                }
            )*
        }
    };
}

kernel_arg_scalars!(
    (U8, u8, as_u8),
    (U16, u16, as_u16),
    (U32, u32, as_u32),
    (I32, i32, as_i32),
    (U64, u64, as_u64),
    (F32, f32, as_f32),
);

impl KernelArg {
    /// Recover a `__local` allocation size bound at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgValue`] when the slot holds something
    /// else.
    pub fn as_local_bytes(&self, index: usize) -> ClResult<usize> {
        match self {
            KernelArg::Local { bytes } => Ok(*bytes),
            other => Err(ClError::InvalidArgValue {
                index,
                expected: format!("__local size, got {:?}", other.kind()),
            }),
        }
    }

    /// Short name of the stored kind, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            KernelArg::BufU8(_) => "buffer<u8>",
            KernelArg::BufI8(_) => "buffer<i8>",
            KernelArg::BufU16(_) => "buffer<u16>",
            KernelArg::BufI16(_) => "buffer<i16>",
            KernelArg::BufU32(_) => "buffer<u32>",
            KernelArg::BufI32(_) => "buffer<i32>",
            KernelArg::BufU64(_) => "buffer<u64>",
            KernelArg::BufI64(_) => "buffer<i64>",
            KernelArg::BufF32(_) => "buffer<f32>",
            KernelArg::BufF64(_) => "buffer<f64>",
            KernelArg::U8(_) => "u8",
            KernelArg::U16(_) => "u16",
            KernelArg::U32(_) => "u32",
            KernelArg::I32(_) => "i32",
            KernelArg::U64(_) => "u64",
            KernelArg::F32(_) => "f32",
            KernelArg::Local { .. } => "__local",
        }
    }
}

/// A kernel function compiled into a [`Program`](crate::Program) — the
/// simulated analogue of a `__kernel` entry point in OpenCL C source.
///
/// Implementations live with the application (e.g. the `cas-offinder`
/// crate's finder and comparer) and bridge the type-erased OpenCL argument
/// list to a typed `gpu_sim` kernel.
pub trait ClKernelFunction: Send + Sync {
    /// The `__kernel` function name.
    fn name(&self) -> &str;

    /// Number of arguments the kernel takes.
    fn arity(&self) -> usize;

    /// Validate the bound arguments and produce a launchable kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgValue`] for missing or mistyped
    /// arguments.
    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>>;

    /// The work-group size the runtime picks when the host passes no local
    /// size (the paper: "the sizes in the OpenCL program are determined by
    /// an OpenCL runtime"). AMD's runtime picks the kernel's maximum
    /// supported size — 256 for these kernels — which is why the paper's
    /// kernel times end up close between the two applications; the queue
    /// falls back to smaller wavefront multiples when 256 does not divide
    /// the global size.
    fn runtime_work_group_size(&self) -> usize {
        256
    }
}

/// A kernel with validated arguments, ready to launch on a device.
pub trait BoundKernel: Send + Sync {
    /// Execute over `nd` on `device`.
    ///
    /// # Errors
    ///
    /// Propagates simulator launch failures.
    fn launch(&self, device: &Device, nd: NdRange) -> SimResult<LaunchReport>;
}

/// A kernel object (`cl_kernel`, Table I step 8) with its positional
/// argument slots (step 9).
pub struct Kernel {
    function: Arc<dyn ClKernelFunction>,
    args: Mutex<Vec<Option<KernelArg>>>,
    log: StepLog,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound = self
            .args
            .lock()
            .unwrap()
            .iter()
            .filter(|a| a.is_some())
            .count();
        f.debug_struct("Kernel")
            .field("name", &self.function.name())
            .field("arity", &self.function.arity())
            .field("bound_args", &bound)
            .finish()
    }
}

impl Kernel {
    pub(crate) fn new(function: Arc<dyn ClKernelFunction>, log: StepLog) -> Self {
        let arity = function.arity();
        Kernel {
            function,
            args: Mutex::new(vec![None; arity]),
            log,
        }
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        self.function.name()
    }

    /// Number of argument slots.
    pub fn arity(&self) -> usize {
        self.function.arity()
    }

    /// Bind `arg` to slot `index` (`clSetKernelArg`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgIndex`] for an out-of-range slot.
    pub fn set_arg(&self, index: usize, arg: KernelArg) -> ClResult<()> {
        let mut args = self.args.lock().unwrap();
        let arity = args.len();
        let slot = args
            .get_mut(index)
            .ok_or(ClError::InvalidArgIndex { index, arity })?;
        *slot = Some(arg);
        self.log.record(Step::SetKernelArgs);
        Ok(())
    }

    /// Validate all slots and produce a launchable kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidArgValue`] if any slot is unset or any
    /// argument has the wrong type.
    pub(crate) fn bind(&self) -> ClResult<Box<dyn BoundKernel>> {
        let args = self.args.lock().unwrap();
        let mut bound = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            match a {
                Some(v) => bound.push(v.clone()),
                None => {
                    return Err(ClError::InvalidArgValue {
                        index: i,
                        expected: "an argument to be set before enqueue".to_owned(),
                    })
                }
            }
        }
        self.function.bind(&bound)
    }

    pub(crate) fn runtime_work_group_size(&self) -> usize {
        self.function.runtime_work_group_size()
    }

    /// Explicitly release the kernel object (`clReleaseKernel`).
    pub fn release(self) {
        self.log.record(Step::ReleaseResources);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    struct Nop;
    impl ClKernelFunction for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn arity(&self) -> usize {
            2
        }
        fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
            args[0].as_u32(0)?;
            args[1].as_buf_u8(1)?;
            Ok(Box::new(NopBound))
        }
    }
    struct NopBound;
    impl BoundKernel for NopBound {
        fn launch(&self, _d: &Device, _nd: NdRange) -> SimResult<LaunchReport> {
            unreachable!("not launched in these tests")
        }
    }

    fn buf() -> DeviceBuffer<u8> {
        Device::new(DeviceSpec::mi100()).alloc::<u8>(4).unwrap()
    }

    #[test]
    fn set_arg_validates_index() {
        let k = Kernel::new(Arc::new(Nop), StepLog::new());
        assert!(k.set_arg(0, KernelArg::U32(5)).is_ok());
        let err = k.set_arg(2, KernelArg::U32(5)).unwrap_err();
        assert_eq!(err, ClError::InvalidArgIndex { index: 2, arity: 2 });
    }

    #[test]
    fn bind_requires_all_args() {
        let k = Kernel::new(Arc::new(Nop), StepLog::new());
        k.set_arg(0, KernelArg::U32(5)).unwrap();
        let err = k.bind().map(|_| ()).unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 1, .. }));
        k.set_arg(1, KernelArg::BufU8(buf())).unwrap();
        assert!(k.bind().is_ok());
    }

    #[test]
    fn typed_accessors_reject_mismatches() {
        let a = KernelArg::U32(7);
        assert_eq!(a.as_u32(0).unwrap(), 7);
        assert!(a.as_u16(0).is_err());
        assert!(a.as_buf_u32(0).is_err());
        let b = KernelArg::BufU8(buf());
        assert!(b.as_buf_u8(1).is_ok());
        assert!(b.as_buf_i32(1).is_err());
        let l = KernelArg::Local { bytes: 128 };
        assert_eq!(l.as_local_bytes(2).unwrap(), 128);
        assert!(KernelArg::U8(1).as_local_bytes(0).is_err());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(KernelArg::U32(1).kind(), "u32");
        assert_eq!(KernelArg::BufU8(buf()).kind(), "buffer<u8>");
        assert_eq!(KernelArg::Local { bytes: 1 }.kind(), "__local");
    }

    #[test]
    fn arg_mismatch_errors_name_both_sides() {
        let err = KernelArg::U32(1).as_buf_u8(3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("buffer of u8"));
        assert!(msg.contains("u32"));
    }
}
