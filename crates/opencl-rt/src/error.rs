//! OpenCL-style error codes.

use std::error::Error;
use std::fmt;

use gpu_sim::SimError;

/// Errors reported by the OpenCL-flavoured runtime, mirroring the `CL_*`
/// status codes of the specification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClError {
    /// `CL_DEVICE_NOT_FOUND`: no device matched the query.
    DeviceNotFound,
    /// `CL_INVALID_DEVICE`: a device index was out of range for the context.
    InvalidDevice {
        /// The requested device index.
        index: usize,
        /// Number of devices in the context.
        available: usize,
    },
    /// `CL_INVALID_PROGRAM`: operation requires a built program.
    ProgramNotBuilt,
    /// `CL_INVALID_KERNEL_NAME`: the program contains no kernel of that name.
    InvalidKernelName {
        /// The requested kernel name.
        name: String,
    },
    /// `CL_INVALID_ARG_INDEX`: `set_arg` beyond the kernel's argument count.
    InvalidArgIndex {
        /// The offending index.
        index: usize,
        /// Number of arguments the kernel takes.
        arity: usize,
    },
    /// `CL_INVALID_ARG_VALUE`: an argument had the wrong type, or was unset
    /// at enqueue time.
    InvalidArgValue {
        /// Argument position.
        index: usize,
        /// What the kernel expected there.
        expected: String,
    },
    /// `CL_INVALID_WORK_GROUP_SIZE`: the local size does not divide the
    /// global size or exceeds the device capability.
    InvalidWorkGroupSize {
        /// Human-readable reason.
        reason: String,
    },
    /// `CL_MEM_OBJECT_ALLOCATION_FAILURE` or a simulator-level failure.
    Sim(SimError),
}

impl fmt::Display for ClError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClError::DeviceNotFound => write!(f, "no device matched the query"),
            ClError::InvalidDevice { index, available } => {
                write!(f, "device index {index} out of range ({available} devices)")
            }
            ClError::ProgramNotBuilt => write!(f, "program has not been built"),
            ClError::InvalidKernelName { name } => {
                write!(f, "program defines no kernel named {name:?}")
            }
            ClError::InvalidArgIndex { index, arity } => {
                write!(
                    f,
                    "argument index {index} out of range for kernel with {arity} arguments"
                )
            }
            ClError::InvalidArgValue { index, expected } => {
                write!(f, "argument {index} invalid: expected {expected}")
            }
            ClError::InvalidWorkGroupSize { reason } => {
                write!(f, "invalid work-group size: {reason}")
            }
            ClError::Sim(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for ClError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ClError {
    fn from(e: SimError) -> Self {
        ClError::Sim(e)
    }
}

/// Convenience alias for runtime results.
pub type ClResult<T> = Result<T, ClError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_errors_convert_and_chain() {
        let sim = SimError::OutOfMemory {
            requested: 8,
            available: 4,
        };
        let cl: ClError = sim.clone().into();
        assert_eq!(cl, ClError::Sim(sim));
        assert!(Error::source(&cl).is_some());
    }

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = ClError::InvalidArgIndex { index: 9, arity: 4 };
        assert_eq!(
            e.to_string(),
            "argument index 9 out of range for kernel with 4 arguments"
        );
    }
}
