//! The thirteen logical programming steps of an OpenCL program (Table I of
//! the paper), and the [`StepLog`] that records which of them a host program
//! actually performed.

use std::fmt;
use std::sync::Arc;

use std::sync::Mutex;

/// One logical OpenCL programming step (Table I, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Step {
    /// 1. Platform query.
    PlatformQuery,
    /// 2. Device query of a platform.
    DeviceQuery,
    /// 3. Create context for devices.
    CreateContext,
    /// 4. Create command queue for context.
    CreateCommandQueue,
    /// 5. Create memory objects.
    CreateMemObjects,
    /// 6. Create program object.
    CreateProgram,
    /// 7. Build a program.
    BuildProgram,
    /// 8. Create kernel(s).
    CreateKernel,
    /// 9. Set kernel arguments.
    SetKernelArgs,
    /// 10. Enqueue a kernel object for execution.
    EnqueueKernel,
    /// 11. Transfer data from device to host.
    TransferData,
    /// 12. Event handling.
    EventHandling,
    /// 13. Release resources.
    ReleaseResources,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Step::PlatformQuery => "platform query",
            Step::DeviceQuery => "device query of a platform",
            Step::CreateContext => "create context for devices",
            Step::CreateCommandQueue => "create command queue for context",
            Step::CreateMemObjects => "create memory objects",
            Step::CreateProgram => "create program object",
            Step::BuildProgram => "build a program",
            Step::CreateKernel => "create kernel(s)",
            Step::SetKernelArgs => "set kernel arguments",
            Step::EnqueueKernel => "enqueue a kernel object for execution",
            Step::TransferData => "transfer data between device and host",
            Step::EventHandling => "event handling",
            Step::ReleaseResources => "release resources",
        };
        f.write_str(s)
    }
}

/// Every step, in Table I order.
pub const ALL_STEPS: [Step; 13] = [
    Step::PlatformQuery,
    Step::DeviceQuery,
    Step::CreateContext,
    Step::CreateCommandQueue,
    Step::CreateMemObjects,
    Step::CreateProgram,
    Step::BuildProgram,
    Step::CreateKernel,
    Step::SetKernelArgs,
    Step::EnqueueKernel,
    Step::TransferData,
    Step::EventHandling,
    Step::ReleaseResources,
];

/// Records the distinct logical steps a host program performed.
///
/// Shared by every object created from one [`Context`](crate::Context); the
/// Table I comparison in the experiment harness reads it back.
#[derive(Debug, Default, Clone)]
pub struct StepLog {
    inner: Arc<Mutex<Vec<Step>>>,
}

impl StepLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `step` (idempotent: each distinct step is kept once, in first
    /// occurrence order).
    pub fn record(&self, step: Step) {
        let mut steps = self.inner.lock().unwrap();
        if !steps.contains(&step) {
            steps.push(step);
        }
    }

    /// The distinct steps recorded so far, in first-occurrence order.
    pub fn steps(&self) -> Vec<Step> {
        self.inner.lock().unwrap().clone()
    }

    /// Number of distinct steps recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_has_thirteen_opencl_steps() {
        assert_eq!(ALL_STEPS.len(), 13);
    }

    #[test]
    fn log_deduplicates_and_preserves_order() {
        let log = StepLog::new();
        log.record(Step::CreateContext);
        log.record(Step::CreateCommandQueue);
        log.record(Step::CreateContext);
        assert_eq!(
            log.steps(),
            vec![Step::CreateContext, Step::CreateCommandQueue]
        );
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn clones_share_the_log() {
        let a = StepLog::new();
        let b = a.clone();
        b.record(Step::EnqueueKernel);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn steps_display_readably() {
        assert_eq!(Step::PlatformQuery.to_string(), "platform query");
        for s in ALL_STEPS {
            assert!(!s.to_string().is_empty());
        }
    }
}
