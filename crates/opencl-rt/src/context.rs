//! Contexts (Table I step 3).

use gpu_sim::Device;

use crate::error::{ClError, ClResult};
use crate::platform::ClDeviceId;
use crate::steps::{Step, StepLog};

/// An OpenCL context: a group of devices plus the shared [`StepLog`].
///
/// Creating a context records steps 1–3 of Table I (obtaining the
/// `ClDeviceId`s implies the platform and device queries already happened).
///
/// # Examples
///
/// ```
/// use opencl_rt::{Context, DeviceType, Platform};
///
/// let devices = Platform::query()[0].devices(DeviceType::Gpu)?;
/// let ctx = Context::new(&devices)?;
/// assert_eq!(ctx.device_count(), 3);
/// # Ok::<(), opencl_rt::ClError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Context {
    devices: Vec<Device>,
    log: StepLog,
}

impl Context {
    /// Create a context for `devices` (`clCreateContext`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::DeviceNotFound`] when `devices` is empty.
    pub fn new(devices: &[ClDeviceId]) -> ClResult<Context> {
        if devices.is_empty() {
            return Err(ClError::DeviceNotFound);
        }
        let log = StepLog::new();
        log.record(Step::PlatformQuery);
        log.record(Step::DeviceQuery);
        log.record(Step::CreateContext);
        Ok(Context {
            devices: devices
                .iter()
                .map(|d| Device::new(d.spec().clone()))
                .collect(),
            log,
        })
    }

    /// Number of devices in the context.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The simulator device at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidDevice`] when `index` is out of range.
    pub fn device(&self, index: usize) -> ClResult<&Device> {
        self.devices.get(index).ok_or(ClError::InvalidDevice {
            index,
            available: self.devices.len(),
        })
    }

    /// The shared programming-step log.
    pub fn step_log(&self) -> &StepLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeviceType, Platform};

    #[test]
    fn context_records_first_three_steps() {
        let devices = Platform::query()[0].devices(DeviceType::Gpu).unwrap();
        let ctx = Context::new(&devices).unwrap();
        assert_eq!(
            ctx.step_log().steps(),
            vec![Step::PlatformQuery, Step::DeviceQuery, Step::CreateContext]
        );
    }

    #[test]
    fn empty_device_list_is_rejected() {
        assert_eq!(Context::new(&[]).unwrap_err(), ClError::DeviceNotFound);
    }

    #[test]
    fn device_lookup_is_bounds_checked() {
        let devices = Platform::query()[0].devices(DeviceType::Gpu).unwrap();
        let ctx = Context::new(&devices[..1]).unwrap();
        assert!(ctx.device(0).is_ok());
        assert_eq!(
            ctx.device(1).unwrap_err(),
            ClError::InvalidDevice {
                index: 1,
                available: 1
            }
        );
    }
}
