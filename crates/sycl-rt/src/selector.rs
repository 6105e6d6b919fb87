//! Device selectors (Table I: SYCL replaces OpenCL's platform/device/context
//! steps with a selector class).

use gpu_sim::DeviceSpec;

use crate::error::{SyclException, SyclResult};

/// A device selector: searches for a device matching a user preference at
/// runtime (§II.C of the paper).
pub trait DeviceSelector {
    /// Pick a device.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::DeviceNotFound`] when nothing matches.
    fn select(&self) -> SyclResult<DeviceSpec>;
}

/// Selects a GPU — optionally one with a specific name.
///
/// # Examples
///
/// ```
/// use sycl_rt::selector::{DeviceSelector, GpuSelector};
///
/// let spec = GpuSelector::named("MI100").select()?;
/// assert_eq!(spec.name, "MI100");
/// # Ok::<(), sycl_rt::SyclException>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GpuSelector {
    name: Option<String>,
}

impl GpuSelector {
    /// Select any GPU (the first of the simulated platform).
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the GPU called `name`.
    pub fn named(name: impl Into<String>) -> Self {
        GpuSelector {
            name: Some(name.into()),
        }
    }
}

impl DeviceSelector for GpuSelector {
    fn select(&self) -> SyclResult<DeviceSpec> {
        let devices = DeviceSpec::paper_devices();
        match &self.name {
            None => Ok(devices[0].clone()),
            Some(name) => devices.into_iter().find(|d| d.name == name).ok_or_else(|| {
                SyclException::DeviceNotFound {
                    wanted: format!("gpu named {name}"),
                }
            }),
        }
    }
}

/// The default selector: any accelerator, falling back like SYCL's
/// `default_selector_v`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultSelector;

impl DeviceSelector for DefaultSelector {
    fn select(&self) -> SyclResult<DeviceSpec> {
        GpuSelector::new().select()
    }
}

/// A selector carrying an explicit [`DeviceSpec`] — for tests and for
/// running on custom devices.
#[derive(Debug, Clone)]
pub struct SpecSelector(pub DeviceSpec);

impl DeviceSelector for SpecSelector {
    fn select(&self) -> SyclResult<DeviceSpec> {
        Ok(self.0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_gpu_selector_finds_a_device() {
        let spec = GpuSelector::new().select().unwrap();
        assert_eq!(spec.name, "Radeon VII");
        assert_eq!(DefaultSelector.select().unwrap().name, "Radeon VII");
    }

    #[test]
    fn named_selector_filters() {
        assert_eq!(GpuSelector::named("MI60").select().unwrap().name, "MI60");
        let err = GpuSelector::named("A100").select().unwrap_err();
        assert!(matches!(err, SyclException::DeviceNotFound { .. }));
    }

    #[test]
    fn spec_selector_passes_through() {
        let spec = SpecSelector(DeviceSpec::mi100()).select().unwrap();
        assert_eq!(spec.name, "MI100");
    }
}
