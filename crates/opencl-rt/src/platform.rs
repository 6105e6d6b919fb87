//! Platform and device queries (Table I steps 1–2).

use gpu_sim::DeviceSpec;

use crate::error::{ClError, ClResult};

/// Filter for device queries, mirroring `CL_DEVICE_TYPE_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceType {
    /// GPUs only (`CL_DEVICE_TYPE_GPU`).
    #[default]
    Gpu,
    /// CPUs only — the simulated platform exposes none.
    Cpu,
    /// Every device (`CL_DEVICE_TYPE_ALL`).
    All,
}

/// A device id returned by a platform query (`cl_device_id`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClDeviceId {
    spec: DeviceSpec,
}

impl ClDeviceId {
    /// Wrap a raw device specification (useful for tests with custom
    /// devices).
    pub fn from_spec(spec: DeviceSpec) -> Self {
        ClDeviceId { spec }
    }

    /// Device name (`CL_DEVICE_NAME`).
    pub fn name(&self) -> &str {
        self.spec.name
    }

    /// Device global memory size in bytes (`CL_DEVICE_GLOBAL_MEM_SIZE`).
    pub fn global_mem_size(&self) -> u64 {
        self.spec.global_mem_bytes
    }

    /// The underlying simulator specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }
}

/// An OpenCL platform (`cl_platform_id`).
///
/// The simulated environment exposes one platform, "ROCm-sim", carrying the
/// three GPUs of the paper's Table VII.
///
/// # Examples
///
/// ```
/// use opencl_rt::{DeviceType, Platform};
///
/// let platforms = Platform::query();
/// assert_eq!(platforms.len(), 1);
/// let gpus = platforms[0].devices(DeviceType::Gpu)?;
/// assert_eq!(gpus.len(), 3);
/// assert_eq!(gpus[2].name(), "MI100");
/// # Ok::<(), opencl_rt::ClError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    vendor: String,
    devices: Vec<ClDeviceId>,
}

impl Platform {
    /// Enumerate the available platforms (`clGetPlatformIDs`).
    pub fn query() -> Vec<Platform> {
        vec![Platform {
            name: "ROCm-sim 4.5.2".to_owned(),
            vendor: "gpu-sim".to_owned(),
            devices: DeviceSpec::paper_devices()
                .into_iter()
                .map(|spec| ClDeviceId { spec })
                .collect(),
        }]
    }

    /// Build a custom platform (for tests and non-paper devices).
    pub fn custom(name: impl Into<String>, specs: Vec<DeviceSpec>) -> Platform {
        Platform {
            name: name.into(),
            vendor: "gpu-sim".to_owned(),
            devices: specs.into_iter().map(|spec| ClDeviceId { spec }).collect(),
        }
    }

    /// Platform name (`CL_PLATFORM_NAME`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Platform vendor (`CL_PLATFORM_VENDOR`).
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// Query devices of a type (`clGetDeviceIDs`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::DeviceNotFound`] when no device matches, exactly
    /// like `CL_DEVICE_NOT_FOUND`.
    pub fn devices(&self, kind: DeviceType) -> ClResult<Vec<ClDeviceId>> {
        let found: Vec<ClDeviceId> = match kind {
            DeviceType::Gpu | DeviceType::All => self.devices.clone(),
            DeviceType::Cpu => Vec::new(),
        };
        if found.is_empty() {
            return Err(ClError::DeviceNotFound);
        }
        Ok(found)
    }

    /// Find a device by name across all platforms (convenience).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::DeviceNotFound`] when no device has that name.
    pub fn find_device(name: &str) -> ClResult<ClDeviceId> {
        Self::query()
            .into_iter()
            .flat_map(|p| p.devices)
            .find(|d| d.name() == name)
            .ok_or(ClError::DeviceNotFound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_exposes_paper_devices() {
        let p = &Platform::query()[0];
        assert!(p.name().contains("ROCm"));
        let gpus = p.devices(DeviceType::Gpu).unwrap();
        let names: Vec<_> = gpus.iter().map(|d| d.name()).collect();
        assert_eq!(names, ["Radeon VII", "MI60", "MI100"]);
        assert_eq!(gpus[0].global_mem_size(), 16 << 30);
    }

    #[test]
    fn cpu_query_reports_device_not_found() {
        let p = &Platform::query()[0];
        assert_eq!(
            p.devices(DeviceType::Cpu).unwrap_err(),
            ClError::DeviceNotFound
        );
    }

    #[test]
    fn find_device_by_name() {
        assert_eq!(Platform::find_device("MI60").unwrap().name(), "MI60");
        assert!(Platform::find_device("H100").is_err());
    }

    #[test]
    fn custom_platform() {
        let p = Platform::custom("test", vec![DeviceSpec::mi100()]);
        assert_eq!(p.devices(DeviceType::All).unwrap().len(), 1);
        assert_eq!(p.vendor(), "gpu-sim");
    }
}
