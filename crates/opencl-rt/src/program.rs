//! Program objects (Table I steps 6–8).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use std::sync::Mutex;

use crate::context::Context;
use crate::error::{ClError, ClResult};
use crate::kernel::{ClKernelFunction, Kernel};
use crate::steps::{Step, StepLog};

/// "Source code" for a simulated OpenCL program: a collection of kernel
/// functions (the analogue of the `.cl` file's `__kernel` entry points).
///
/// # Examples
///
/// ```no_run
/// use opencl_rt::KernelSource;
/// # fn kernels() -> (std::sync::Arc<dyn opencl_rt::ClKernelFunction>, std::sync::Arc<dyn opencl_rt::ClKernelFunction>) { unimplemented!() }
/// let (finder, comparer) = kernels();
/// let source = KernelSource::new().with_function(finder).with_function(comparer);
/// ```
#[derive(Default, Clone)]
pub struct KernelSource {
    functions: Vec<Arc<dyn ClKernelFunction>>,
}

impl fmt::Debug for KernelSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.functions.iter().map(|k| k.name()).collect();
        f.debug_struct("KernelSource")
            .field("kernels", &names)
            .finish()
    }
}

impl KernelSource {
    /// An empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a kernel function.
    pub fn with_function(mut self, f: Arc<dyn ClKernelFunction>) -> Self {
        self.functions.push(f);
        self
    }

    /// Number of kernel functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when the source defines no kernels.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

/// A program object (`cl_program`): created from source (step 6), built
/// (step 7), and then queried for kernel objects (step 8).
pub struct Program {
    functions: HashMap<String, Arc<dyn ClKernelFunction>>,
    built: Mutex<bool>,
    build_options: Mutex<String>,
    log: StepLog,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("kernels", &self.functions.keys().collect::<Vec<_>>())
            .field("built", &*self.built.lock().unwrap())
            .finish()
    }
}

impl Program {
    /// Create a program from source (`clCreateProgramWithSource`).
    pub fn create_with_source(ctx: &Context, source: KernelSource) -> Program {
        ctx.step_log().record(Step::CreateProgram);
        Program {
            functions: source
                .functions
                .into_iter()
                .map(|f| (f.name().to_owned(), f))
                .collect(),
            built: Mutex::new(false),
            build_options: Mutex::new(String::new()),
            log: ctx.step_log().clone(),
        }
    }

    /// Build the program (`clBuildProgram`), e.g. with `"-O3"`.
    ///
    /// # Errors
    ///
    /// This simulated build cannot fail, but the signature keeps the OpenCL
    /// shape so call sites handle errors the way a real host program must.
    pub fn build(&self, options: &str) -> ClResult<()> {
        *self.build_options.lock().unwrap() = options.to_owned();
        *self.built.lock().unwrap() = true;
        self.log.record(Step::BuildProgram);
        Ok(())
    }

    /// The options the program was built with.
    pub fn build_options(&self) -> String {
        self.build_options.lock().unwrap().clone()
    }

    /// Create a kernel object by name (`clCreateKernel`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::ProgramNotBuilt`] before [`build`](Self::build),
    /// or [`ClError::InvalidKernelName`] for an unknown kernel.
    pub fn create_kernel(&self, name: &str) -> ClResult<Kernel> {
        if !*self.built.lock().unwrap() {
            return Err(ClError::ProgramNotBuilt);
        }
        let f = self
            .functions
            .get(name)
            .ok_or_else(|| ClError::InvalidKernelName {
                name: name.to_owned(),
            })?;
        self.log.record(Step::CreateKernel);
        Ok(Kernel::new(Arc::clone(f), self.log.clone()))
    }

    /// Names of the kernels the program defines, sorted.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.functions.keys().cloned().collect();
        names.sort();
        names
    }

    /// Explicitly release the program object (`clReleaseProgram`).
    pub fn release(self) {
        self.log.record(Step::ReleaseResources);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BoundKernel, KernelArg};
    use crate::platform::{DeviceType, Platform};
    use gpu_sim::executor::LaunchReport;
    use gpu_sim::{Device, NdRange, SimResult};

    struct Dummy(&'static str);
    impl ClKernelFunction for Dummy {
        fn name(&self) -> &str {
            self.0
        }
        fn arity(&self) -> usize {
            0
        }
        fn bind(&self, _args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
            Ok(Box::new(DummyBound))
        }
    }
    struct DummyBound;
    impl BoundKernel for DummyBound {
        fn launch(&self, _d: &Device, _nd: NdRange) -> SimResult<LaunchReport> {
            unreachable!()
        }
    }

    fn ctx() -> Context {
        let devices = Platform::query()[0].devices(DeviceType::Gpu).unwrap();
        Context::new(&devices).unwrap()
    }

    fn program(ctx: &Context) -> Program {
        let src = KernelSource::new()
            .with_function(Arc::new(Dummy("finder")))
            .with_function(Arc::new(Dummy("comparer")));
        Program::create_with_source(ctx, src)
    }

    #[test]
    fn kernel_creation_requires_build() {
        let ctx = ctx();
        let p = program(&ctx);
        assert_eq!(
            p.create_kernel("finder").unwrap_err(),
            ClError::ProgramNotBuilt
        );
        p.build("-O3").unwrap();
        assert_eq!(p.build_options(), "-O3");
        assert!(p.create_kernel("finder").is_ok());
    }

    #[test]
    fn unknown_kernel_name_is_rejected() {
        let ctx = ctx();
        let p = program(&ctx);
        p.build("").unwrap();
        let err = p.create_kernel("missing").unwrap_err();
        assert_eq!(
            err,
            ClError::InvalidKernelName {
                name: "missing".to_owned()
            }
        );
    }

    #[test]
    fn steps_6_to_8_are_recorded() {
        let ctx = ctx();
        let p = program(&ctx);
        p.build("").unwrap();
        let _k = p.create_kernel("comparer").unwrap();
        let steps = ctx.step_log().steps();
        assert!(steps.contains(&Step::CreateProgram));
        assert!(steps.contains(&Step::BuildProgram));
        assert!(steps.contains(&Step::CreateKernel));
    }

    #[test]
    fn kernel_names_are_sorted() {
        let ctx = ctx();
        let p = program(&ctx);
        assert_eq!(p.kernel_names(), vec!["comparer", "finder"]);
    }
}
