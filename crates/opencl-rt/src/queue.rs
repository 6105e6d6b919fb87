//! Command queues (Table I steps 4, 10, 11).

use std::fmt;
use std::sync::Arc;

use gpu_sim::{timing, Device, NdRange, Scalar, SimClock};

use crate::buffer::ClBuffer;
use crate::context::Context;
use crate::error::{ClError, ClResult};
use crate::event::{ClEvent, CommandType};
use crate::kernel::Kernel;
use crate::steps::{Step, StepLog};

/// Host-side overhead multiplier of the OpenCL driver relative to the
/// SYCL plugin's path: ROCm OpenCL's blocking reads/writes copy through
/// unpinned host memory and every command crosses the driver individually,
/// whereas the SYCL runtime uses a pinned staging path and batches work in
/// command groups. Applied to the full duration of transfer commands and to
/// the host-side launch overhead; calibrated to the paper's Table VIII
/// elapsed-time gap (SYCL 1.00-1.19x faster).
pub const CL_HOST_OVERHEAD_FACTOR: f64 = 1.15;

/// A command queue bound to one device of a context (`cl_command_queue`).
///
/// The queue owns the simulated clock: every enqueued command advances it by
/// the command's simulated duration and stamps the returned [`ClEvent`], so
/// `queue.elapsed_s()` is the application's device-side elapsed time —
/// the quantity Table VIII of the paper reports.
pub struct CommandQueue {
    device: Device,
    clock: Arc<SimClock>,
    log: StepLog,
}

impl fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommandQueue")
            .field("device", &self.device.spec().name)
            .field("elapsed_s", &self.clock.now())
            .finish()
    }
}

impl CommandQueue {
    /// Create a queue for device `device_index` of `ctx`
    /// (`clCreateCommandQueue`).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidDevice`] for an out-of-range index.
    pub fn new(ctx: &Context, device_index: usize) -> ClResult<CommandQueue> {
        let device = ctx.device(device_index)?.clone();
        ctx.step_log().record(Step::CreateCommandQueue);
        Ok(CommandQueue {
            device,
            clock: Arc::new(SimClock::new()),
            log: ctx.step_log().clone(),
        })
    }

    /// The device this queue submits to.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Total simulated time consumed by commands on this queue, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.clock.now()
    }

    /// Copy host data into a buffer (`clEnqueueWriteBuffer`).
    ///
    /// `offset` is in elements (the byte `offset`/`cb` of the C API divided
    /// by the element size). The simulated queue is always blocking; the
    /// `blocking` flag is kept for API fidelity.
    ///
    /// # Errors
    ///
    /// Returns an error when the region is out of bounds.
    pub fn enqueue_write_buffer<T: Scalar>(
        &self,
        dst: &ClBuffer<T>,
        _blocking: bool,
        offset: usize,
        data: &[T],
    ) -> ClResult<ClEvent> {
        dst.device_buffer().write_from_host(offset, data)?;
        self.log.record(Step::TransferData);
        let spec = self.device.spec();
        let dur = timing::transfer_time_s(std::mem::size_of_val(data) as u64, spec)
            * CL_HOST_OVERHEAD_FACTOR;
        let (start, end) = self.clock.advance(dur);
        Ok(ClEvent::new(
            CommandType::WriteBuffer,
            start,
            end,
            None,
            self.log.clone(),
        ))
    }

    /// Copy buffer data to the host (`clEnqueueReadBuffer`).
    ///
    /// # Errors
    ///
    /// Returns an error when the region is out of bounds.
    pub fn enqueue_read_buffer<T: Scalar>(
        &self,
        src: &ClBuffer<T>,
        _blocking: bool,
        offset: usize,
        out: &mut [T],
    ) -> ClResult<ClEvent> {
        src.device_buffer().read_to_host(offset, out)?;
        self.log.record(Step::TransferData);
        let spec = self.device.spec();
        let dur = timing::transfer_time_s(std::mem::size_of_val(out) as u64, spec)
            * CL_HOST_OVERHEAD_FACTOR;
        let (start, end) = self.clock.advance(dur);
        Ok(ClEvent::new(
            CommandType::ReadBuffer,
            start,
            end,
            None,
            self.log.clone(),
        ))
    }

    /// Fill a buffer with a repeated value (`clEnqueueFillBuffer`), the
    /// canonical way to reset the atomic counters between launches.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the OpenCL error-code shape.
    pub fn enqueue_fill_buffer<T: Scalar>(&self, dst: &ClBuffer<T>, value: T) -> ClResult<ClEvent> {
        dst.device_buffer().fill(value);
        self.log.record(Step::TransferData);
        let dur = self.device.spec().transfer_overhead_s * CL_HOST_OVERHEAD_FACTOR;
        let (start, end) = self.clock.advance(dur);
        Ok(ClEvent::new(
            CommandType::WriteBuffer,
            start,
            end,
            None,
            self.log.clone(),
        ))
    }

    /// Copy between buffers on the device (`clEnqueueCopyBuffer`).
    ///
    /// # Errors
    ///
    /// Returns an error when either region is out of bounds.
    pub fn enqueue_copy_buffer<T: Scalar>(
        &self,
        src: &ClBuffer<T>,
        dst: &ClBuffer<T>,
        src_offset: usize,
        dst_offset: usize,
        len: usize,
    ) -> ClResult<ClEvent> {
        let mut staging = vec![T::default(); len];
        src.device_buffer().read_to_host(src_offset, &mut staging)?;
        dst.device_buffer().write_from_host(dst_offset, &staging)?;
        self.log.record(Step::TransferData);
        // Device-to-device: bounded by device bandwidth, not the interconnect.
        let spec = self.device.spec();
        let bytes = (len as u64) * std::mem::size_of::<T>() as u64;
        let dur = bytes as f64 / (spec.peak_bw_bytes_per_s() * spec.bw_efficiency)
            + spec.transfer_overhead_s;
        let (start, end) = self.clock.advance(dur);
        Ok(ClEvent::new(
            CommandType::WriteBuffer,
            start,
            end,
            None,
            self.log.clone(),
        ))
    }

    /// Enqueue a 1-D kernel (`clEnqueueNDRangeKernel` with `work_dim = 1`).
    ///
    /// When `lws` is `None` the runtime chooses the work-group size — the
    /// largest supported size (256) that divides the global size, the
    /// configuration the paper measured for the OpenCL application.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidWorkGroupSize`] when `lws` does not divide
    /// `gws`, [`ClError::InvalidArgValue`] when kernel arguments are unset
    /// or mistyped, and propagates simulator launch failures.
    pub fn enqueue_nd_range_kernel(
        &self,
        kernel: &Kernel,
        gws: usize,
        lws: Option<usize>,
    ) -> ClResult<ClEvent> {
        let local = match lws {
            Some(l) => l,
            None => {
                // The runtime picks the largest supported size that divides
                // the global size, halving down to a single wavefront.
                let mut l = kernel.runtime_work_group_size().min(gws.max(1));
                while l > 1 && !gws.is_multiple_of(l) {
                    l /= 2;
                }
                l
            }
        };
        if local == 0 || !gws.is_multiple_of(local) {
            return Err(ClError::InvalidWorkGroupSize {
                reason: format!("local size {local} does not divide global size {gws}"),
            });
        }
        let bound = kernel.bind()?;
        let report = bound
            .launch(&self.device, NdRange::linear(gws, local))
            .map_err(ClError::Sim)?;
        self.log.record(Step::EnqueueKernel);
        let dur = report.sim_time_s
            + (CL_HOST_OVERHEAD_FACTOR - 1.0) * self.device.spec().launch_overhead_s;
        let (start, end) = self.clock.advance(dur);
        Ok(ClEvent::new(
            CommandType::NdRangeKernel,
            start,
            end,
            Some(Arc::new(report)),
            self.log.clone(),
        ))
    }

    /// Block until all enqueued commands finish (`clFinish`). The simulated
    /// queue executes synchronously, so this is a no-op kept for fidelity.
    pub fn finish(&self) {}

    /// Explicitly release the queue (`clReleaseCommandQueue`).
    pub fn release(self) {
        self.log.record(Step::ReleaseResources);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::kernel::{BoundKernel, ClKernelFunction, KernelArg};
    use crate::platform::{DeviceType, Platform};
    use crate::program::{KernelSource, Program};
    use gpu_sim::executor::LaunchReport;
    use gpu_sim::kernel::{KernelProgram, LocalMem};
    use gpu_sim::{DeviceBuffer, ItemCtx, SimResult};

    /// Doubles each element in place.
    struct DoubleFn;
    struct DoubleKernel {
        data: DeviceBuffer<u32>,
    }
    impl KernelProgram for DoubleKernel {
        type Private = ();
        fn name(&self) -> &str {
            "double"
        }
        fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
            let i = item.global_id(0);
            if i < self.data.len() {
                let v = self.data.load(item, i);
                self.data.store(item, i, v * 2);
            }
        }
    }
    struct DoubleBound {
        data: DeviceBuffer<u32>,
    }
    impl BoundKernel for DoubleBound {
        fn launch(&self, device: &Device, nd: NdRange) -> SimResult<LaunchReport> {
            device.launch(
                &DoubleKernel {
                    data: self.data.clone(),
                },
                nd,
            )
        }
    }
    impl ClKernelFunction for DoubleFn {
        fn name(&self) -> &str {
            "double"
        }
        fn arity(&self) -> usize {
            1
        }
        fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
            Ok(Box::new(DoubleBound {
                data: args[0].as_buf_u32(0)?,
            }))
        }
    }

    fn setup() -> (Context, CommandQueue, Kernel, ClBuffer<u32>) {
        let devices = Platform::query()[0].devices(DeviceType::Gpu).unwrap();
        let ctx = Context::new(&devices).unwrap();
        let queue = CommandQueue::new(&ctx, 0).unwrap();
        let program = Program::create_with_source(
            &ctx,
            KernelSource::new().with_function(Arc::new(DoubleFn)),
        );
        program.build("-O3").unwrap();
        let kernel = program.create_kernel("double").unwrap();
        let buf = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, 128).unwrap();
        (ctx, queue, kernel, buf)
    }

    #[test]
    fn full_thirteen_step_lifecycle() {
        let (ctx, queue, kernel, buf) = setup();
        let host: Vec<u32> = (0..128).collect();
        queue.enqueue_write_buffer(&buf, true, 0, &host).unwrap();
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        let ev = queue
            .enqueue_nd_range_kernel(&kernel, 128, Some(64))
            .unwrap();
        ev.wait();
        let mut out = vec![0u32; 128];
        queue.enqueue_read_buffer(&buf, true, 0, &mut out).unwrap();
        queue.finish();
        kernel.release();
        buf.release();
        queue.release();

        let expect: Vec<u32> = (0..128).map(|v| v * 2).collect();
        assert_eq!(out, expect);

        let mut steps = ctx.step_log().steps();
        steps.sort();
        let mut all = crate::steps::ALL_STEPS.to_vec();
        all.sort();
        assert_eq!(steps, all, "the lifecycle exercises all 13 Table I steps");
    }

    #[test]
    fn runtime_chooses_largest_dividing_work_group_size() {
        let (_ctx, queue, kernel, buf) = setup();
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        // 128 is not divisible by the preferred 256: halve down to 128.
        let ev = queue.enqueue_nd_range_kernel(&kernel, 128, None).unwrap();
        assert_eq!(ev.launch_report().unwrap().nd.local(0), 128);
        // 512 takes the full preferred 256.
        let ev = queue.enqueue_nd_range_kernel(&kernel, 512, None).unwrap();
        assert_eq!(ev.launch_report().unwrap().nd.local(0), 256);
    }

    #[test]
    fn bad_work_group_size_is_rejected() {
        let (_ctx, queue, kernel, buf) = setup();
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        let err = queue
            .enqueue_nd_range_kernel(&kernel, 100, Some(64))
            .unwrap_err();
        assert!(matches!(err, ClError::InvalidWorkGroupSize { .. }));
    }

    #[test]
    fn unset_args_fail_at_enqueue() {
        let (_ctx, queue, kernel, _buf) = setup();
        let err = queue
            .enqueue_nd_range_kernel(&kernel, 64, Some(64))
            .unwrap_err();
        assert!(matches!(err, ClError::InvalidArgValue { index: 0, .. }));
    }

    #[test]
    fn fill_and_copy_buffers() {
        let (_ctx, queue, _kernel, buf) = setup();
        queue.enqueue_fill_buffer(&buf, 7u32).unwrap();
        let mut out = vec![0u32; 128];
        queue.enqueue_read_buffer(&buf, true, 0, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 7));

        let ctx2 =
            Context::new(&Platform::query()[0].devices(DeviceType::Gpu).unwrap()[..1]).unwrap();
        let _ = ctx2; // the copy stays within the original context
        let dst = ClBuffer::<u32>::create(&_ctx, MemFlags::ReadWrite, 64).unwrap();
        queue.enqueue_copy_buffer(&buf, &dst, 8, 0, 64).unwrap();
        let mut out = vec![0u32; 64];
        queue.enqueue_read_buffer(&dst, true, 0, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 7));

        // Out-of-bounds copies are rejected.
        assert!(queue.enqueue_copy_buffer(&buf, &dst, 100, 0, 64).is_err());
    }

    #[test]
    fn clock_advances_with_commands() {
        let (_ctx, queue, kernel, buf) = setup();
        assert_eq!(queue.elapsed_s(), 0.0);
        let data = vec![1u32; 128];
        let w = queue.enqueue_write_buffer(&buf, true, 0, &data).unwrap();
        assert!(w.duration_s() > 0.0);
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        let k = queue
            .enqueue_nd_range_kernel(&kernel, 128, Some(64))
            .unwrap();
        assert!(k.start_s() >= w.end_s());
        assert!(queue.elapsed_s() >= k.end_s());
    }
}
