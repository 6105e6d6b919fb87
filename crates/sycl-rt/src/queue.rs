//! Queues and command-group handlers (Table I: queue class, lambda
//! expressions, submit, implicit transfers).

use std::fmt;
use std::sync::Arc;

use gpu_sim::executor::LaunchReport;
use gpu_sim::{timing, Device, ItemCtx, KernelProgram, LocalMem, NdRange, Scalar, SimClock};

use crate::accessor::{AccessMode, Accessor};
use crate::buffer::Buffer;
use crate::error::{SyclException, SyclResult};
use crate::event::SyclEvent;
use crate::selector::DeviceSelector;
use crate::steps::{Step, StepLog};

/// A SYCL queue: encapsulates a command queue for offloading kernels to the
/// device picked by a selector (§II.C).
///
/// # Examples
///
/// ```
/// use sycl_rt::selector::GpuSelector;
/// use sycl_rt::{AccessMode, Buffer, Queue};
///
/// let queue = Queue::new(&GpuSelector::named("MI100"))?;
/// let buf = Buffer::from_slice(&[1u32, 2, 3, 4]);
///
/// // A command group with an implicit host->device transfer and a kernel.
/// let event = queue.submit(|h| {
///     let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
///     h.parallel_for_fn("triple", gpu_sim::NdRange::linear(4, 4), move |item| {
///         let i = item.global_id(0);
///         let v = acc.load(item, i);
///         acc.store(item, i, v * 3);
///     })?;
///     Ok(())
/// })?;
/// event.wait();
/// assert_eq!(buf.to_vec(), vec![3, 6, 9, 12]);
/// # Ok::<(), sycl_rt::SyclException>(())
/// ```
pub struct Queue {
    device: Device,
    clock: Arc<SimClock>,
    log: StepLog,
}

impl fmt::Debug for Queue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Queue")
            .field("device", &self.device.spec().name)
            .field("elapsed_s", &self.clock.now())
            .finish()
    }
}

impl Queue {
    /// Create a queue on the device chosen by `selector`.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::DeviceNotFound`] when the selector matches
    /// nothing.
    pub fn new(selector: &dyn DeviceSelector) -> SyclResult<Queue> {
        let spec = selector.select()?;
        let log = StepLog::new();
        log.record(Step::DeviceSelector);
        log.record(Step::Queue);
        Ok(Queue {
            device: Device::new(spec),
            clock: Arc::new(SimClock::new()),
            log,
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

    /// The queue's programming-step log.
    pub fn step_log(&self) -> &StepLog {
        &self.log
    }

    /// Submit a command group: the closure receives a [`Handler`] and
    /// defines accessors, copies and kernels; the returned event covers the
    /// whole group (`q.submit([&](handler &cgh) {...})`).
    ///
    /// # Errors
    ///
    /// Propagates any exception raised inside the command group.
    pub fn submit<F>(&self, f: F) -> SyclResult<SyclEvent>
    where
        F: FnOnce(&mut Handler<'_>) -> SyclResult<()>,
    {
        let start = self.clock.now();
        let mut handler = Handler {
            queue: self,
            reports: Vec::new(),
        };
        f(&mut handler)?;
        let reports = handler.reports;
        let end = self.clock.now();
        Ok(SyclEvent::new(start, end, reports, self.log.clone()))
    }

    /// Wait for all submitted command groups (`queue.wait()`); the simulated
    /// queue is synchronous, so this only records event handling.
    pub fn wait(&self) {
        self.log.record(Step::Event);
    }
}

/// The command-group handler (`sycl::handler`, "cgh" in the paper's
/// listings): creates accessors, moves data, and launches kernels.
pub struct Handler<'q> {
    queue: &'q Queue,
    reports: Vec<Arc<LaunchReport>>,
}

impl fmt::Debug for Handler<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handler")
            .field("device", &self.queue.device.spec().name)
            .field("kernels", &self.reports.len())
            .finish()
    }
}

impl Handler<'_> {
    /// Create an accessor covering the whole buffer
    /// (`buf.get_access<mode>(cgh)`), binding the buffer to this queue's
    /// device on first use.
    ///
    /// # Errors
    ///
    /// Returns a runtime exception when device allocation fails.
    pub fn get_access<T: Scalar>(
        &mut self,
        buffer: &Buffer<T>,
        mode: AccessMode,
    ) -> SyclResult<Accessor<T>> {
        self.get_access_range(buffer, mode, buffer.len(), 0)
    }

    /// Create a ranged accessor of `range` elements starting at `offset`
    /// (`buf.get_access<mode>(cgh, range, offset)`, Table III).
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] when the range exceeds the buffer,
    /// or a runtime exception when device allocation fails.
    pub fn get_access_range<T: Scalar>(
        &mut self,
        buffer: &Buffer<T>,
        mode: AccessMode,
        range: usize,
        offset: usize,
    ) -> SyclResult<Accessor<T>> {
        if offset + range > buffer.len() {
            return Err(SyclException::Invalid {
                reason: format!(
                    "accessor range [{offset}, {}) exceeds buffer length {}",
                    offset + range,
                    buffer.len()
                ),
            });
        }
        let (dev, newly_bound) = buffer.bind(&self.queue.device)?;
        self.queue.log.record(Step::Buffer);
        if newly_bound && mode != AccessMode::Write {
            // The implicit host->device movement of the buffer's contents,
            // charged to the command group that first uses it (the paper:
            // data transfers are "implicit via accessors"). A first access
            // in write-only mode needs no upload — the runtime knows the
            // kernel will not read the old contents.
            self.advance_transfer(dev.byte_len());
        }
        Ok(Accessor::new(dev, mode, offset, range))
    }

    /// Copy host data into the accessor's range (`cgh.copy(src, d)`,
    /// Table III bottom row) — the explicit host-to-device path.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] when `src` is longer than the
    /// accessor's range.
    pub fn copy_to_device<T: Scalar>(&mut self, src: &[T], dst: &Accessor<T>) -> SyclResult<()> {
        if src.len() > dst.len() {
            return Err(SyclException::Invalid {
                reason: format!(
                    "copy source of {} elements exceeds accessor range {}",
                    src.len(),
                    dst.len()
                ),
            });
        }
        dst.device_buffer()
            .write_from_host(dst.offset(), src)
            .map_err(SyclException::Runtime)?;
        self.advance_transfer(std::mem::size_of_val(src) as u64);
        Ok(())
    }

    /// Copy the accessor's range to host memory (`cgh.copy(d, dst)`,
    /// Table III top row) — the device-to-host path.
    ///
    /// # Errors
    ///
    /// Returns [`SyclException::Invalid`] when `dst` is longer than the
    /// accessor's range.
    pub fn copy_from_device<T: Scalar>(
        &mut self,
        src: &Accessor<T>,
        dst: &mut [T],
    ) -> SyclResult<()> {
        if dst.len() > src.len() {
            return Err(SyclException::Invalid {
                reason: format!(
                    "copy destination of {} elements exceeds accessor range {}",
                    dst.len(),
                    src.len()
                ),
            });
        }
        src.device_buffer()
            .read_to_host(src.offset(), dst)
            .map_err(SyclException::Runtime)?;
        self.advance_transfer(std::mem::size_of_val(dst) as u64);
        Ok(())
    }

    fn advance_transfer(&self, bytes: u64) {
        self.queue.log.record(Step::AccessorTransfer);
        let dur = timing::transfer_time_s(bytes, self.queue.device.spec());
        self.queue.clock.advance(dur);
    }

    /// Launch a kernel over `nd` (`cgh.parallel_for(nd_range, kernel)`).
    ///
    /// # Errors
    ///
    /// Propagates simulator launch failures as runtime exceptions.
    pub fn parallel_for<K: KernelProgram>(&mut self, nd: NdRange, kernel: &K) -> SyclResult<()> {
        self.queue.log.record(Step::KernelLambda);
        self.queue.log.record(Step::Submit);
        let report = self
            .queue
            .device
            .launch(kernel, nd)
            .map_err(SyclException::Runtime)?;
        self.queue.clock.advance(report.sim_time_s);
        self.reports.push(Arc::new(report));
        Ok(())
    }

    /// Fill the accessor's range with `value` (`cgh.fill(accessor, v)`).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the SYCL shape.
    pub fn fill<T: Scalar>(&mut self, dst: &Accessor<T>, value: T) -> SyclResult<()> {
        // Device-side fill: priced as a trivial transfer command.
        let data = vec![value; dst.len()];
        dst.device_buffer()
            .write_from_host(dst.offset(), &data)
            .map_err(SyclException::Runtime)?;
        self.queue.log.record(Step::AccessorTransfer);
        self.queue
            .clock
            .advance(self.queue.device.spec().transfer_overhead_s);
        Ok(())
    }

    /// Launch a single work-item (`cgh.single_task`): the idiom for scalar
    /// device work such as finalizing a reduction.
    ///
    /// # Errors
    ///
    /// Propagates simulator launch failures as runtime exceptions.
    pub fn single_task<F>(&mut self, name: &str, f: F) -> SyclResult<()>
    where
        F: Fn(&mut ItemCtx) + Send + Sync,
    {
        self.parallel_for_fn(name, NdRange::linear(1, 1), f)
    }

    /// Launch a barrier-free kernel given as a plain closure — the direct
    /// lambda form of `parallel_for`.
    ///
    /// # Errors
    ///
    /// Propagates simulator launch failures as runtime exceptions.
    pub fn parallel_for_fn<F>(&mut self, name: &str, nd: NdRange, f: F) -> SyclResult<()>
    where
        F: Fn(&mut ItemCtx) + Send + Sync,
    {
        struct Lambda<F> {
            name: String,
            f: F,
        }
        impl<F: Fn(&mut ItemCtx) + Send + Sync> KernelProgram for Lambda<F> {
            type Private = ();
            fn name(&self) -> &str {
                &self.name
            }
            fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
                (self.f)(item)
            }
        }
        self.parallel_for(
            nd,
            &Lambda {
                name: name.to_owned(),
                f,
            },
        )
    }

    /// Launch reports collected so far in this command group.
    pub fn launch_reports(&self) -> &[Arc<LaunchReport>] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{GpuSelector, SpecSelector};
    use gpu_sim::DeviceSpec;

    #[test]
    fn queue_records_selector_and_queue_steps() {
        let q = Queue::new(&GpuSelector::new()).unwrap();
        assert_eq!(
            q.step_log().steps(),
            vec![Step::DeviceSelector, Step::Queue]
        );
        assert_eq!(q.device().spec().name, "Radeon VII");
    }

    #[test]
    fn full_eight_step_lifecycle() {
        let q = Queue::new(&GpuSelector::named("MI60")).unwrap();
        let buf = Buffer::<u32>::new(64);

        // Explicit copy in, kernel, explicit copy out.
        let host: Vec<u32> = (0..64).collect();
        let ev = q
            .submit(|h| {
                let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
                h.copy_to_device(&host, &acc)?;
                h.parallel_for_fn("inc", NdRange::linear(64, 64), move |item| {
                    let i = item.global_id(0);
                    let v = acc.load(item, i);
                    acc.store(item, i, v + 1);
                })?;
                Ok(())
            })
            .unwrap();
        ev.wait();

        let mut out = vec![0u32; 64];
        q.submit(|h| {
            let acc = h.get_access(&buf, AccessMode::Read)?;
            h.copy_from_device(&acc, &mut out)?;
            Ok(())
        })
        .unwrap();
        drop(buf); // implicit release via destructors

        let expect: Vec<u32> = (1..=64).collect();
        assert_eq!(out, expect);

        // The lifecycle covers 7 of the 8 steps through the API; implicit
        // release happens in Drop, which the runtime models but cannot
        // observe per-object — record it as the paper's Table I does.
        q.step_log().record(Step::ImplicitRelease);
        let mut steps = q.step_log().steps();
        steps.sort();
        let mut all = crate::steps::ALL_STEPS.to_vec();
        all.sort();
        assert_eq!(steps, all);
    }

    #[test]
    fn ranged_accessor_transfers_a_window() {
        let q = Queue::new(&SpecSelector(DeviceSpec::mi100())).unwrap();
        let buf = Buffer::from_slice(&[0u8; 10]);
        q.submit(|h| {
            let acc = h.get_access_range(&buf, AccessMode::Write, 4, 3)?;
            h.copy_to_device(&[9u8, 9, 9, 9], &acc)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(buf.to_vec(), vec![0, 0, 0, 9, 9, 9, 9, 0, 0, 0]);
    }

    #[test]
    fn accessor_range_validation() {
        let q = Queue::new(&GpuSelector::new()).unwrap();
        let buf = Buffer::<u8>::new(4);
        let err = q
            .submit(|h| {
                h.get_access_range(&buf, AccessMode::Read, 4, 1)?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, SyclException::Invalid { .. }));
    }

    #[test]
    fn copy_size_validation() {
        let q = Queue::new(&GpuSelector::new()).unwrap();
        let buf = Buffer::<u8>::new(2);
        let err = q
            .submit(|h| {
                let acc = h.get_access(&buf, AccessMode::Write)?;
                h.copy_to_device(&[1, 2, 3], &acc)
            })
            .unwrap_err();
        assert!(matches!(err, SyclException::Invalid { .. }));
    }

    #[test]
    fn fill_and_single_task() {
        let q = Queue::new(&GpuSelector::new()).unwrap();
        let buf = Buffer::<u32>::new(8);
        q.submit(|h| {
            let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
            h.fill(&acc, 9)?;
            let acc2 = acc.clone();
            h.single_task("bump-first", move |item| {
                let v = acc2.load(item, 0);
                acc2.store(item, 0, v + 1);
            })
        })
        .unwrap();
        assert_eq!(buf.to_vec(), vec![10, 9, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn event_spans_the_command_group() {
        let q = Queue::new(&GpuSelector::new()).unwrap();
        let buf = Buffer::from_slice(&[1u32; 256]);
        let ev = q
            .submit(|h| {
                let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
                h.parallel_for_fn("nopk", NdRange::linear(256, 64), move |item| {
                    let i = item.global_id(0);
                    let _ = acc.load(item, i);
                })?;
                Ok(())
            })
            .unwrap();
        assert!(ev.duration_s() > 0.0);
        assert_eq!(ev.launch_reports().len(), 1);
        assert_eq!(ev.launch_reports()[0].nd.local(0), 64);
        assert!((q.elapsed_s() - ev.end_s()).abs() < 1e-12);
    }
}
