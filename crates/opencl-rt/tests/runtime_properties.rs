//! Seeded-random property tests of the OpenCL-flavoured runtime: transfer
//! round-trips at arbitrary offsets, argument-slot semantics, and the
//! runtime's work-group-size choice. Cases are drawn from `genome::rng`,
//! so runs are deterministic and need no external property-testing crate.

use std::sync::Arc;

use genome::rng::Xoshiro256;
use gpu_sim::executor::LaunchReport;
use gpu_sim::kernel::{KernelProgram, LocalMem};
use gpu_sim::{Device, DeviceBuffer, ItemCtx, NdRange, SimResult};
use opencl_rt::{
    BoundKernel, ClBuffer, ClKernelFunction, ClResult, CommandQueue, Context, DeviceType,
    KernelArg, KernelSource, MemFlags, Platform, Program,
};

/// Adds a scalar to every element.
struct AddFn;
struct AddKernel {
    data: DeviceBuffer<u32>,
    addend: u32,
}
impl KernelProgram for AddKernel {
    type Private = ();
    fn name(&self) -> &str {
        "add"
    }
    fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
        let i = item.global_id(0);
        if i < self.data.len() {
            let v = self.data.load(item, i);
            self.data.store(item, i, v.wrapping_add(self.addend));
        }
    }
}
struct AddBound(AddKernel);
impl BoundKernel for AddBound {
    fn launch(&self, device: &Device, nd: NdRange) -> SimResult<LaunchReport> {
        device.launch(&self.0, nd)
    }
}
impl ClKernelFunction for AddFn {
    fn name(&self) -> &str {
        "add"
    }
    fn arity(&self) -> usize {
        2
    }
    fn bind(&self, args: &[KernelArg]) -> ClResult<Box<dyn BoundKernel>> {
        Ok(Box::new(AddBound(AddKernel {
            data: args[0].as_buf_u32(0)?,
            addend: args[1].as_u32(1)?,
        })))
    }
}

fn setup(len: usize) -> (Context, CommandQueue, opencl_rt::Kernel, ClBuffer<u32>) {
    let devices = Platform::query()[0].devices(DeviceType::Gpu).unwrap();
    let ctx = Context::new(&devices[..1]).unwrap();
    let queue = CommandQueue::new(&ctx, 0).unwrap();
    let program =
        Program::create_with_source(&ctx, KernelSource::new().with_function(Arc::new(AddFn)));
    program.build("-O3").unwrap();
    let kernel = program.create_kernel("add").unwrap();
    let buf = ClBuffer::<u32>::create(&ctx, MemFlags::ReadWrite, len).unwrap();
    (ctx, queue, kernel, buf)
}

#[test]
fn offset_transfers_roundtrip() {
    let mut rng = Xoshiro256::seed_from_u64(0x0CF);
    for _ in 0..32 {
        let data: Vec<u32> = (0..rng.gen_range(1, 100))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let offset = rng.gen_below(400);
        let len = offset + data.len() + rng.gen_below(64);
        let (_ctx, queue, _k, buf) = setup(len);
        queue
            .enqueue_write_buffer(&buf, true, offset, &data)
            .unwrap();
        let mut back = vec![0u32; data.len()];
        queue
            .enqueue_read_buffer(&buf, true, offset, &mut back)
            .unwrap();
        assert_eq!(back, data, "offset {offset} len {len}");
    }
}

#[test]
fn out_of_bounds_transfers_fail_without_side_effects() {
    let mut rng = Xoshiro256::seed_from_u64(0x00B);
    for _ in 0..32 {
        let len = rng.gen_range(1, 100);
        let extra = rng.gen_range(1, 50);
        let (_ctx, queue, _k, buf) = setup(len);
        let data = vec![7u32; len + extra];
        assert!(queue.enqueue_write_buffer(&buf, true, 0, &data).is_err());
        // The buffer stays zero-initialized.
        let mut all = vec![1u32; len];
        queue.enqueue_read_buffer(&buf, true, 0, &mut all).unwrap();
        assert!(all.iter().all(|&v| v == 0), "len {len} extra {extra}");
    }
}

#[test]
fn kernel_computes_for_any_geometry() {
    let mut rng = Xoshiro256::seed_from_u64(0x6E0);
    for _ in 0..16 {
        let groups = rng.gen_range(1, 16);
        let addend = rng.next_u64() as u32;
        let len = groups * 64;
        let (_ctx, queue, kernel, buf) = setup(len);
        let init: Vec<u32> = (0..len as u32).collect();
        queue.enqueue_write_buffer(&buf, true, 0, &init).unwrap();
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        kernel.set_arg(1, KernelArg::U32(addend)).unwrap();
        let ev = queue.enqueue_nd_range_kernel(&kernel, len, None).unwrap();
        // Runtime-chosen local size divides the global size.
        let local = ev.launch_report().unwrap().nd.local(0);
        assert_eq!(len % local, 0);
        assert!(local <= 256);

        let mut out = vec![0u32; len];
        queue.enqueue_read_buffer(&buf, true, 0, &mut out).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u32).wrapping_add(addend));
        }
    }
}

#[test]
fn rebinding_args_overwrites_previous_values() {
    let mut rng = Xoshiro256::seed_from_u64(0x4EB);
    for _ in 0..16 {
        let a = rng.next_u64() as u32;
        let b = rng.next_u64() as u32;
        let (_ctx, queue, kernel, buf) = setup(64);
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        kernel.set_arg(1, KernelArg::U32(a)).unwrap();
        kernel.set_arg(1, KernelArg::U32(b)).unwrap();
        queue
            .enqueue_nd_range_kernel(&kernel, 64, Some(64))
            .unwrap();
        let mut out = vec![0u32; 64];
        queue.enqueue_read_buffer(&buf, true, 0, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == b), "last set_arg wins");
    }
}

#[test]
fn simulated_clock_is_monotone_over_command_sequences() {
    let mut rng = Xoshiro256::seed_from_u64(0xC10C);
    for _ in 0..16 {
        let commands: Vec<usize> = (0..rng.gen_range(1, 20))
            .map(|_| rng.gen_below(3))
            .collect();
        let (_ctx, queue, kernel, buf) = setup(128);
        kernel
            .set_arg(0, KernelArg::BufU32(buf.device_buffer()))
            .unwrap();
        kernel.set_arg(1, KernelArg::U32(1)).unwrap();
        let mut last = 0.0f64;
        let mut scratch = vec![0u32; 128];
        for c in commands {
            let end = match c {
                0 => queue
                    .enqueue_write_buffer(&buf, true, 0, &scratch)
                    .unwrap()
                    .end_s(),
                1 => queue
                    .enqueue_read_buffer(&buf, true, 0, &mut scratch)
                    .unwrap()
                    .end_s(),
                _ => queue
                    .enqueue_nd_range_kernel(&kernel, 128, Some(64))
                    .unwrap()
                    .end_s(),
            };
            assert!(end > last);
            last = end;
        }
        assert!((queue.elapsed_s() - last).abs() < 1e-15);
    }
}
