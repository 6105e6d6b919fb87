//! Seeded-random property tests of the device simulator's executor and
//! memory model: functional invariants that must hold for arbitrary
//! geometry. Cases are drawn from `genome::rng`, so runs are deterministic
//! and need no external property-testing crate.

use genome::rng::Xoshiro256;
use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{Device, DeviceBuffer, DeviceSpec, ItemCtx, NdRange};

/// Writes each item's global id; the canonical coverage probe.
struct Iota {
    out: DeviceBuffer<u32>,
}

impl KernelProgram for Iota {
    type Private = ();
    fn name(&self) -> &str {
        "iota"
    }
    fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
        let i = item.global_id(0);
        if i < self.out.len() {
            self.out.store(item, i, i as u32);
        }
    }
}

/// Group-sum via local memory and a barrier phase.
struct GroupSum {
    data: DeviceBuffer<u32>,
    sums: DeviceBuffer<u64>,
    slot: LocalHandle<u64>,
}

impl KernelProgram for GroupSum {
    type Private = ();
    fn name(&self) -> &str {
        "group-sum"
    }
    fn phases(&self) -> usize {
        2
    }
    fn local_layout(&self) -> LocalLayout {
        let mut l = LocalLayout::new();
        l.array::<u64>(1);
        l
    }
    fn run_phase(&self, phase: usize, item: &mut ItemCtx, _s: &mut (), local: &mut LocalMem) {
        match phase {
            0 => {
                // Items run sequentially within a group, so a plain
                // accumulate into local memory is race-free.
                let i = item.global_id(0);
                let v = if i < self.data.len() {
                    self.data.load(item, i) as u64
                } else {
                    0
                };
                let cur = local.load(item, self.slot, 0);
                local.store(item, self.slot, 0, cur + v);
            }
            _ => {
                if item.local_id(0) == 0 {
                    let total = local.load(item, self.slot, 0);
                    self.sums.store(item, item.group(0), total);
                }
            }
        }
    }
}

#[test]
fn every_item_executes_exactly_once() {
    let mut rng = Xoshiro256::seed_from_u64(0xE0E0);
    for _ in 0..16 {
        let groups = rng.gen_range(1, 20);
        let local = 64usize << rng.gen_below(4);
        let n = groups * local;
        let device = Device::new(DeviceSpec::mi100());
        let out = device.alloc::<u32>(n).unwrap();
        out.fill(u32::MAX);
        device
            .launch(&Iota { out: out.clone() }, NdRange::linear(n, local))
            .unwrap();
        let v = out.to_vec();
        assert!(
            v.iter().enumerate().all(|(i, &x)| x == i as u32),
            "groups {groups} local {local}"
        );
    }
}

#[test]
fn group_sums_match_a_host_reduction() {
    let mut rng = Xoshiro256::seed_from_u64(0x6500);
    for _ in 0..16 {
        let data: Vec<u32> = (0..rng.gen_range(1, 700))
            .map(|_| rng.gen_below(1000) as u32)
            .collect();
        let local = 32usize << rng.gen_below(3);
        let n = data.len().div_ceil(local) * local;
        let groups = n / local;
        let device = Device::new(DeviceSpec::mi60());
        let buf = device.alloc::<u32>(data.len()).unwrap();
        buf.write_from_host(0, &data).unwrap();
        let sums = device.alloc::<u64>(groups).unwrap();
        let mut layout = LocalLayout::new();
        let slot = layout.array::<u64>(1);
        device
            .launch(
                &GroupSum {
                    data: buf,
                    sums: sums.clone(),
                    slot,
                },
                NdRange::linear(n, local),
            )
            .unwrap();

        let total_device: u64 = sums.to_vec().iter().sum();
        let total_host: u64 = data.iter().map(|&v| v as u64).sum();
        assert_eq!(total_device, total_host, "local {local}");
    }
}

#[test]
fn host_roundtrip_is_lossless() {
    let mut rng = Xoshiro256::seed_from_u64(0x4057);
    for _ in 0..32 {
        let data: Vec<i64> = (0..rng.gen_below(300))
            .map(|_| rng.next_u64() as i64)
            .collect();
        let offset = rng.gen_below(50);
        let device = Device::new(DeviceSpec::radeon_vii());
        let buf = device.alloc::<i64>(offset + data.len()).unwrap();
        buf.write_from_host(offset, &data).unwrap();
        let mut back = vec![0i64; data.len()];
        buf.read_to_host(offset, &mut back).unwrap();
        assert_eq!(back, data, "offset {offset}");
    }
}

/// Appends the global id of every item whose id is a multiple of `stride`
/// at an atomically claimed slot: the finder's compaction pattern.
struct Compact {
    stride: usize,
    count: DeviceBuffer<u32>,
    out: DeviceBuffer<u32>,
}

impl KernelProgram for Compact {
    type Private = ();
    fn name(&self) -> &str {
        "compact"
    }
    fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
        let i = item.global_id(0);
        if i.is_multiple_of(self.stride) {
            let slot = self.count.atomic_inc(item, 0) as usize;
            self.out.store(item, slot, i as u32);
        }
    }
}

#[test]
fn repeat_launches_are_bit_identical() {
    let mut rng = Xoshiro256::seed_from_u64(0xDE7);
    for _ in 0..16 {
        let groups = rng.gen_range(1, 12);
        let stride = rng.gen_range(1, 8);
        let n = groups * 64;
        let launch = || {
            let device = Device::new(DeviceSpec::mi100());
            let count = device.alloc::<u32>(1).unwrap();
            let out = device.alloc::<u32>(n).unwrap();
            let kernel = Compact {
                stride,
                count,
                out: out.clone(),
            };
            let report = device.launch(&kernel, NdRange::linear(n, 64)).unwrap();
            (report, out.to_vec())
        };
        let (a, a_out) = launch();
        let (b, b_out) = launch();
        assert_eq!(a_out, b_out, "compacted ids land in the same order");
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.wave_cycles.to_bits(), b.wave_cycles.to_bits());
        assert_eq!(a.sim_time_s.to_bits(), b.sim_time_s.to_bits());
        assert_eq!(a.exec_time_s.to_bits(), b.exec_time_s.to_bits());
    }
}

#[test]
fn ndrange_validation_agrees_with_arithmetic() {
    let mut rng = Xoshiro256::seed_from_u64(0x0D4);
    for _ in 0..200 {
        let global = rng.gen_range(1, 4096);
        let local = rng.gen_range(1, 512);
        let nd = NdRange::linear(global, local);
        assert_eq!(nd.validate().is_ok(), global.is_multiple_of(local));
        let covered = NdRange::linear_cover(global, local);
        assert!(covered.validate().is_ok());
        assert!(covered.global(0) >= global);
        assert!(covered.global(0) - global < local);
    }
}

#[test]
fn allocation_accounting_balances() {
    let mut rng = Xoshiro256::seed_from_u64(0xA110C);
    for _ in 0..16 {
        let lens: Vec<usize> = (0..rng.gen_range(1, 20))
            .map(|_| rng.gen_range(1, 4000))
            .collect();
        let device = Device::new(DeviceSpec::mi100());
        let bufs: Vec<_> = lens
            .iter()
            .map(|&l| device.alloc::<u32>(l).unwrap())
            .collect();
        let expected: u64 = lens.iter().map(|&l| l as u64 * 4).sum();
        assert_eq!(device.mem_used(), expected);
        drop(bufs);
        assert_eq!(device.mem_used(), 0);
    }
}
