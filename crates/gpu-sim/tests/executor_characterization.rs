//! Characterization of the executor's functional results and its cost fold.
//!
//! One probe kernel runs over 1-D, 2-D and 3-D ranges with 1–3 barrier
//! phases. Its group sizes include ones that are not a multiple of the
//! 64-lane wavefront, so the last wave of a group is partial, and its lanes
//! do unequal work. It touches `u8`, `i32` and `u64`
//! local arrays, scattered, cached, coalesced and constant loads, scattered
//! and coalesced stores, and atomics of three widths. Every output buffer,
//! the summed `AccessCounters` and the bit patterns of `wave_cycles`,
//! `sim_time_s` and `exec_time_s` fold into one FNV-1a digest, so any change
//! to what the simulator computes or how it prices it shows here. The cases
//! run twice: on the MI100 preset, whose per-event costs are whole cycles,
//! and on a variant whose scattered-load cost is not a dyadic fraction, so
//! the wave-cycle sums also pin the order in which the executor adds them.

use std::fmt::Write;

use gpu_sim::kernel::{KernelProgram, LocalHandle, LocalLayout, LocalMem};
use gpu_sim::{Device, DeviceBuffer, DeviceSpec, ItemCtx, NdRange};

/// The digest of [`CASES`] as the executor computed it when this test was
/// written. Only a deliberate change to the simulated model may move it.
const PINNED: u64 = 0x4efb_b7be_5577_5b44;

/// (range, phases): sizes chosen so groups hold 100, 60, 96 and 256 lanes.
const CASES: [(Range, usize); 6] = [
    (Range::One(300, 100), 1),
    (Range::One(300, 100), 3),
    (Range::Two([24, 10], [12, 5]), 2),
    (Range::Three([8, 6, 4], [4, 6, 4]), 3),
    (Range::Three([8, 12, 4], [4, 6, 4]), 1),
    (Range::One(512, 256), 2),
];

#[derive(Clone, Copy, Debug)]
enum Range {
    One(usize, usize),
    Two([usize; 2], [usize; 2]),
    Three([usize; 3], [usize; 3]),
}

impl Range {
    fn nd(self) -> NdRange {
        match self {
            Range::One(g, l) => NdRange::linear(g, l),
            Range::Two(g, l) => NdRange::two_d(g, l),
            Range::Three(g, l) => NdRange::three_d(g, l),
        }
    }
}

/// Local arrays, declared in this order by both the kernel's layout and
/// the handles it stores.
fn layout(
    group: usize,
) -> (
    LocalLayout,
    LocalHandle<u8>,
    LocalHandle<i32>,
    LocalHandle<u64>,
) {
    let mut l = LocalLayout::new();
    let bytes = l.array::<u8>(group);
    let signed = l.array::<i32>(group);
    let wide = l.array::<u64>(2);
    (l, bytes, signed, wide)
}

struct Probe {
    phases: usize,
    group: usize,
    src: DeviceBuffer<u32>,
    table: DeviceBuffer<u8>,
    out32: DeviceBuffer<u32>,
    out_signed: DeviceBuffer<i32>,
    out64: DeviceBuffer<u64>,
    tally: DeviceBuffer<i32>,
    wraps: DeviceBuffer<u8>,
    sums: DeviceBuffer<u64>,
    bytes: LocalHandle<u8>,
    signed: LocalHandle<i32>,
    wide: LocalHandle<u64>,
}

impl KernelProgram for Probe {
    type Private = u64;

    fn name(&self) -> &str {
        "probe"
    }

    fn phases(&self) -> usize {
        self.phases
    }

    fn local_layout(&self) -> LocalLayout {
        layout(self.group).0
    }

    fn run_phase(&self, phase: usize, item: &mut ItemCtx, carry: &mut u64, local: &mut LocalMem) {
        let lane = item.local_linear_id();
        let gid = item.global_linear_id();
        let group = (item.group(2) * item.group_range(1) + item.group(1)) * item.group_range(0)
            + item.group(0);
        match phase {
            0 => {
                let streamed = self.src.load_coalesced(item, gid % self.src.len());
                let again = self.src.load_cached(item, gid % self.src.len());
                let k = self.table.load(item, gid % self.table.len());
                local.store(item, self.bytes, lane, (gid * 7 + 3) as u8 ^ k);
                local.store(
                    item,
                    self.signed,
                    lane,
                    -(gid as i32) * 3 + item.local_id(1) as i32,
                );
                if lane == 0 {
                    let seed = self.src.load(item, (group * 5) % self.src.len());
                    local.store(item, self.wide, 0, seed as u64 * 0x1_0001);
                }
                item.ops(1 + ((gid * 13) % 17) as u64);
                self.tally.atomic_add(item, gid % 4, -(lane as i32) - 1);
                self.wraps.atomic_add(item, group % 3, 200);
                *carry = streamed as u64 ^ ((again as u64) << 20);
                self.out32.store_coalesced(
                    item,
                    gid,
                    streamed.wrapping_mul(31) ^ item.global_id(1) as u32,
                );
            }
            1 => {
                let size = self.group;
                let b = local.load(item, self.bytes, (lane + 1) % size);
                let s = local.load(item, self.signed, (lane + size - 1) % size);
                let w = local.load(item, self.wide, 0);
                if lane.is_multiple_of(3) {
                    item.ops(40 + lane as u64);
                    local.store(item, self.wide, 1, w + b as u64);
                }
                self.out_signed
                    .store(item, gid, s.wrapping_mul(b as i32 + 1));
                self.sums
                    .atomic_add(item, group % self.sums.len(), w ^ gid as u64);
                *carry = carry.wrapping_mul(0x9E37_79B9) ^ s as u64;
            }
            _ => {
                let w = local.load(item, self.wide, 1);
                if item.local_id(0) == 0 {
                    item.ops(200);
                }
                let tag = self.sums.atomic_inc(item, self.sums.len() - 1);
                self.out64
                    .store(item, gid, carry.wrapping_add(w) ^ (tag << 40));
            }
        }
    }
}

fn record(log: &mut String, device: &Device, range: Range, phases: usize) {
    let nd = range.nd();
    let n = nd.work_items();
    let group = nd.group_size();
    let (_, bytes, signed, wide) = layout(group);
    let src: Vec<u32> = (0..97u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 7)
        .collect();
    let table: Vec<u8> = (0..31u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    let k = Probe {
        phases,
        group,
        src: device.alloc_from_slice(&src).unwrap(),
        table: device.alloc_constant_from_slice(&table).unwrap(),
        out32: device.alloc(n).unwrap(),
        out_signed: device.alloc(n).unwrap(),
        out64: device.alloc(n).unwrap(),
        tally: device.alloc(4).unwrap(),
        wraps: device.alloc(3).unwrap(),
        sums: device.alloc(5).unwrap(),
        bytes,
        signed,
        wide,
    };
    let r = device.launch(&k, nd).unwrap();
    writeln!(
        log,
        "{range:?} phases={phases} out32={:?} signed={:?} out64={:?} tally={:?} wraps={:?} \
         sums={:?} counters={:?} wave_cycles={:#x} sim={:#x} exec={:#x}",
        k.out32.to_vec(),
        k.out_signed.to_vec(),
        k.out64.to_vec(),
        k.tally.to_vec(),
        k.wraps.to_vec(),
        k.sums.to_vec(),
        r.counters,
        r.wave_cycles.to_bits(),
        r.sim_time_s.to_bits(),
        r.exec_time_s.to_bits(),
    )
    .unwrap();
}

#[test]
fn executor_digest_is_pinned() {
    let fractional = DeviceSpec {
        mem_latency_cycles: 351,
        ..DeviceSpec::mi100()
    };
    let mut log = String::new();
    for spec in [DeviceSpec::mi100(), fractional] {
        let device = Device::new(spec);
        for (range, phases) in CASES {
            record(&mut log, &device, range, phases);
        }
    }
    let digest = log.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    if digest != PINNED {
        eprintln!("{log}");
        panic!("executor digest {digest:#018x} != pinned {PINNED:#018x}");
    }
}
