//! ND-range executor.
//!
//! Work-groups are independent (as on real hardware) and run in parallel
//! across host threads; the work-items *within* a group run sequentially,
//! phase by phase, which makes intra-group execution deterministic and gives
//! barrier semantics by construction (see
//! [`crate::KernelProgram`]).
//!
//! While executing, the executor reduces the launch to *wave-cycles*: within
//! each wavefront of 64 work-items the lanes run in lockstep, so a wave's
//! cost for a phase is the issue cost of its slowest lane (this is what makes
//! the baseline comparer's serial thread-0 staging expensive, and what makes
//! early loop exits only help when a whole wave exits early). Wave costs are
//! summed over all waves and phases and handed to the
//! [timing model](crate::timing).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::counters::AccessCounters;
use crate::error::{SimError, SimResult};
use crate::isa::ResourceUsage;
use crate::item::ItemCtx;
use crate::kernel::KernelProgram;
use crate::ndrange::NdRange;
use crate::occupancy::{occupancy, Occupancy};
use crate::spec::DeviceSpec;
use crate::timing::{kernel_time_s, CostModel};

/// How work-groups are scheduled onto host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Groups run one after another on the calling thread. Fully
    /// deterministic, including the order of device atomics.
    Sequential,
    /// Groups run concurrently on `threads` host threads. The result *set*
    /// is deterministic for data-race-free kernels, but the order in which
    /// atomically compacted outputs land is not — exactly as on a GPU.
    /// One launch's simulated time does not depend on that order. A later
    /// kernel that reads the compacted outputs does, though: it reads them
    /// in landing order, so which items share a wave, and so its simulated
    /// time, can vary from run to run.
    Parallel {
        /// Number of host worker threads.
        threads: usize,
    },
}

impl Default for ExecMode {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExecMode::Parallel { threads }
    }
}

/// Everything known about a finished kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// The ND-range that was executed.
    pub nd: NdRange,
    /// Dynamic event counts summed over all work-items.
    pub counters: AccessCounters,
    /// Sum over all waves and phases of the slowest lane's issue cycles.
    pub wave_cycles: f64,
    /// Static resources from the pseudo-ISA compiler.
    pub resources: ResourceUsage,
    /// Achieved occupancy.
    pub occupancy: Occupancy,
    /// Simulated command time in seconds, including the fixed host-side
    /// launch overhead (this is what advances a queue's clock).
    pub sim_time_s: f64,
    /// Simulated device execution time in seconds, excluding the launch
    /// overhead — the "kernel execution time" a profiler reports and the
    /// quantity the paper's Fig. 2 plots.
    pub exec_time_s: f64,
    /// Host wall-clock time spent simulating.
    pub wall_time: Duration,
}

struct GroupResult {
    counters: AccessCounters,
    wave_cycles: f64,
}

/// Lanes per wavefront: the lockstep width the cost fold prices.
const WAVEFRONT: usize = 64;

fn run_group<K: KernelProgram>(
    kernel: &K,
    nd: &NdRange,
    cost: &CostModel,
    layout: &crate::local::LocalLayout,
    group_linear: usize,
    phases: usize,
    group_overhead: f64,
) -> GroupResult {
    let gpd = nd.groups_per_dim();
    let gx = group_linear % gpd[0];
    let gy = (group_linear / gpd[0]) % gpd[1];
    let gz = group_linear / (gpd[0] * gpd[1]);
    let group_id = [gx, gy, gz];

    let group_size = nd.group_size();
    let global_range = [nd.global(0), nd.global(1), nd.global(2)];
    let local_range = [nd.local(0), nd.local(1), nd.local(2)];
    let origin = [
        gx * local_range[0],
        gy * local_range[1],
        gz * local_range[2],
    ];

    let mut local = layout.instantiate();
    let mut privates: Vec<K::Private> = std::iter::repeat_with(K::Private::default)
        .take(group_size)
        .collect();

    let mut counters = AccessCounters::ZERO;
    let mut wave_cycles = group_overhead;

    for phase in 0..phases {
        let mut wave_max = 0.0f64;
        let mut wave_serialized = 0.0f64;
        // One context walks the group's lanes in linear order; `next_lane`
        // steps its ids and clears its counters for the next work-item.
        let mut item = ItemCtx::new(origin, [0; 3], group_id, global_range, local_range);
        for (li, private) in privates.iter_mut().enumerate() {
            if phase > 0 {
                item.count_barrier();
            }
            kernel.run_phase(phase, &mut item, private, &mut local);

            // A lane that did nothing (most lanes of a staging phase) would
            // add +0.0 to sums that are already >= +0.0 and leave the max
            // as it is, so skipping it changes no bit of the fold.
            if !item.counters.is_zero() {
                wave_max = wave_max.max(cost.lockstep_cycles(&item.counters));
                wave_serialized += cost.serialized_cycles(&item.counters);
                counters += item.counters;
            }

            let wave_ends = (li + 1) % WAVEFRONT == 0 || li + 1 == group_size;
            if wave_ends {
                wave_cycles += wave_max + wave_serialized;
                wave_max = 0.0;
                wave_serialized = 0.0;
            }
            item.next_lane();
        }
    }

    GroupResult {
        counters,
        wave_cycles,
    }
}

/// Run one launch of `kernel`, whose code model compiled to `resources`
/// (the device's per-model memo; the local layout's bytes are added here).
pub(crate) fn run_launch<K: KernelProgram>(
    spec: &DeviceSpec,
    mode: ExecMode,
    kernel: &K,
    nd: NdRange,
    mut resources: ResourceUsage,
) -> SimResult<LaunchReport> {
    nd.validate()?;
    let layout = kernel.local_layout();
    if layout.total_bytes() > spec.lds_per_cu_bytes {
        return Err(SimError::LocalMemExceeded {
            requested: layout.total_bytes(),
            available: spec.lds_per_cu_bytes,
        });
    }

    resources.lds_bytes = layout.total_bytes();
    let occ = occupancy(&resources, &nd, spec);
    let cost = CostModel::new(spec);
    let phases = kernel.phases().max(1);
    let groups = nd.work_groups();
    let group_overhead = spec.group_dispatch_cycles as f64;

    let start = Instant::now();
    let (counters, wave_cycles) = match mode {
        ExecMode::Sequential => {
            let mut counters = AccessCounters::ZERO;
            let mut cycles = 0.0;
            for g in 0..groups {
                let r = run_group(kernel, &nd, &cost, &layout, g, phases, group_overhead);
                counters += r.counters;
                cycles += r.wave_cycles;
            }
            (counters, cycles)
        }
        ExecMode::Parallel { threads } => {
            let threads = threads.max(1).min(groups.max(1));
            let next = AtomicUsize::new(0);
            let acc = Mutex::new((AccessCounters::ZERO, 0.0f64));
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let mut counters = AccessCounters::ZERO;
                        let mut cycles = 0.0;
                        loop {
                            let g = next.fetch_add(1, Ordering::Relaxed);
                            if g >= groups {
                                break;
                            }
                            let r =
                                run_group(kernel, &nd, &cost, &layout, g, phases, group_overhead);
                            counters += r.counters;
                            cycles += r.wave_cycles;
                        }
                        let mut guard = acc.lock().unwrap();
                        guard.0 += counters;
                        guard.1 += cycles;
                    });
                }
            });
            acc.into_inner().unwrap()
        }
    };
    let wall_time = start.elapsed();

    let sim_time_s = kernel_time_s(wave_cycles, &counters, &occ, spec);
    let exec_time_s = sim_time_s - spec.launch_overhead_s;

    Ok(LaunchReport {
        kernel: kernel.name().to_owned(),
        nd,
        counters,
        wave_cycles,
        resources,
        occupancy: occ,
        sim_time_s,
        exec_time_s,
        wall_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kernel::{LocalHandle, LocalLayout, LocalMem};
    use crate::memory::DeviceBuffer;

    /// Writes each item's global id into an output buffer.
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
            self.out.store(item, i, i as u32);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 4 }] {
            let device = Device::with_mode(DeviceSpec::mi100(), mode);
            let out = device.alloc::<u32>(1024).unwrap();
            let report = device
                .launch(&Iota { out: out.clone() }, NdRange::linear(1024, 64))
                .unwrap();
            let expect: Vec<u32> = (0..1024).collect();
            assert_eq!(out.to_vec(), expect);
            assert_eq!(report.counters.global_stores, 1024);
        }
    }

    #[test]
    fn a_device_compiles_each_code_model_once() {
        let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
        let iota = Iota {
            out: device.alloc::<u32>(256).unwrap(),
        };
        let first = device.launch(&iota, NdRange::linear(256, 64)).unwrap();
        let second = device.launch(&iota, NdRange::linear(128, 64)).unwrap();
        assert_eq!(
            device.compiled_models(),
            1,
            "the relaunch reuses the compile"
        );
        let fresh = crate::isa::compile_program(&iota.code_model()).resources();
        assert_eq!(first.resources, fresh);
        assert_eq!(second.resources, fresh);
        let count = Count {
            n: device.alloc::<u32>(1).unwrap(),
        };
        device.launch(&count, NdRange::linear(64, 64)).unwrap();
        assert_eq!(device.compiled_models(), 2, "a new model compiles");
    }

    /// Atomically counts items; checks cross-group atomics under parallelism.
    struct Count {
        n: DeviceBuffer<u32>,
    }

    impl KernelProgram for Count {
        type Private = ();
        fn name(&self) -> &str {
            "count"
        }
        fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
            self.n.atomic_inc(item, 0);
        }
    }

    #[test]
    fn atomics_are_exact_across_parallel_groups() {
        let device = Device::with_mode(DeviceSpec::mi60(), ExecMode::Parallel { threads: 8 });
        let n = device.alloc::<u32>(1).unwrap();
        device
            .launch(&Count { n: n.clone() }, NdRange::linear(4096, 128))
            .unwrap();
        assert_eq!(n.to_vec()[0], 4096);
    }

    /// Two-phase kernel: phase 0 stages a value, phase 1 reads it back.
    struct Phased {
        src: DeviceBuffer<u32>,
        out: DeviceBuffer<u32>,
        slot: LocalHandle<u32>,
    }

    impl KernelProgram for Phased {
        type Private = ();
        fn name(&self) -> &str {
            "phased"
        }
        fn phases(&self) -> usize {
            2
        }
        fn local_layout(&self) -> LocalLayout {
            let mut l = LocalLayout::new();
            l.array::<u32>(1);
            l
        }
        fn run_phase(&self, phase: usize, item: &mut ItemCtx, _s: &mut (), local: &mut LocalMem) {
            match phase {
                0 => {
                    // Only the group leader stages; everyone reads after the
                    // barrier, which is the phase boundary.
                    if item.local_id(0) == 0 {
                        let v = self.src.load(item, item.group(0));
                        local.store(item, self.slot, 0, v);
                    }
                }
                _ => {
                    let v = local.load(item, self.slot, 0);
                    self.out.store(item, item.global_id(0), v);
                }
            }
        }
    }

    #[test]
    fn barrier_phases_publish_local_writes() {
        let device = Device::new(DeviceSpec::radeon_vii());
        let src = device.alloc_from_slice(&[10u32, 20]).unwrap();
        let out = device.alloc::<u32>(8).unwrap();
        let mut layout = LocalLayout::new();
        let slot = layout.array::<u32>(1);
        let k = Phased {
            src,
            out: out.clone(),
            slot,
        };
        let report = device.launch(&k, NdRange::linear(8, 4)).unwrap();
        assert_eq!(out.to_vec(), vec![10, 10, 10, 10, 20, 20, 20, 20]);
        // One barrier per item at the phase boundary.
        assert_eq!(report.counters.barriers, 8);
    }

    #[test]
    fn wave_cost_is_max_of_lanes() {
        // One lane does 1000x the work of the others; the wave must be
        // priced at the slow lane, not the average.
        struct Skewed;
        impl KernelProgram for Skewed {
            type Private = ();
            fn name(&self) -> &str {
                "skewed"
            }
            fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
                if item.local_id(0) == 0 {
                    item.ops(64_000);
                } else {
                    item.ops(1);
                }
            }
        }
        let device = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
        let report = device.launch(&Skewed, NdRange::linear(64, 64)).unwrap();
        let overhead = DeviceSpec::mi100().group_dispatch_cycles as f64;
        assert!(report.wave_cycles >= 64_000.0 + overhead);
        assert!(report.wave_cycles < 65_000.0 + overhead);
    }

    #[test]
    fn sequential_and_parallel_agree_on_counters_and_cycles() {
        let seq = Device::with_mode(DeviceSpec::mi100(), ExecMode::Sequential);
        let par = Device::with_mode(DeviceSpec::mi100(), ExecMode::Parallel { threads: 7 });
        let nd = NdRange::linear(2048, 256);
        let a = seq
            .launch(
                &Iota {
                    out: seq.alloc::<u32>(2048).unwrap(),
                },
                nd,
            )
            .unwrap();
        let b = par
            .launch(
                &Iota {
                    out: par.alloc::<u32>(2048).unwrap(),
                },
                nd,
            )
            .unwrap();
        assert_eq!(a.counters, b.counters);
        // Every cost-model cost is a whole number of cycles, so the
        // parallel fold of per-group wave cycles is exact in any order.
        assert_eq!(a.wave_cycles.to_bits(), b.wave_cycles.to_bits());
        assert_eq!(a.sim_time_s.to_bits(), b.sim_time_s.to_bits());
    }

    #[test]
    fn invalid_ndrange_is_rejected() {
        let device = Device::new(DeviceSpec::mi100());
        let out = device.alloc::<u32>(8).unwrap();
        let err = device
            .launch(&Iota { out }, NdRange::linear(10, 4))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidNdRange { .. }));
    }

    #[test]
    fn oversized_local_memory_is_rejected() {
        struct Greedy;
        impl KernelProgram for Greedy {
            type Private = ();
            fn name(&self) -> &str {
                "greedy"
            }
            fn local_layout(&self) -> LocalLayout {
                let mut l = LocalLayout::new();
                l.array::<u8>(128 * 1024);
                l
            }
            fn run_phase(&self, _p: usize, _i: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {}
        }
        let device = Device::new(DeviceSpec::mi100());
        let err = device.launch(&Greedy, NdRange::linear(64, 64)).unwrap_err();
        assert!(matches!(err, SimError::LocalMemExceeded { .. }));
    }

    #[test]
    fn local_memory_byte_count_overflow_is_rejected() {
        // 2^61 u64 elements are 2^64 bytes: a wrapping byte count reads 0
        // and slips past the LDS check into the group's instantiation.
        struct Wrapping;
        impl KernelProgram for Wrapping {
            type Private = ();
            fn name(&self) -> &str {
                "wrapping"
            }
            fn local_layout(&self) -> LocalLayout {
                let mut l = LocalLayout::new();
                l.array::<u64>(1 << 61);
                l
            }
            fn run_phase(&self, _p: usize, _i: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {}
        }
        let device = Device::new(DeviceSpec::mi100());
        let err = device
            .launch(&Wrapping, NdRange::linear(64, 64))
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::LocalMemExceeded {
                requested: u64::MAX,
                ..
            }
        ));
    }

    #[test]
    fn two_dimensional_ids_cover_the_range() {
        struct Mark2D {
            out: DeviceBuffer<u8>,
            width: usize,
        }
        impl KernelProgram for Mark2D {
            type Private = ();
            fn name(&self) -> &str {
                "mark2d"
            }
            fn run_phase(&self, _p: usize, item: &mut ItemCtx, _s: &mut (), _l: &mut LocalMem) {
                let x = item.global_id(0);
                let y = item.global_id(1);
                self.out.store(item, y * self.width + x, 1);
            }
        }
        let device = Device::new(DeviceSpec::mi60());
        let out = device.alloc::<u8>(16 * 8).unwrap();
        device
            .launch(
                &Mark2D {
                    out: out.clone(),
                    width: 16,
                },
                NdRange::two_d([16, 8], [4, 2]),
            )
            .unwrap();
        assert!(out.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn private_state_persists_across_phases() {
        struct Carry {
            out: DeviceBuffer<u64>,
        }
        impl KernelProgram for Carry {
            type Private = u64;
            fn name(&self) -> &str {
                "carry"
            }
            fn phases(&self) -> usize {
                3
            }
            fn run_phase(&self, phase: usize, item: &mut ItemCtx, p: &mut u64, _l: &mut LocalMem) {
                *p = *p * 10 + phase as u64 + 1;
                if phase == 2 {
                    self.out.store(item, item.global_id(0), *p);
                }
            }
        }
        let device = Device::new(DeviceSpec::mi100());
        let out = device.alloc::<u64>(4).unwrap();
        device
            .launch(&Carry { out: out.clone() }, NdRange::linear(4, 2))
            .unwrap();
        assert_eq!(out.to_vec(), vec![123, 123, 123, 123]);
    }
}
