//! Seeded-random property tests of the SYCL-flavoured runtime: buffer
//! binding, ranged accessors, handler copies and clock monotonicity. Cases
//! are drawn from `genome::rng`, so runs are deterministic and need no
//! external property-testing crate.

use genome::rng::Xoshiro256;
use gpu_sim::NdRange;
use sycl_rt::{AccessMode, Buffer, GpuSelector, Queue};

fn queue() -> Queue {
    Queue::new(&GpuSelector::named("MI100")).unwrap()
}

#[test]
fn buffers_snapshot_and_bind_losslessly() {
    let mut rng = Xoshiro256::seed_from_u64(0xB0F);
    for _ in 0..32 {
        let data: Vec<u32> = (0..rng.gen_range(1, 300))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let q = queue();
        let buf = Buffer::from_slice(&data);
        assert_eq!(buf.to_vec(), data);
        // Binding through an accessor preserves contents.
        q.submit(|h| {
            h.get_access(&buf, AccessMode::Read)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(buf.to_vec(), data);
    }
}

#[test]
fn ranged_copies_write_exactly_the_window() {
    let mut rng = Xoshiro256::seed_from_u64(0x4A6);
    for _ in 0..32 {
        let offset = rng.gen_below(100);
        let window = rng.gen_range(1, 50);
        let len = offset + window + rng.gen_below(64);
        let q = queue();
        let buf = Buffer::<u8>::new(len);
        q.submit(|h| {
            let acc = h.get_access_range(&buf, AccessMode::Write, window, offset)?;
            h.copy_to_device(&vec![0xAB; window], &acc)
        })
        .unwrap();
        let v = buf.to_vec();
        for (i, &b) in v.iter().enumerate() {
            let inside = i >= offset && i < offset + window;
            assert_eq!(b == 0xAB, inside, "byte {i} corrupted");
        }
    }
}

#[test]
fn kernels_see_exactly_the_accessor_window() {
    let mut rng = Xoshiro256::seed_from_u64(0xACC);
    for _ in 0..16 {
        let base = rng.next_u64() as u32;
        let n = rng.gen_range(1, 8);
        let len = n * 64;
        let q = queue();
        let init: Vec<u32> = (0..len as u32).map(|i| i.wrapping_add(base)).collect();
        let buf = Buffer::from_slice(&init);
        q.submit(|h| {
            let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
            h.parallel_for_fn("neg", NdRange::linear(len, 64), move |item| {
                let i = item.global_id(0);
                let v = acc.load(item, i);
                acc.store(item, i, !v);
            })
        })
        .unwrap();
        let expect: Vec<u32> = init.iter().map(|&v| !v).collect();
        assert_eq!(buf.to_vec(), expect);
    }
}

#[test]
fn clock_grows_with_every_command_group() {
    let mut rng = Xoshiro256::seed_from_u64(0x71C);
    for _ in 0..8 {
        let groups = rng.gen_range(1, 15);
        let q = queue();
        let buf = Buffer::from_slice(&vec![1u32; 64]);
        let mut last = 0.0;
        for g in 0..groups {
            let ev = q
                .submit(|h| {
                    let acc = h.get_access(&buf, AccessMode::ReadWrite)?;
                    h.parallel_for_fn(&format!("g{g}"), NdRange::linear(64, 64), move |item| {
                        let i = item.global_id(0);
                        let v = acc.load(item, i);
                        acc.store(item, i, v + 1);
                    })
                })
                .unwrap();
            assert!(ev.end_s() > last);
            assert!(ev.end_s() >= ev.start_s());
            last = ev.end_s();
        }
        assert_eq!(buf.to_vec(), vec![1 + groups as u32; 64]);
    }
}
