//! Fault-injection tests: each `simcheck` detector must fire on a planted
//! toy-kernel bug — with exact lane/warp/round attribution — and must stay
//! silent on the disciplined variant of the same kernel.

use gdroid_gpusim::{
    AccessOrder, BlockCtx, BlockFn, CellFootprint, Device, DeviceConfig, FindingKind, LaneWork,
};

fn san_device() -> Device {
    Device::new(DeviceConfig::tiny().with_sanitizer())
}

fn write_lane(addr: u64) -> LaneWork {
    LaneWork { writes: vec![addr], ..Default::default() }
}

fn read_lane(addr: u64) -> LaneWork {
    LaneWork { reads: vec![addr], ..Default::default() }
}

#[test]
fn planted_write_write_race_is_attributed() {
    let mut dev = san_device();
    let buf = dev.alloc_init(256);
    let addr = buf.base;
    // Two warps of one block write the same word in the same round: the
    // Jacobi discipline forbids exactly this.
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.warp_process(&[write_lane(addr)]); // warp 0
        ctx.warp_process(&[write_lane(addr)]); // warp 1, same round
    }]);
    let report = dev.san_report().unwrap();
    assert_eq!(report.total(), 1, "exactly the planted finding: {report}");
    assert_eq!(report.count(FindingKind::WriteWriteRace), 1);
    let f = &report.findings[0];
    assert_eq!(f.addr, addr);
    assert_eq!((f.site.block, f.site.round, f.site.warp, f.site.lane), (0, 0, 1, 0));
    let prior = f.prior.expect("race carries the prior access");
    assert_eq!((prior.round, prior.warp, prior.lane), (0, 0, 0));
}

#[test]
fn sync_orders_rounds_no_race() {
    let mut dev = san_device();
    let buf = dev.alloc_init(256);
    let addr = buf.base;
    // Same two writes, but separated by the round barrier: disciplined.
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.warp_process(&[write_lane(addr)]);
        ctx.sync();
        ctx.warp_process(&[write_lane(addr)]);
    }]);
    assert!(dev.san_report().unwrap().is_clean());
}

#[test]
fn cross_block_read_write_race_is_attributed() {
    let mut dev = san_device();
    let buf = dev.alloc_init(256);
    let addr = buf.base;
    let writer = move |ctx: &mut BlockCtx<'_>| ctx.warp_process(&[write_lane(addr)]);
    let reader = move |ctx: &mut BlockCtx<'_>| ctx.warp_process(&[read_lane(addr)]);
    let blocks: Vec<BlockFn<'_>> = vec![Box::new(writer), Box::new(reader)];
    dev.launch(blocks);
    let report = dev.san_report().unwrap();
    assert_eq!(report.total(), 1, "{report}");
    assert_eq!(report.count(FindingKind::ReadWriteRace), 1);
    let f = &report.findings[0];
    assert_eq!(f.site.block, 1, "the completing read is in block 1");
    assert_eq!(f.prior.unwrap().block, 0);
}

#[test]
fn atomic_accesses_never_race() {
    let mut dev = san_device();
    let buf = dev.alloc_init(256);
    let addr = buf.base;
    // Same shape as the planted WW race, but atomic — the kernels' fact-OR
    // idiom. Must be exempt.
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        let lane =
            LaneWork { writes: vec![addr], order: AccessOrder::Atomic, ..Default::default() };
        ctx.warp_process(std::slice::from_ref(&lane));
        ctx.warp_process(&[lane]);
    }]);
    assert!(dev.san_report().unwrap().is_clean());
}

#[test]
fn planted_oob_write_is_attributed() {
    let mut dev = san_device();
    dev.alloc_init(256);
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.sync(); // round 1
        let lanes = vec![LaneWork::compute(0, 1), write_lane(0xdead_0000)];
        ctx.warp_process(&lanes);
    }]);
    let report = dev.san_report().unwrap();
    assert_eq!(report.total(), 1, "{report}");
    assert_eq!(report.count(FindingKind::OutOfBounds), 1);
    let f = &report.findings[0];
    assert_eq!(f.addr, 0xdead_0000);
    assert_eq!((f.site.round, f.site.warp, f.site.lane), (1, 0, 1));
}

#[test]
fn planted_uninit_read_is_attributed() {
    let mut dev = san_device();
    let buf = dev.alloc(256); // planned but never host-initialized
    let addr = buf.addr(3, 8);
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.warp_process(&[read_lane(addr)]);
    }]);
    let report = dev.san_report().unwrap();
    assert_eq!(report.total(), 1, "{report}");
    assert_eq!(report.count(FindingKind::UninitRead), 1);
    let f = &report.findings[0];
    assert_eq!(f.addr, addr);
    assert_eq!((f.site.round, f.site.warp, f.site.lane), (0, 0, 0));
}

#[test]
fn kernel_write_initializes() {
    let mut dev = san_device();
    let buf = dev.alloc(256);
    let addr = buf.base;
    // Write in round 0, read in round 1: initialized, ordered — clean.
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.warp_process(&[write_lane(addr)]);
        ctx.sync();
        ctx.warp_process(&[read_lane(addr)]);
    }]);
    assert!(dev.san_report().unwrap().is_clean(), "{}", dev.san_report().unwrap());
}

#[test]
fn use_after_free_is_reported() {
    let mut dev = san_device();
    dev.launch(vec![|ctx: &mut BlockCtx<'_>| {
        let chunk = ctx.malloc(64);
        ctx.warp_process(&[read_lane(chunk.base)]); // heap memory: fine
        ctx.free(chunk);
        ctx.warp_process(&[read_lane(chunk.base)]); // dangling
    }]);
    let report = dev.san_report().unwrap();
    assert_eq!(report.count(FindingKind::UseAfterFree), 1, "{report}");
}

#[test]
fn footprint_overrunning_its_buffer_is_out_of_bounds() {
    let mut dev = san_device();
    // 16 cells of 16 bytes fill the buffer exactly.
    let buf = dev.alloc_init(256);
    let lane = |words: Vec<u64>| LaneWork {
        read_cells: Some(CellFootprint { base: buf.base, stride: 16, words }),
        order: AccessOrder::Atomic,
        ..Default::default()
    };
    // In bounds: cells 0, 3 (line 0) and 15 (line 1) — two lines checked.
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.warp_process(&[lane(vec![1 | 1 << 3 | 1 << 15])]);
    }]);
    let report = dev.san_report().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.accesses_checked, 2, "one check per line touched");
    // Cell 20 starts 64 bytes past the end, and is the first set cell of
    // its line: the overrun is reported at its start address.
    dev.launch(vec![move |ctx: &mut BlockCtx<'_>| {
        ctx.warp_process(&[LaneWork::compute(0, 1), lane(vec![1 | 1 << 20])]);
    }]);
    let report = dev.san_report().unwrap();
    assert_eq!(report.total(), 1, "{report}");
    assert_eq!(report.count(FindingKind::OutOfBounds), 1);
    let f = &report.findings[0];
    assert_eq!(f.addr, buf.base + 20 * 16);
    assert_eq!((f.site.warp, f.site.lane), (0, 1));
}

#[test]
fn barrier_divergence_is_reported() {
    let mut dev = san_device();
    dev.launch(vec![|ctx: &mut BlockCtx<'_>| {
        let arrive = LaneWork { barrier: Some(7), ..Default::default() };
        let skip = LaneWork::compute(0, 1);
        ctx.warp_process(&[arrive, skip]);
    }]);
    let report = dev.san_report().unwrap();
    assert_eq!(report.total(), 1, "{report}");
    assert_eq!(report.count(FindingKind::BarrierDivergence), 1);
    let f = &report.findings[0];
    assert_eq!(f.site.lane, 1, "lane 1 diverges from lane 0's barrier");
    assert_eq!(f.addr, 7, "carries the barrier id");
}

#[test]
fn alias_regions_cover_kernel_managed_memory() {
    let mut dev = san_device();
    dev.launch(vec![|ctx: &mut BlockCtx<'_>| {
        let base = 0x8000_0000_0000u64;
        ctx.san_note_region(base, 4096);
        ctx.warp_process(&[write_lane(base + 8)]);
        ctx.sync();
        ctx.warp_process(&[read_lane(base + 8)]);
    }]);
    assert!(dev.san_report().unwrap().is_clean());
}

/// The acceptance criterion: enabling the sanitizer must not perturb the
/// timing model in any field.
#[test]
fn kernel_stats_bit_identical_with_and_without_sanitizer() {
    let run = |config: DeviceConfig| {
        let mut dev = Device::new(config);
        let buf = dev.alloc_init(4096);
        let addr = buf.base;
        let blocks: Vec<BlockFn<'_>> = (0..6)
            .map(|b| {
                Box::new(move |ctx: &mut BlockCtx<'_>| {
                    for round in 0..4u64 {
                        let lanes: Vec<LaneWork> = (0..8)
                            .map(|i| LaneWork {
                                partition: i % 3,
                                compute_cycles: 5 + u64::from(i),
                                reads: vec![addr + 8 * u64::from(i) + 64 * round],
                                writes: vec![addr + 1024 + 8 * u64::from(i)],
                                deref_layers: u32::from(i % 2 == 0),
                                order: AccessOrder::Atomic,
                                ..Default::default()
                            })
                            .collect();
                        ctx.warp_process(&lanes);
                        if b % 2 == 0 {
                            ctx.malloc(128);
                        }
                        ctx.sync();
                    }
                }) as BlockFn<'_>
            })
            .collect();
        dev.launch(blocks)
    };
    let plain = run(DeviceConfig::tiny());
    let sanitized = run(DeviceConfig::tiny().with_sanitizer());
    assert_eq!(plain, sanitized, "sanitizer must never charge cycles");
}
