//! Thread-block execution context: warp-synchronous cost accounting.
//!
//! Kernels in this simulator are written *warp-centrically*: for each
//! worklist round, the kernel builds one [`LaneWork`] descriptor per active
//! lane and submits warp-sized groups through [`BlockCtx::warp_process`].
//! The context then charges cycles mechanistically:
//!
//! * **branch divergence** — lanes are grouped by their `partition` (the
//!   branch path they take); distinct groups execute *serially*, exactly
//!   like a SIMT reconvergence stack. A warp of 25 different statement
//!   types pays ~25 serialized passes; a GRP-sorted warp pays 1–3.
//! * **memory coalescing** — each group's reads/writes are collapsed into
//!   128-byte transactions (the distinct lines its addresses and
//!   [`CellFootprint`]s touch); lanes in different divergence groups
//!   cannot coalesce with each other.
//! * **dependent latency** — double-de-reference lanes (`x.f`, `a[i]`)
//!   pay pointer-chasing latency that other warps cannot hide.
//! * **dynamic allocation** — `malloc` requests route to the shared
//!   [`crate::memory::DeviceHeap`] and pay the serialized, contended path.

use crate::config::DeviceConfig;
use crate::memory::{CellFootprint, DevAddr, DeviceBuffer, DeviceHeap, LineCounter};
use crate::sancheck::{AccessOrder, Sanitizer};

/// The work one lane performs in one warp-synchronous step.
#[derive(Clone, Debug, Default)]
pub struct LaneWork {
    /// Branch-path identifier: lanes with equal partitions execute
    /// together; distinct partitions serialize.
    pub partition: u32,
    /// ALU cycles this lane needs.
    pub compute_cycles: u64,
    /// Global addresses read.
    pub reads: Vec<DevAddr>,
    /// Reads of one cell array given as a bitmap, on top of `reads`: the
    /// compact form of a bitmap-indexed access (one address per set cell)
    /// that costs the same transactions without listing the addresses.
    /// A lane with a footprint states its useful bytes in `bytes_read`.
    pub read_cells: Option<CellFootprint>,
    /// Global addresses written.
    pub writes: Vec<DevAddr>,
    /// Dependent de-reference depth (GRP's 0/1/2 classification).
    pub deref_layers: u32,
    /// Dynamic allocations requested (byte sizes).
    pub mallocs: Vec<u64>,
    /// Useful bytes behind `reads` and `read_cells` (for the
    /// ideal-coalescing metric). When 0, 8 bytes per address in `reads`
    /// are assumed.
    pub bytes_read: u64,
    /// Useful bytes behind `writes`.
    pub bytes_written: u64,
    /// Memory-ordering class of this lane's accesses. `Atomic` models the
    /// kernels' atomic-OR fact updates and CAS inserts: such accesses are
    /// exempt from the sanitizer's race detection (but still bounds- and
    /// liveness-checked). Has no effect on timing.
    pub order: AccessOrder,
    /// Barrier this lane arrives at during the step (`None` = does not
    /// sync). Lanes of one warp disagreeing is barrier divergence —
    /// reported by the sanitizer. Has no effect on timing.
    pub barrier: Option<u32>,
}

impl LaneWork {
    /// A lane that only computes.
    pub fn compute(partition: u32, cycles: u64) -> LaneWork {
        LaneWork { partition, compute_cycles: cycles, ..Default::default() }
    }
}

/// Per-block counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Cycles this block's timeline advanced.
    pub cycles: u64,
    /// Warp-synchronous steps executed.
    pub warp_steps: u64,
    /// Serialized divergence passes (≥ warp_steps; ratio = divergence).
    pub divergence_passes: u64,
    /// Global-memory transactions issued.
    pub transactions: u64,
    /// The minimum transactions had every access been perfectly coalesced.
    pub ideal_transactions: u64,
    /// Dynamic allocations performed.
    pub mallocs: u64,
    /// Bytes requested from the device heap.
    pub malloc_bytes: u64,
    /// Cycles spent waiting on the allocator.
    pub malloc_cycles: u64,
    /// Cycles of dependent-load latency (hideable by co-resident blocks).
    pub latency_cycles: u64,
    /// Device-side worklist queue operations (persistent kernels).
    pub queue_ops: u64,
    /// Cycles spent in contended queue operations (persistent kernels).
    pub queue_cycles: u64,
}

/// Execution context of one thread block.
pub struct BlockCtx<'a> {
    config: &'a DeviceConfig,
    heap: &'a mut DeviceHeap,
    /// Blocks co-resident on the device during this launch (allocator
    /// contention factor).
    resident_blocks: usize,
    /// The `simcheck` sanitizer, when enabled on the device. Observes
    /// every global access without charging cycles.
    san: Option<&'a mut Sanitizer>,
    /// Counters.
    pub stats: BlockStats,
    /// Scratch: lane indices ordered by divergence group.
    lane_order: Vec<usize>,
    /// Scratch: the coalescing model's line buffers.
    lines: LineCounter,
}

/// Fixed issue overhead per warp-synchronous step.
const WARP_ISSUE_CYCLES: u64 = 8;

impl<'a> BlockCtx<'a> {
    /// Creates a context (called by the device launch machinery).
    pub(crate) fn new(
        config: &'a DeviceConfig,
        heap: &'a mut DeviceHeap,
        resident_blocks: usize,
        san: Option<&'a mut Sanitizer>,
    ) -> BlockCtx<'a> {
        BlockCtx {
            config,
            heap,
            resident_blocks,
            san,
            stats: BlockStats::default(),
            lane_order: Vec::new(),
            lines: LineCounter::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        self.config
    }

    /// Uniform (non-divergent) block-wide compute.
    pub fn compute(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Executes one warp-synchronous step over ≤ `warp_size` lanes.
    ///
    /// Lanes are grouped by `partition`; groups run serially. Within a
    /// group, compute costs take the max (lockstep), memory accesses
    /// coalesce, and dependent latency is charged once at the group's
    /// deepest de-reference level.
    pub fn warp_process(&mut self, lanes: &[LaneWork]) {
        assert!(
            lanes.len() <= self.config.warp_size,
            "warp_process got {} lanes for warp size {}",
            lanes.len(),
            self.config.warp_size
        );
        if lanes.is_empty() {
            return;
        }
        let line_bytes = self.config.transaction_bytes;
        if let Some(san) = self.san.as_mut() {
            san.on_warp(lanes, line_bytes);
        }
        self.stats.warp_steps += 1;
        self.stats.cycles += WARP_ISSUE_CYCLES;

        // Group lanes by partition: groups run in ascending partition
        // order, lanes within a group in lane order.
        let mut order = std::mem::take(&mut self.lane_order);
        order.clear();
        order.extend(0..lanes.len());
        order.sort_unstable_by_key(|&i| (lanes[i].partition, i));

        let mut total_bytes_read_written = 0u64;
        for group in order.chunk_by(|&a, &b| lanes[a].partition == lanes[b].partition) {
            self.stats.divergence_passes += 1;
            let group = || group.iter().map(|&i| &lanes[i]);

            // Lockstep compute: the group takes its slowest lane.
            let compute = group().map(|l| l.compute_cycles).max().unwrap_or(0);
            self.stats.cycles += compute;

            // Coalescing within the group only.
            let reads = self
                .lines
                .count(line_bytes, group().map(|l| (&l.reads[..], l.read_cells.as_ref())));
            let writes = self.lines.count(line_bytes, group().map(|l| (&l.writes[..], None)));
            let tx = reads + writes;
            self.stats.transactions += tx;
            self.stats.cycles += tx * self.config.transaction_cycles;
            for l in group() {
                let br = if l.bytes_read == 0 { l.reads.len() as u64 * 8 } else { l.bytes_read };
                let bw =
                    if l.bytes_written == 0 { l.writes.len() as u64 * 8 } else { l.bytes_written };
                total_bytes_read_written += br + bw;
            }

            // Dependent de-reference latency (once per serialized pass —
            // the pointer chase stalls the whole group). Tracked separately
            // because co-resident blocks can hide it (see Device::pack).
            let depth = group().map(|l| l.deref_layers).max().unwrap_or(0) as u64;
            let lat = depth * self.config.dependent_latency_cycles;
            self.stats.cycles += lat;
            self.stats.latency_cycles += lat;

            // Dynamic allocations: fully serialized.
            for lane in group() {
                for &bytes in &lane.mallocs {
                    let (buf, cost) = self.heap.malloc(self.config, bytes, self.resident_blocks);
                    if let Some(san) = self.san.as_mut() {
                        san.note_heap(buf);
                    }
                    self.stats.mallocs += 1;
                    self.stats.malloc_bytes += bytes;
                    self.stats.malloc_cycles += cost;
                    self.stats.cycles += cost;
                }
            }
        }
        self.lane_order = order;

        // Ideal transaction count: all touched bytes in perfectly packed
        // 128-byte lines.
        self.stats.ideal_transactions +=
            total_bytes_read_written.div_ceil(self.config.transaction_bytes);
    }

    /// Dequeues `items` entries from the device-side worklist queue a
    /// persistent kernel owns. Each operation is an atomic head bump plus
    /// a scattered read; like the allocator, it serializes under
    /// contention, so the per-op cost scales with the co-resident block
    /// count (clamped — past ~24 contenders the queue is
    /// bandwidth-bound, not atomics-bound). Cost-only: queue ops never
    /// change what a kernel computes, so facts are unaffected.
    pub fn queue_pop(&mut self, items: u64) {
        self.queue_op(items);
    }

    /// Enqueues `items` entries onto the device-side worklist queue
    /// (atomic tail bump plus a scattered write). Same contended cost
    /// model as [`BlockCtx::queue_pop`].
    pub fn queue_push(&mut self, items: u64) {
        self.queue_op(items);
    }

    /// Shared contended queue-operation path.
    fn queue_op(&mut self, items: u64) {
        if items == 0 {
            return;
        }
        let contention = (self.resident_blocks as u64).clamp(4, 24);
        let cost = items * self.config.queue_op_cycles * contention;
        self.stats.queue_ops += items;
        self.stats.queue_cycles += cost;
        self.stats.cycles += cost;
    }

    /// Performs a kernel-side allocation outside lane context (e.g. the
    /// initial set-chunk allocations of the plain kernel).
    pub fn malloc(&mut self, bytes: u64) -> DeviceBuffer {
        let (buf, cost) = self.heap.malloc(self.config, bytes, self.resident_blocks);
        if let Some(san) = self.san.as_mut() {
            san.note_heap(buf);
        }
        self.stats.mallocs += 1;
        self.stats.malloc_bytes += bytes;
        self.stats.malloc_cycles += cost;
        self.stats.cycles += cost;
        buf
    }

    /// Device-side `free`: returns a heap buffer to the allocator. Charges
    /// the same serialized allocator path as `malloc`. Later accesses to
    /// the buffer are reported as use-after-free by the sanitizer.
    pub fn free(&mut self, buf: DeviceBuffer) {
        let cost = self.config.malloc_cycles;
        self.stats.malloc_cycles += cost;
        self.stats.cycles += cost;
        if let Some(san) = self.san.as_mut() {
            san.note_free(buf);
        }
    }

    /// Declares a kernel-managed alias region to the sanitizer (e.g. the
    /// modeled address range of a grown set chunk). Free of charge — this
    /// is metadata, not device work — and a no-op when the sanitizer is
    /// disabled.
    pub fn san_note_region(&mut self, base: DevAddr, len: u64) {
        if let Some(san) = self.san.as_mut() {
            san.note_alias(base, len);
        }
    }

    /// `__syncthreads()` — a small fixed cost. Advances the sanitizer's
    /// Jacobi-round clock: accesses separated by a sync are ordered.
    pub fn sync(&mut self) {
        self.stats.cycles += 20;
        if let Some(san) = self.san.as_mut() {
            san.on_sync();
        }
    }

    /// One warp-synchronous access to shared memory: 32 banks, 4-byte
    /// words; lanes hitting the same bank at different words serialize.
    /// Returns the conflict factor (1 = conflict-free).
    pub fn shared_access(&mut self, addrs: &[u64]) -> u64 {
        if addrs.is_empty() {
            return 0;
        }
        // Bank = word address modulo 32; conflicts = max lanes per bank
        // with distinct word addresses (broadcast of the same word is
        // free).
        let mut per_bank: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
            std::collections::HashMap::new();
        for &a in addrs {
            let word = a / 4;
            per_bank.entry(word % 32).or_default().insert(word);
        }
        let conflict = per_bank.values().map(|w| w.len() as u64).max().unwrap_or(1);
        self.stats.cycles += 2 * conflict;
        conflict
    }

    /// Models a block-level sort of `n` keys in shared memory (bitonic):
    /// used by the GRP optimization's partial worklist sort.
    pub fn shared_sort(&mut self, n: usize) {
        if n <= 1 {
            return;
        }
        // Bitonic sort: O(n log² n) comparisons over warp_size lanes.
        // Key-value bitonic sort in shared memory with bank conflicts:
        // ~20 cycles per element-pass. This overhead is what makes GRP a
        // net loss on small worklists (§V-C).
        let n = n as u64;
        let log = 64 - n.leading_zeros() as u64;
        let steps = log * (log + 1) / 2;
        let per_step = n.div_ceil(self.config.warp_size as u64).max(1) * 26;
        self.stats.cycles += steps * per_step + 200;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (DeviceConfig, DeviceHeap) {
        (DeviceConfig::tesla_p40(), DeviceHeap::new())
    }

    #[test]
    fn uniform_warp_is_single_pass() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        let lanes: Vec<LaneWork> = (0..32).map(|_| LaneWork::compute(0, 10)).collect();
        ctx.warp_process(&lanes);
        assert_eq!(ctx.stats.divergence_passes, 1);
        assert_eq!(ctx.stats.warp_steps, 1);
        assert_eq!(ctx.stats.cycles, WARP_ISSUE_CYCLES + 10);
    }

    #[test]
    fn divergent_warp_serializes() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        // 25 partitions → 25 serialized passes of 10 cycles each.
        let lanes: Vec<LaneWork> = (0..25).map(|i| LaneWork::compute(i, 10)).collect();
        ctx.warp_process(&lanes);
        assert_eq!(ctx.stats.divergence_passes, 25);
        assert_eq!(ctx.stats.cycles, WARP_ISSUE_CYCLES + 25 * 10);
    }

    #[test]
    fn coalesced_reads_cost_one_transaction() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        let lanes: Vec<LaneWork> = (0..32)
            .map(|i| LaneWork { partition: 0, reads: vec![0x4000 + i * 4], ..Default::default() })
            .collect();
        ctx.warp_process(&lanes);
        assert_eq!(ctx.stats.transactions, 1);
        assert_eq!(ctx.stats.ideal_transactions, 2); // 32 lanes x 8 B = 256 B
    }

    #[test]
    fn divergence_breaks_coalescing() {
        let (cfg, mut heap) = setup();
        // Same addresses, but alternating partitions: two passes, and the
        // two halves cannot share transactions.
        let mut c1 = BlockCtx::new(&cfg, &mut heap, 1, None);
        let lanes: Vec<LaneWork> = (0..32)
            .map(|i| LaneWork {
                partition: (i % 2) as u32,
                reads: vec![0x4000 + i * 4],
                ..Default::default()
            })
            .collect();
        c1.warp_process(&lanes);
        // Each half still touches the same single 128B segment, so 2
        // transactions vs the uniform warp's 1.
        assert_eq!(c1.stats.transactions, 2);
        assert_eq!(c1.stats.divergence_passes, 2);
    }

    #[test]
    fn deref_layers_charge_latency() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        let mut lane = LaneWork::compute(0, 0);
        lane.deref_layers = 2;
        ctx.warp_process(&[lane]);
        assert_eq!(ctx.stats.cycles, WARP_ISSUE_CYCLES + 2 * cfg.dependent_latency_cycles);
    }

    #[test]
    fn mallocs_are_expensive_and_contended() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 60, None);
        let mut lane = LaneWork::compute(0, 0);
        lane.mallocs = vec![256];
        ctx.warp_process(&[lane]);
        assert_eq!(ctx.stats.mallocs, 1);
        // Contention is clamped to [12, 44] contenders.
        assert_eq!(ctx.stats.malloc_cycles, cfg.malloc_cycles * 44);
        assert!(ctx.stats.cycles >= cfg.malloc_cycles * 44);
    }

    #[test]
    fn shared_access_models_bank_conflicts() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        // 32 consecutive words: one per bank, conflict-free.
        let clean: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(ctx.shared_access(&clean), 1);
        // All lanes read the SAME word: broadcast, conflict-free.
        let broadcast = vec![128u64; 32];
        assert_eq!(ctx.shared_access(&broadcast), 1);
        // 32 words with stride 32 words: all in bank 0 → 32-way conflict.
        let conflicted: Vec<u64> = (0..32).map(|i| i * 32 * 4).collect();
        assert_eq!(ctx.shared_access(&conflicted), 32);
        assert_eq!(ctx.shared_access(&[]), 0);
    }

    #[test]
    fn shared_sort_scales_superlinearly() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        ctx.shared_sort(8);
        let small = ctx.stats.cycles;
        let mut ctx2 = BlockCtx::new(&cfg, &mut heap, 1, None);
        ctx2.shared_sort(256);
        assert!(ctx2.stats.cycles > small * 2);
        // Sorting nothing is free.
        let mut ctx3 = BlockCtx::new(&cfg, &mut heap, 1, None);
        ctx3.shared_sort(1);
        assert_eq!(ctx3.stats.cycles, 0);
    }

    #[test]
    fn queue_ops_are_contended_and_cost_only() {
        let (cfg, mut heap) = setup();
        // Solo block: contention clamps up to the floor of 4 contenders.
        let mut solo = BlockCtx::new(&cfg, &mut heap, 1, None);
        solo.queue_pop(1);
        assert_eq!(solo.stats.queue_ops, 1);
        assert_eq!(solo.stats.queue_cycles, cfg.queue_op_cycles * 4);
        assert_eq!(solo.stats.cycles, solo.stats.queue_cycles);
        // A fully resident device pays the clamped ceiling of 24.
        let mut packed = BlockCtx::new(&cfg, &mut heap, 120, None);
        packed.queue_pop(1);
        packed.queue_push(2);
        assert_eq!(packed.stats.queue_ops, 3);
        assert_eq!(packed.stats.queue_cycles, 3 * cfg.queue_op_cycles * 24);
        // Zero items are free.
        let mut idle = BlockCtx::new(&cfg, &mut heap, 120, None);
        idle.queue_pop(0);
        idle.queue_push(0);
        assert_eq!(idle.stats, BlockStats::default());
    }

    /// One random lane: partition, explicit read offsets, footprint
    /// (1 = present; bitmap words; 1 = sparse), and whether an
    /// explicit-only lane states its useful bytes (1) or leaves them
    /// implied.
    type LaneSpec = (u32, Vec<u64>, (u8, Vec<u64>, u8), u8);

    /// The footprint's cells as explicit start addresses.
    fn expand(fp: &CellFootprint) -> Vec<DevAddr> {
        let mut addrs = Vec::new();
        for (wi, &w) in fp.words.iter().enumerate() {
            for bit in 0..64 {
                if w >> bit & 1 == 1 {
                    addrs.push(fp.base + (wi as u64 * 64 + bit) * fp.stride);
                }
            }
        }
        addrs
    }

    proptest! {
        /// A footprint lane costs exactly what the same lane with every set
        /// cell's start address listed costs — every counter — and the
        /// transactions equal a plain sort+dedup of those addresses' lines
        /// per divergence group. Covers dense and sparse bitmaps over one
        /// cell array, strides wider than a line, spans of many lines,
        /// explicit addresses landing inside and outside the array's lines,
        /// and several partitions.
        #[test]
        fn footprint_lines_match_expanded_addresses(
            stride in 1u64..400,
            base in 0u64..4096,
            lanes in prop::collection::vec(
                (
                    0u32..4,
                    prop::collection::vec(0u64..60_000, 0..4),
                    (0u8..2, prop::collection::vec(any::<u64>(), 0..6), 0u8..2),
                    0u8..2,
                ),
                1..33,
            ),
        ) {
            let base = 0x10_000 + base;
            let specs: Vec<LaneSpec> = lanes;
            let mut compact = Vec::new();
            let mut expanded = Vec::new();
            for (partition, offsets, (has_cells, words, sparse), sized) in specs {
                let (has_cells, sparse, sized) = (has_cells == 1, sparse == 1, sized == 1);
                let reads: Vec<DevAddr> = offsets.iter().map(|o| base + o).collect();
                let read_cells = has_cells.then(|| {
                    let words = words
                        .iter()
                        .map(|&w| if sparse { w & w.rotate_left(17) & w.rotate_left(41) } else { w })
                        .collect();
                    CellFootprint { base, stride, words }
                });
                let cells = read_cells.as_ref().map_or(Vec::new(), expand);
                let bytes_read = if sized || has_cells {
                    8 + 3 * (reads.len() + cells.len()) as u64
                } else {
                    0
                };
                let lane = LaneWork { partition, reads, bytes_read, ..Default::default() };
                let mut flat = lane.clone();
                flat.reads.extend(cells);
                expanded.push(flat);
                compact.push(LaneWork { read_cells, ..lane });
            }

            let (cfg, mut heap) = setup();
            let mut a = BlockCtx::new(&cfg, &mut heap, 1, None);
            a.warp_process(&compact);
            let compact_stats = a.stats;
            let mut b = BlockCtx::new(&cfg, &mut heap, 1, None);
            b.warp_process(&expanded);
            prop_assert_eq!(compact_stats, b.stats);

            let mut reference = 0u64;
            for p in 0..4 {
                let mut lines: Vec<u64> = expanded
                    .iter()
                    .filter(|l| l.partition == p)
                    .flat_map(|l| l.reads.iter().map(|a| a / cfg.transaction_bytes))
                    .collect();
                lines.sort_unstable();
                lines.dedup();
                reference += lines.len() as u64;
            }
            prop_assert_eq!(compact_stats.transactions, reference);
        }
    }

    #[test]
    #[should_panic(expected = "warp_process got")]
    fn oversized_warp_panics() {
        let (cfg, mut heap) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None);
        let lanes: Vec<LaneWork> = (0..33).map(|_| LaneWork::compute(0, 1)).collect();
        ctx.warp_process(&lanes);
    }
}
