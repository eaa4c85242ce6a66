//! Device memory model: address space, buffers, coalescing, and the
//! serialized device heap.

use crate::config::DeviceConfig;
use serde::{Deserialize, Serialize};

/// A device virtual address.
pub type DevAddr = u64;

/// A contiguous device allocation handed out by [`AddressSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceBuffer {
    /// Base address.
    pub base: DevAddr,
    /// Length in bytes.
    pub len: u64,
}

impl DeviceBuffer {
    /// Address of the `i`-th element of `elem_size` bytes.
    #[inline]
    pub fn addr(&self, i: u64, elem_size: u64) -> DevAddr {
        debug_assert!((i + 1) * elem_size <= self.len, "buffer overrun");
        self.base + i * elem_size
    }
}

/// A bump allocator over the device's global memory — models `cudaMalloc`
/// placement so kernels get realistic, well-separated addresses.
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    next: DevAddr,
    total: u64,
}

impl AddressSpace {
    /// A fresh address space of the device's global memory size.
    pub fn new(config: &DeviceConfig) -> AddressSpace {
        AddressSpace { next: 0x1000, total: config.global_mem_bytes }
    }

    /// Allocates a buffer (256-byte aligned, as cudaMalloc guarantees).
    pub fn alloc(&mut self, len: u64) -> DeviceBuffer {
        let base = (self.next + 255) & !255;
        assert!(
            base + len <= self.total,
            "device OOM: need {len}B at {base:#x} of {}B",
            self.total
        );
        self.next = base + len;
        DeviceBuffer { base, len }
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> u64 {
        self.next
    }
}

/// A lane's reads of one planned cell array, given as a bitmap instead of
/// an address list: set bit `i` of `words` reads the cell that starts at
/// `base + i * stride`. Like an explicit address, a cell is charged at its
/// start address, so a footprint costs exactly what the list of its cells'
/// start addresses would — without materializing that list. The stride is
/// non-zero, and all footprints of one divergence group share one
/// `(base, stride)`: the MAT kernel's fact matrix.
#[derive(Clone, Debug, Default)]
pub struct CellFootprint {
    /// Start address of cell 0.
    pub base: DevAddr,
    /// Bytes from one cell's start to the next's.
    pub stride: u64,
    /// Cell bitmap, 64 cells per word (cell `i` is bit `i % 64` of word
    /// `i / 64`).
    pub words: Vec<u64>,
}

impl CellFootprint {
    /// Calls `f` once per `line_bytes` line the footprint touches, in
    /// address order, with the start address of the first set cell in that
    /// line. Skips from line to line, so the cost is one step per line
    /// touched plus one per bitmap word, not one per cell.
    pub(crate) fn for_each_line(&self, line_bytes: u64, mut f: impl FnMut(DevAddr)) {
        let mut next = next_set_bit(&self.words, 0);
        while let Some(cell) = next {
            let addr = self.base + cell * self.stride;
            f(addr);
            // First cell starting at or past the next line boundary.
            let line_end = (addr / line_bytes + 1) * line_bytes;
            next = next_set_bit(&self.words, (line_end - self.base).div_ceil(self.stride));
        }
    }
}

/// Index of the first set bit at or after `from`, if any.
fn next_set_bit(words: &[u64], from: u64) -> Option<u64> {
    let mut wi = usize::try_from(from / 64).ok()?;
    let mut w = *words.get(wi)? & (!0u64 << (from % 64));
    loop {
        if w != 0 {
            return Some(wi as u64 * 64 + u64::from(w.trailing_zeros()));
        }
        wi += 1;
        w = *words.get(wi)?;
    }
}

/// The coalescing model: counts the `line_bytes` transactions needed to
/// serve one warp-synchronous group's accesses — the distinct lines its
/// explicit addresses and cell footprints touch.
///
/// Perfectly coalesced: 32 consecutive 4-byte words → 1 transaction.
/// Fully scattered: 32 random words → 32 transactions.
///
/// Holds its buffers across calls so the per-group count allocates
/// nothing once warmed up.
#[derive(Debug, Default)]
pub(crate) struct LineCounter {
    lines: Vec<u64>,
    merged: CellFootprint,
}

impl LineCounter {
    /// Distinct lines touched by `accesses`: each item is one lane's
    /// explicit addresses plus, optionally, its cell footprint.
    ///
    /// The footprints, all over one cell array, are ORed and walked once
    /// (the lines of a union of bitmaps are the union of each bitmap's
    /// lines); only explicit addresses need the sort-and-dedup of
    /// individual lines.
    pub(crate) fn count<'l>(
        &mut self,
        line_bytes: u64,
        accesses: impl Iterator<Item = (&'l [DevAddr], Option<&'l CellFootprint>)>,
    ) -> u64 {
        let lines = &mut self.lines;
        let merged = &mut self.merged;
        lines.clear();
        merged.words.clear();
        for (addrs, footprint) in accesses {
            lines.extend(addrs.iter().map(|a| a / line_bytes));
            let Some(fp) = footprint else { continue };
            debug_assert!(fp.stride > 0, "cell footprint with zero stride");
            if merged.words.is_empty() {
                merged.base = fp.base;
                merged.stride = fp.stride;
            }
            debug_assert_eq!(
                (merged.base, merged.stride),
                (fp.base, fp.stride),
                "footprints of one group must share a cell array"
            );
            if merged.words.len() < fp.words.len() {
                merged.words.resize(fp.words.len(), 0);
            }
            for (m, w) in merged.words.iter_mut().zip(&fp.words) {
                *m |= w;
            }
        }
        if lines.is_empty() {
            let mut n = 0;
            merged.for_each_line(line_bytes, |_| n += 1);
            return n;
        }
        merged.for_each_line(line_bytes, |a| lines.push(a / line_bytes));
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }
}

/// The device heap: dynamic allocations from kernel code (`malloc` in a
/// CUDA kernel). Every allocation takes the serialized allocator path;
/// concurrent blocks contend on it — the paper's first performance
/// bottleneck ("frequent dynamic memory allocations").
#[derive(Clone, Debug, Default)]
pub struct DeviceHeap {
    /// Allocation events so far (global, all blocks).
    pub allocations: u64,
    /// Bytes allocated from kernel code.
    pub bytes: u64,
    next: DevAddr,
}

/// Heap allocations land in a dedicated high region so their addresses
/// never coalesce with planned buffers.
const HEAP_BASE: DevAddr = 1 << 40;

impl DeviceHeap {
    /// Creates an empty heap.
    pub fn new() -> DeviceHeap {
        DeviceHeap { allocations: 0, bytes: 0, next: HEAP_BASE }
    }

    /// Allocates from kernel code; returns the buffer and the cycle cost
    /// charged to the calling block, given `resident_blocks` contending
    /// for the allocator lock.
    pub fn malloc(
        &mut self,
        config: &DeviceConfig,
        len: u64,
        resident_blocks: usize,
    ) -> (DeviceBuffer, u64) {
        self.allocations += 1;
        self.bytes += len;
        // Scatter allocations pseudo-randomly (hash of counter) to model a
        // real device heap's fragmentation — consecutive mallocs do not
        // produce adjacent, coalescable chunks.
        let stride = 4096;
        let slot = (self.allocations.wrapping_mul(0x9E3779B97F4A7C15)) % (1 << 20);
        let base = self.next + slot * stride;
        // Contention grows with resident blocks and saturates only at the
        // device's full co-residency: big apps keep more blocks in flight
        // and pay proportionally more per allocation (calibrated; see
        // DESIGN.md §5).
        // Even a single resident block contends with the driver's own
        // allocator bookkeeping, so the factor has a floor as well as a
        // ceiling.
        let cycles = config.malloc_cycles * (resident_blocks.max(1) as u64).clamp(12, 44);
        (DeviceBuffer { base, len }, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::tesla_p40()
    }

    #[test]
    fn alloc_is_aligned_and_monotonic() {
        let mut space = AddressSpace::new(&cfg());
        let a = space.alloc(100);
        let b = space.alloc(100);
        assert_eq!(a.base % 256, 0);
        assert_eq!(b.base % 256, 0);
        assert!(b.base >= a.base + 100);
        assert!(space.used() >= 200);
    }

    #[test]
    #[should_panic(expected = "device OOM")]
    fn alloc_past_capacity_panics() {
        let mut space = AddressSpace::new(&cfg());
        space.alloc(25 * (1 << 30)); // 25 GB on a 24 GB card
    }

    #[test]
    fn buffer_addr_math() {
        let b = DeviceBuffer { base: 0x1000, len: 80 };
        assert_eq!(b.addr(0, 8), 0x1000);
        assert_eq!(b.addr(9, 8), 0x1000 + 72);
    }

    /// Transactions for one group of explicit addresses.
    fn transactions(c: &DeviceConfig, addrs: &[DevAddr]) -> u64 {
        LineCounter::default().count(c.transaction_bytes, std::iter::once((addrs, None)))
    }

    #[test]
    fn coalesced_access_is_one_transaction() {
        let c = cfg();
        // 32 consecutive 4-byte words = 128 bytes = 1 transaction.
        let addrs: Vec<DevAddr> = (0..32).map(|i| 0x2000 + i * 4).collect();
        assert_eq!(transactions(&c, &addrs), 1);
    }

    #[test]
    fn scattered_access_is_many_transactions() {
        let c = cfg();
        let addrs: Vec<DevAddr> = (0..32).map(|i| 0x2000 + i * 4096).collect();
        assert_eq!(transactions(&c, &addrs), 32);
    }

    #[test]
    fn partially_coalesced_access() {
        let c = cfg();
        // Two groups of 16 words in two 128B segments.
        let mut addrs: Vec<DevAddr> = (0..16).map(|i| 0x2000 + i * 4).collect();
        addrs.extend((0..16).map(|i| 0x9000 + i * 4));
        assert_eq!(transactions(&c, &addrs), 2);
        assert_eq!(transactions(&c, &[]), 0);
    }

    #[test]
    fn footprint_walks_first_set_cell_of_each_line() {
        // 48-byte cells: cells 0..=2 start in line 0, 3..=5 in line 1.
        let fp = CellFootprint { base: 0x1000, stride: 48, words: vec![0b10_0110] };
        let mut seen = Vec::new();
        fp.for_each_line(128, |a| seen.push(a));
        assert_eq!(seen, vec![0x1000 + 48, 0x1000 + 5 * 48]);
        // A set bit past the first word still counts.
        let wide = CellFootprint { base: 0, stride: 8, words: vec![0, 0, 1 << 63] };
        let mut seen = Vec::new();
        wide.for_each_line(128, |a| seen.push(a));
        assert_eq!(seen, vec![191 * 8]);
        let mut empty = 0;
        CellFootprint::default().for_each_line(128, |_| empty += 1);
        assert_eq!(empty, 0);
    }

    #[test]
    fn footprints_over_one_array_union_before_counting() {
        let a = CellFootprint { base: 0x2000, stride: 16, words: vec![0b1, 0] };
        let b = CellFootprint { base: 0x2000, stride: 16, words: vec![0b11, 1] };
        let mut counter = LineCounter::default();
        // Cells 0, 1 share line 0; cell 64 is line 8: two lines, not three.
        let both = [(&[][..], Some(&a)), (&[][..], Some(&b))];
        assert_eq!(counter.count(128, both.into_iter()), 2);
        // An explicit address in an already-touched line adds nothing; one
        // in a fresh line adds one.
        let mixed = [(&[0x2000 + 8][..], Some(&a)), (&[0x9000][..], Some(&b))];
        assert_eq!(counter.count(128, mixed.into_iter()), 3);
    }

    #[test]
    fn heap_malloc_charges_contention() {
        let c = cfg();
        let mut heap = DeviceHeap::new();
        let (b1, cost1) = heap.malloc(&c, 64, 1);
        let (b2, cost120) = heap.malloc(&c, 64, 120);
        assert_ne!(b1.base, b2.base);
        assert!(b1.base >= HEAP_BASE);
        // Contention is clamped to [12, 44] contenders.
        assert_eq!(cost1, c.malloc_cycles * 12);
        assert_eq!(cost120, c.malloc_cycles * 44);
        assert_eq!(heap.allocations, 2);
        assert_eq!(heap.bytes, 128);
    }

    #[test]
    fn heap_allocations_do_not_coalesce() {
        let c = cfg();
        let mut heap = DeviceHeap::new();
        let addrs: Vec<DevAddr> = (0..8).map(|_| heap.malloc(&c, 16, 1).0.base).collect();
        assert_eq!(transactions(&c, &addrs), 8, "heap chunks must be scattered");
    }
}
