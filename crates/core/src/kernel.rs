//! The GDroid worklist kernels — Alg. 2 (plain) and Alg. 3 (optimized) in
//! one warp-centric block program.
//!
//! One thread block processes one method's worklist (the two-level
//! parallelization of §III-A2: methods → blocks, worklist nodes → lanes).
//! The functional computation is *always* the shared transfer function
//! over a bitmap store, so every configuration converges to the identical
//! IDFG; the optimization flags change
//!
//! * what the lanes' **branch partitions** are (25 statement/expression
//!   partitions plain vs 3 access-pattern groups under GRP),
//! * what **addresses** the lanes touch (streamed bitmaps under MAT vs
//!   heap-scattered, growing set chunks without it),
//! * whether the per-round worklist is **group-sorted** (GRP) and
//! * whether only the **head warp** is processed with the tail postponed
//!   and merged (MER).

use crate::layout::MethodLayout;
use crate::opts::OptConfig;
use gdroid_analysis::{
    CallResolution, FactStore, MatrixStore, MethodSpace, MethodSummary, NodeFacts, TransferCtx,
    TransferEffort, WorklistTelemetry,
};
use gdroid_gpusim::{AccessOrder, BlockCtx, CellFootprint, LaneWork};
use gdroid_icfg::Cfg;
use gdroid_ir::{Method, StmtIdx};
use std::collections::HashMap;

/// Branch partition of a node in the plain kernel: statement partitions
/// 0..25, entry/exit nodes take partition 25 (the identity path).
fn plain_partition(method: &Method, cfg: &Cfg, node: u32) -> u32 {
    match cfg.stmt_of(node) {
        Some(s) => method.body[s].plain_partition() as u32,
        None => gdroid_ir::stmt::PLAIN_PARTITIONS as u32,
    }
}

/// Branch partition under GRP: the three access-pattern groups; entry/exit
/// join the one-time-generation group.
fn grp_partition(method: &Method, cfg: &Cfg, node: u32) -> u32 {
    match cfg.stmt_of(node) {
        Some(s) => method.body[s].access_pattern() as u32,
        None => 0,
    }
}

/// Device-side state of one node's *set-based* fact storage (plain
/// layout): a growing chunk on the device heap.
#[derive(Clone, Copy, Debug, Default)]
struct SetState {
    /// Capacity in entries (8 bytes each); 0 = not yet allocated.
    cap: u64,
    /// Chunk base address (heap-scattered).
    base: u64,
}

/// Runs one method's worklist to its fixed point inside one thread block.
///
/// `store` is the functional fact state (entry facts must already be
/// seeded); `site_summaries` come from
/// [`gdroid_analysis::merge_site_summaries`]. Returns the same telemetry
/// the CPU solver produces, with round sizes reflecting the GPU worklist
/// regime (head-list-only under MER).
#[allow(clippy::too_many_arguments)]
pub fn run_method_block(
    ctx: &mut BlockCtx<'_>,
    method: &Method,
    space: &MethodSpace,
    cfg: &Cfg,
    layout: &MethodLayout,
    site_summaries: &HashMap<StmtIdx, Option<MethodSummary>>,
    opts: OptConfig,
    store: &mut MatrixStore,
) -> WorklistTelemetry {
    let warp = ctx.config().warp_size;
    let geometry = store.geometry();
    let insts = geometry.insts.max(1) as u64;
    // One statement-bitmask cell per (slot, instance).
    let cell_bytes = (method.len().div_ceil(8) as u64).max(1);
    let mut telemetry =
        WorklistTelemetry { words_per_node: geometry.words(), ..Default::default() };

    let resolve = |idx: StmtIdx| match site_summaries.get(&idx) {
        Some(Some(s)) => CallResolution::Summary(s),
        _ => CallResolution::External,
    };
    let tctx = TransferCtx { method, space, resolve_call: &resolve };

    // Device-side set chunks (plain layout only).
    let mut set_states: Vec<SetState> = vec![SetState::default(); cfg.len()];
    if !opts.mat {
        // Alg. 2 line 1: the initial per-node set chunks are allocated by
        // the kernel (entry facts land in node 0's chunk).
        let entry_len = store.fact_count(cfg.entry() as usize) as u64;
        if entry_len > 0 {
            let cap = entry_len.next_power_of_two().max(16);
            let buf = ctx.malloc(cap * 8);
            set_states[cfg.entry() as usize] = SetState { cap, base: buf.base };
        }
    }

    let mut current: Vec<u32> = vec![cfg.entry()];
    // Alg. 1's termination is "all nodes visited AND facts stable": a
    // successor is enqueued on its first visit even when no facts changed
    // (see the CPU solver for the rationale).
    let mut visited = vec![false; cfg.len()];
    visited[cfg.entry() as usize] = true;
    let mut in_next = vec![false; cfg.len()];
    // Footprint bitmaps handed back after each warp, reused by later lanes.
    let mut pool: Vec<Vec<u64>> = Vec::new();

    while !current.is_empty() {
        telemetry.rounds += 1;
        telemetry.round_sizes.push(current.len() as u32);
        telemetry.max_worklist = telemetry.max_worklist.max(current.len());

        // GRP: partial sort of the worklist by group (Alg. 3 line 7).
        if opts.grp {
            ctx.shared_sort(current.len());
            current.sort_by_key(|&n| (grp_partition(method, cfg, n), layout.store_pos[n as usize]));
        }

        // MER: only the head list (one warp) is processed; the tail is
        // postponed and merged with the destinations (Alg. 3 line 8).
        let head_len = if opts.mer { current.len().min(warp) } else { current.len() };
        let (head, tail) = current.split_at(head_len);

        // Jacobi semantics: all lanes of the round run concurrently on the
        // device, so every transfer reads the fact state as of round start;
        // updates only become visible to the *next* round. (The CPU solver
        // is naturally Gauss–Seidel; both reach the same unique fixed
        // point, but the GPU needs more processings — the redundancy MER
        // then removes by postponing the tail.) Under MAT the round-start
        // in-facts also fix the lane's read footprint, so it is taken here.
        let mut round_outs: Vec<RoundOut> = head
            .iter()
            .map(|&node| {
                let input = store.node(node as usize);
                let (out, effort) = match cfg.stmt_of(node) {
                    Some(stmt_idx) => tctx.transfer(stmt_idx, input),
                    None => (input.clone(), Default::default()),
                };
                let reads = opts.mat.then(|| {
                    mat_reads(pool.pop().unwrap_or_default(), input, &out, cfg.succ(node).len())
                });
                RoundOut { node, out, effort, reads }
            })
            .collect();

        let mut dests: Vec<u32> = Vec::new();
        for chunk in round_outs.chunks_mut(warp) {
            let mut lanes: Vec<LaneWork> = Vec::with_capacity(chunk.len());
            for RoundOut { node, out, effort, reads } in chunk.iter_mut() {
                let (node, effort) = (*node, *effort);
                telemetry.nodes_processed += 1;
                telemetry.word_ops += geometry.words();
                telemetry.rows_read += effort.rows_read;
                telemetry.facts_written += effort.facts_written;

                let partition = if opts.grp {
                    grp_partition(method, cfg, node)
                } else {
                    plain_partition(method, cfg, node)
                };
                // The grouped (GRP) kernel handles many statement kinds in
                // one data-driven path, which costs a few extra lookups
                // per lane compared with the specialized 25-way branches.
                let grp_overhead = if opts.grp { 14 } else { 0 };
                let mut lane = LaneWork {
                    partition,
                    compute_cycles: 18
                        + grp_overhead
                        + 3 * effort.rows_read as u64
                        + 2 * effort.facts_written as u64,
                    deref_layers: effort.deref_layers as u32,
                    // Fact traffic is atomic on real hardware (bitmap ORs
                    // under MAT, CAS-based set inserts without it), so the
                    // Jacobi same-round overlaps are not races.
                    order: AccessOrder::Atomic,
                    ..Default::default()
                };

                // Read cost of this node's own facts. Under MAT the
                // method's matrix stores one statement-bitmask cell per
                // (slot, instance); a node's in-facts are the cells whose
                // bit `node` is set, so the traffic is proportional to the
                // facts present, not to the matrix size — the paper's
                // fixed-size "entry looking-up" (§IV-A). Each propagation
                // then bit-tests the out-fact cells; both are read as one
                // footprint over the matrix. Without MAT the whole set
                // chunk is scanned.
                if let Some(MatReads { cells, facts }) = reads.take() {
                    lane.bytes_read += facts * cell_bytes;
                    lane.read_cells = Some(CellFootprint {
                        base: layout.facts.base,
                        stride: cell_bytes,
                        words: cells,
                    });
                } else {
                    let s = set_states[node as usize];
                    lane.bytes_read += stream_addrs(&mut lane.reads, s.base, s.cap * 8);
                }

                // Propagate to successors.
                for &succ in cfg.succ(node) {
                    telemetry.unions += 1;
                    telemetry.word_ops += geometry.words();
                    let outcome = store.union_into(succ as usize, out);
                    telemetry.facts_inserted += outcome.inserted;

                    if opts.mat {
                        // Each propagated fact ORs the successor's bit into
                        // its cell (the bit-test reads are in the lane's
                        // footprint). One write per inserted fact, charged
                        // at the first `inserted` cells of the out-set.
                        let mut written = 0u64;
                        for fact in out.iter().take(outcome.inserted) {
                            lane.writes.push(cell_addr(layout, fact, insts, cell_bytes));
                            written += cell_bytes;
                        }
                        lane.bytes_written += written;
                    } else {
                        // Set semantics: probe + insert each new fact at a
                        // hash-scattered position; grow the chunk when
                        // capacity is exceeded (dynamic allocation — the
                        // paper's first bottleneck).
                        let state = &mut set_states[succ as usize];
                        let new_len = store.fact_count(succ as usize) as u64;
                        while state.cap < new_len {
                            let new_cap = (state.cap * 2).max(16);
                            lane.mallocs.push(new_cap * 8);
                            telemetry.reallocations += 1;
                            // Rehash: stream the old chunk out and in.
                            lane.bytes_read +=
                                stream_addrs(&mut lane.reads, state.base, state.cap * 8);
                            state.cap = new_cap;
                            // New chunk address is modeled per malloc by
                            // the heap; approximate its traffic location
                            // with a fresh pseudo-address derived from
                            // cap so chunks never coalesce.
                            state.base =
                                0x8000_0000_0000u64 + (succ as u64 * 131 + state.cap) * 4096;
                            // Tell the sanitizer the kernel manages this
                            // fabricated chunk range (zero-cost when off) —
                            // per doubling, since the next doubling rehashes
                            // out of this very chunk.
                            ctx.san_note_region(state.base, state.cap * 8);
                        }
                        for k in 0..outcome.inserted as u64 {
                            // Hash-scattered probe positions.
                            let slot = (k * 0x9E37_79B9) % state.cap.max(16);
                            lane.reads.push(state.base + slot * 8);
                            lane.writes.push(state.base + slot * 8);
                        }
                    }

                    let first_visit = !visited[succ as usize];
                    if outcome.changed || first_visit {
                        visited[succ as usize] = true;
                        // The plain kernel (Alg. 2 line 17) inserts the
                        // destination without a membership test — shared-
                        // memory deduplication costs a sort, so the next
                        // worklist carries repetitions. Only MER's merge
                        // step removes them (Fig. 7's N33).
                        if opts.mer {
                            if !in_next[succ as usize] {
                                in_next[succ as usize] = true;
                                dests.push(succ);
                            }
                        } else {
                            dests.push(succ);
                        }
                    }
                }
                lanes.push(lane);
            }
            ctx.warp_process(&lanes);
            pool.extend(lanes.into_iter().filter_map(|l| l.read_cells).map(|c| c.words));
        }
        ctx.sync();

        // Form the next worklist (Alg. 2 line 19 / Alg. 3 line 15).
        let mut next: Vec<u32> = dests;
        if opts.mer && !tail.is_empty() {
            // Merge the postponed tail, removing repetitions.
            for &n in tail {
                if !in_next[n as usize] {
                    in_next[n as usize] = true;
                    next.push(n);
                }
            }
            ctx.compute(8 * tail.len() as u64); // merge bookkeeping
        }
        // Worklist write-back (shared-memory traffic; consecutive u32
        // slots are conflict-free, so the cost is linear in the list).
        ctx.compute(4 * next.len() as u64);
        current = next;
        for &n in &current {
            in_next[n as usize] = false;
        }
    }

    telemetry
}

/// Cell address of one fact in a method's matrix (cell-major layout).
#[inline]
fn cell_addr(
    layout: &MethodLayout,
    fact: gdroid_analysis::Fact,
    insts: u64,
    cell_bytes: u64,
) -> u64 {
    layout.facts.base + (u64::from(fact.slot) * insts + u64::from(fact.instance)) * cell_bytes
}

/// One head node's round-start transfer result.
struct RoundOut {
    node: u32,
    out: NodeFacts,
    effort: TransferEffort,
    /// The MAT read footprint (`None` for the set-store kernel).
    reads: Option<MatReads>,
}

/// A MAT lane's reads: its in-fact cells, plus its out-fact cells when it
/// propagates to at least one successor.
struct MatReads {
    /// Cell bitmap read (bit = cell index = fact bit).
    cells: Vec<u64>,
    /// Cells read counting repeats: in-facts once, out-facts once per
    /// successor.
    facts: u64,
}

fn mat_reads(
    mut cells: Vec<u64>,
    input: &NodeFacts,
    out: &NodeFacts,
    successors: usize,
) -> MatReads {
    let succ = successors as u64;
    let mut facts = 0u64;
    cells.clear();
    cells.extend(input.words().iter().zip(out.words()).map(|(&i, &o)| {
        facts += u64::from(i.count_ones()) + succ * u64::from(o.count_ones());
        if succ > 0 {
            i | o
        } else {
            i
        }
    }));
    MatReads { cells, facts }
}

/// Appends one address per 128-byte line of a `[base, base+len)` stream;
/// returns the useful bytes streamed.
fn stream_addrs(out: &mut Vec<u64>, base: u64, len: u64) -> u64 {
    let mut off = 0;
    while off < len {
        out.push(base + off);
        off += 128;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::plan_layout;
    use gdroid_analysis::{merge_site_summaries, Geometry, MethodSpace, SummaryMap};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::{Device, DeviceConfig};
    use gdroid_icfg::prepare_app;
    use gdroid_ir::MethodId;

    struct Bench {
        app: gdroid_apk::App,
        cg: gdroid_icfg::CallGraph,
        methods: Vec<MethodId>,
        spaces: HashMap<MethodId, MethodSpace>,
        cfgs: HashMap<MethodId, Cfg>,
    }

    fn bench(seed: u64) -> Bench {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let methods = cg.reachable_from(&roots);
        let spaces: HashMap<_, _> =
            methods.iter().map(|&m| (m, MethodSpace::build(&app.program, m))).collect();
        let cfgs: HashMap<_, _> =
            methods.iter().map(|&m| (m, Cfg::build(&app.program.methods[m]))).collect();
        Bench { app, cg, methods, spaces, cfgs }
    }

    fn run_one(b: &Bench, mid: MethodId, opts: OptConfig) -> (MatrixStore, WorklistTelemetry) {
        let mut device = Device::new(DeviceConfig::tiny());
        let layout = plan_layout(&b.app.program, &mut device, &b.spaces, &b.cfgs, &b.methods, opts);
        let space = &b.spaces[&mid];
        let cfg = &b.cfgs[&mid];
        let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
        store.seed(cfg.entry() as usize, &space.entry_facts(&b.app.program.methods[mid]));
        let summaries = SummaryMap::new();
        let site = merge_site_summaries(&b.app.program, mid, &summaries, &b.cg);
        let mut telemetry = WorklistTelemetry::default();
        let stats = device.launch(vec![|ctx: &mut BlockCtx<'_>| {
            telemetry = run_method_block(
                ctx,
                &b.app.program.methods[mid],
                space,
                cfg,
                &layout.methods[&mid],
                &site,
                opts,
                &mut store,
            );
        }]);
        assert!(stats.makespan_cycles > 0);
        (store, telemetry)
    }

    #[test]
    fn all_configs_reach_same_fixed_point() {
        let b = bench(9001);
        let mid = b.methods[b.methods.len() / 2];
        let results: Vec<MatrixStore> =
            OptConfig::ladder().iter().map(|&o| run_one(&b, mid, o).0).collect();
        for pair in results.windows(2) {
            for node in 0..pair[0].node_count() {
                assert_eq!(
                    pair[0].snapshot(node).words(),
                    pair[1].snapshot(node).words(),
                    "configs disagree at node {node}"
                );
            }
        }
    }

    #[test]
    fn gpu_kernel_matches_cpu_solver() {
        let b = bench(9002);
        for &mid in b.methods.iter().take(6) {
            let (gpu_store, _) = run_one(&b, mid, OptConfig::gdroid());
            // CPU reference.
            let space = &b.spaces[&mid];
            let cfg = &b.cfgs[&mid];
            let mut cpu_store = MatrixStore::new(Geometry::of(space), cfg.len());
            let summaries = SummaryMap::new();
            let tele = gdroid_analysis::solve_method(
                &b.app.program,
                mid,
                space,
                cfg,
                &mut cpu_store,
                &summaries,
                &b.cg,
            );
            assert!(tele.nodes_processed > 0);
            for node in 0..cfg.len() {
                assert_eq!(
                    gpu_store.snapshot(node).words(),
                    cpu_store.snapshot(node).words(),
                    "GPU differs from CPU at {mid:?} node {node}"
                );
            }
        }
    }

    #[test]
    fn mer_bounds_head_to_one_warp() {
        let b = bench(9003);
        // Find a method with a worklist round over 32 nodes, if any; at
        // minimum verify the MER telemetry never exceeds plain rounds'
        // sizes and rounds count differs when tails exist.
        let mid = *b.methods.iter().max_by_key(|m| b.cfgs[m].len()).unwrap();
        let (_, plain_tele) = run_one(&b, mid, OptConfig::mat_grp());
        let (_, mer_tele) = run_one(&b, mid, OptConfig::gdroid());
        assert!(plain_tele.rounds > 0 && mer_tele.rounds > 0);
        // Under MER, each round processes at most one warp.
        assert!(mer_tele.nodes_processed <= mer_tele.rounds * 32);
    }

    #[test]
    fn plain_kernel_allocates_mat_does_not() {
        let b = bench(9004);
        // Methods with no reference traffic never grow their sets; at
        // least one method in the app must, and MAT must never.
        let mut any_realloc = false;
        for &mid in &b.methods {
            let (_, plain) = run_one(&b, mid, OptConfig::plain());
            let (_, mat) = run_one(&b, mid, OptConfig::mat());
            any_realloc |= plain.reallocations > 0;
            assert_eq!(mat.reallocations, 0);
        }
        assert!(any_realloc, "plain kernel never grew a set");
    }
}
