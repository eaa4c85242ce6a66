//! Multi-GPU GDroid — the paper's first future-work item (§VIII):
//! *"given the amount of Android Apps is large, we consider to map the
//! worklist algorithm onto multi-GPU platforms… this kind of
//! implementation requires sophisticated designs regarding data partitions
//! and communications between GPUs."*
//!
//! Design implemented here:
//!
//! * **Data partition** — within each SBDA layer, methods are distributed
//!   over the devices by greedy longest-processing-time packing on a
//!   static work estimate (CFG nodes × matrix words), one device heap and
//!   address space per GPU;
//! * **Communication** — SBDA summaries are the only cross-method state,
//!   so after each layer the devices all-gather the layer's summaries
//!   over the interconnect (NVLink-class by default) before the next
//!   layer launches;
//! * **Timing** — per layer: `max(device kernel makespans) + all-gather`;
//!   the functional result is identical to the single-GPU run (asserted
//!   in tests).

use crate::kernel::run_method_block;
use crate::layout::plan_layout;
use crate::opts::OptConfig;
use gdroid_analysis::{
    derive_summary, merge_site_summaries, FactStore, Geometry, MatrixStore, MethodSpace,
    SummaryMap, WorklistTelemetry,
};
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_icfg::{CallGraph, CallLayers, Cfg};
use gdroid_ir::{MethodId, Program};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Multi-GPU platform description.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MultiGpuConfig {
    /// Number of GPUs.
    pub devices: usize,
    /// Per-device architecture.
    pub device: DeviceConfig,
    /// Device↔device interconnect bandwidth in GB/s (NVLink 2.0 ≈ 25 GB/s
    /// per direction per link; PCIe switch ≈ 12 GB/s).
    pub interconnect_gbps: f64,
    /// Per-message interconnect latency in microseconds.
    pub interconnect_latency_us: f64,
}

impl MultiGpuConfig {
    /// `n` TESLA P40s on an NVLink-class interconnect.
    pub fn nvlink(n: usize) -> MultiGpuConfig {
        MultiGpuConfig {
            devices: n.max(1),
            device: DeviceConfig::tesla_p40(),
            interconnect_gbps: 25.0,
            interconnect_latency_us: 10.0,
        }
    }

    /// `n` TESLA P40s behind a PCIe switch.
    pub fn pcie(n: usize) -> MultiGpuConfig {
        MultiGpuConfig { interconnect_gbps: 12.0, ..MultiGpuConfig::nvlink(n) }
    }
}

/// Timing result of a multi-GPU run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MultiGpuStats {
    /// Devices used.
    pub devices: usize,
    /// Total simulated time (kernel + exchange), ns.
    pub total_ns: f64,
    /// Kernel time summed over layers (max across devices per layer), ns.
    pub kernel_ns: f64,
    /// Summary all-gather time, ns.
    pub exchange_ns: f64,
    /// Methods assigned per device.
    pub methods_per_device: Vec<usize>,
    /// Mean per-layer load balance: `mean(device work) / max(device work)`
    /// in `[0, 1]`; 1.0 = perfectly balanced.
    pub balance: f64,
}

/// An invalid [`MultiGpuConfig`]: the run cannot start, so no partition
/// or launch is attempted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiGpuError {
    /// `config.devices == 0` — there is no device to partition work onto.
    NoDevices,
}

impl std::fmt::Display for MultiGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiGpuError::NoDevices => {
                write!(f, "multi-GPU config has zero devices; need at least one")
            }
        }
    }
}

impl std::error::Error for MultiGpuError {}

/// Result of a multi-GPU analysis.
pub struct MultiGpuAnalysis {
    /// Final summaries (identical to the single-GPU run).
    pub summaries: SummaryMap,
    /// Per-method facts.
    pub facts: HashMap<MethodId, MatrixStore>,
    /// Aggregated telemetry.
    pub telemetry: WorklistTelemetry,
    /// Timing.
    pub stats: MultiGpuStats,
}

/// Serialized size of a summary for the all-gather model.
fn summary_bytes(s: &gdroid_analysis::MethodSummary) -> u64 {
    // token ≈ 4 B; tuples of 2–3 tokens.
    (s.returns.len() * 4
        + s.field_writes.len() * 12
        + s.static_writes.len() * 8
        + s.array_writes.len() * 8
        + 16) as u64
}

/// Analyzes one app across multiple simulated GPUs.
///
/// Fails with [`MultiGpuError::NoDevices`] when the config names zero
/// devices — validated up front, before any partitioning, rather than
/// panicking mid-partition on an empty load vector.
pub fn gpu_analyze_app_multi(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    config: MultiGpuConfig,
    opts: OptConfig,
) -> Result<MultiGpuAnalysis, MultiGpuError> {
    if config.devices == 0 {
        return Err(MultiGpuError::NoDevices);
    }
    let layers = CallLayers::compute(cg, roots);
    let methods: Vec<MethodId> = {
        let mut m: Vec<MethodId> = layers.scc_of.keys().copied().collect();
        m.sort_unstable();
        m
    };
    let mut spaces: HashMap<MethodId, MethodSpace> = HashMap::new();
    let mut cfgs: HashMap<MethodId, Cfg> = HashMap::new();
    for &mid in &methods {
        spaces.insert(mid, MethodSpace::build(program, mid));
        cfgs.insert(mid, Cfg::build(&program.methods[mid]));
    }

    // One simulated device (heap + address space + layout) per GPU.
    let mut devices: Vec<Device> =
        (0..config.devices).map(|_| Device::new(config.device)).collect();
    let layouts: Vec<_> = devices
        .iter_mut()
        .map(|d| plan_layout(program, d, &spaces, &cfgs, &methods, opts))
        .collect();

    let mut summaries: SummaryMap = HashMap::new();
    let mut facts: HashMap<MethodId, MatrixStore> = HashMap::new();
    let mut telemetry = WorklistTelemetry::default();
    let mut stats = MultiGpuStats {
        devices: config.devices,
        methods_per_device: vec![0; config.devices],
        ..Default::default()
    };
    let mut balance_acc = 0.0;
    let mut balance_samples = 0usize;

    for layer_idx in 0..layers.layer_count() {
        let mut pending: Vec<MethodId> = layers.sccs_in(layer_idx).flatten().copied().collect();
        pending.sort_unstable();

        while !pending.is_empty() {
            // --- partition: greedy LPT on static work estimates ----------
            let mut est: Vec<(MethodId, u64)> = pending
                .iter()
                .map(|&m| {
                    let g = Geometry::of(&spaces[&m]);
                    (m, (cfgs[&m].len() * g.words().max(1)) as u64)
                })
                .collect();
            est.sort_by_key(|&(m, w)| (std::cmp::Reverse(w), m));
            let mut assignment: Vec<Vec<MethodId>> = vec![Vec::new(); config.devices];
            let mut loads = vec![0u64; config.devices];
            for (m, w) in est {
                let dev = (0..config.devices)
                    .min_by_key(|&d| loads[d])
                    .expect("devices > 0 validated at entry");
                assignment[dev].push(m);
                loads[dev] += w;
                stats.methods_per_device[dev] += 1;
            }

            // --- per-device launches --------------------------------------
            let mut layer_kernel_ns: f64 = 0.0;
            let mut device_work: Vec<f64> = Vec::with_capacity(config.devices);
            let mut changed_methods: Vec<MethodId> = Vec::new();
            for (dev_idx, group) in assignment.iter().enumerate() {
                if group.is_empty() {
                    device_work.push(0.0);
                    continue;
                }
                let inputs: Vec<(MethodId, HashMap<gdroid_ir::StmtIdx, _>)> = group
                    .iter()
                    .map(|&mid| (mid, merge_site_summaries(program, mid, &summaries, cg)))
                    .collect();
                let results = std::cell::RefCell::new(Vec::new());
                let blocks: Vec<gdroid_gpusim::BlockFn<'_>> = inputs
                    .iter()
                    .map(|(mid, site)| {
                        let mid = *mid;
                        let space = &spaces[&mid];
                        let cfg = &cfgs[&mid];
                        let ml = &layouts[dev_idx].methods[&mid];
                        let results = &results;
                        Box::new(move |ctx: &mut gdroid_gpusim::BlockCtx<'_>| {
                            let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                            store.seed(
                                cfg.entry() as usize,
                                &space.entry_facts(&program.methods[mid]),
                            );
                            let tele = run_method_block(
                                ctx,
                                &program.methods[mid],
                                space,
                                cfg,
                                ml,
                                site,
                                opts,
                                &mut store,
                            );
                            results.borrow_mut().push((mid, store, tele));
                        }) as _
                    })
                    .collect();
                let kstats = devices[dev_idx].launch(blocks);
                let t = kstats.time_ns(&config.device);
                device_work.push(t);
                layer_kernel_ns = layer_kernel_ns.max(t);

                for (mid, store, tele) in results.into_inner() {
                    telemetry.absorb(&tele);
                    let space = &spaces[&mid];
                    let cfg = &cfgs[&mid];
                    let store_ref = &store;
                    let node_facts = |n: usize| store_ref.snapshot(n);
                    let summary = derive_summary(
                        &program.methods[mid],
                        space,
                        &node_facts,
                        cfg.exit() as usize,
                    );
                    if summaries.get(&mid) != Some(&summary) {
                        changed_methods.push(mid);
                    }
                    summaries.insert(mid, summary);
                    facts.insert(mid, store);
                }
            }
            stats.kernel_ns += layer_kernel_ns;

            // Load balance sample.
            let max_w = device_work.iter().copied().fold(0.0f64, f64::max);
            if max_w > 0.0 {
                let mean_w: f64 = device_work.iter().sum::<f64>() / config.devices as f64;
                balance_acc += mean_w / max_w;
                balance_samples += 1;
            }

            // --- summary all-gather between layers ------------------------
            if config.devices > 1 {
                let bytes: u64 =
                    pending.iter().filter_map(|m| summaries.get(m)).map(summary_bytes).sum();
                let gather_ns = config.interconnect_latency_us * 1e3
                    + (bytes * (config.devices as u64 - 1)) as f64 / config.interconnect_gbps;
                stats.exchange_ns += gather_ns;
            }

            // SCC re-iteration, as in the single-GPU driver.
            pending = layers
                .sccs_in(layer_idx)
                .filter(|scc| {
                    (scc.len() > 1 || layers.is_recursive(scc[0], cg))
                        && scc.iter().any(|m| changed_methods.contains(m))
                })
                .flatten()
                .copied()
                .collect();
            pending.sort_unstable();
            pending.dedup();
        }
    }

    stats.total_ns = stats.kernel_ns + stats.exchange_ns;
    stats.balance = if balance_samples == 0 { 1.0 } else { balance_acc / balance_samples as f64 };
    Ok(MultiGpuAnalysis { summaries, facts, telemetry, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::gpu_analyze_app;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    fn prepared(seed: u64) -> (gdroid_apk::App, CallGraph, Vec<MethodId>) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        (app, cg, roots)
    }

    #[test]
    fn multi_gpu_matches_single_gpu_facts() {
        let (app, cg, roots) = prepared(8801);
        let single = gpu_analyze_app(
            &app.program,
            &cg,
            &roots,
            DeviceConfig::tesla_p40(),
            OptConfig::gdroid(),
        );
        let multi = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::nvlink(4),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        assert_eq!(single.summaries, multi.summaries);
        for (mid, s) in &single.facts {
            let m = &multi.facts[mid];
            for node in 0..s.node_count() {
                assert_eq!(s.snapshot(node).words(), m.snapshot(node).words());
            }
        }
    }

    #[test]
    fn one_device_equals_single_gpu_shape() {
        let (app, cg, roots) = prepared(8802);
        let multi = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::nvlink(1),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        assert_eq!(multi.stats.devices, 1);
        assert_eq!(multi.stats.exchange_ns, 0.0, "no interconnect traffic with one GPU");
        assert!(multi.stats.total_ns > 0.0);
    }

    #[test]
    fn more_devices_reduce_kernel_time_but_add_exchange() {
        let (app, cg, roots) = prepared(8803);
        let one = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::nvlink(1),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        let four = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::nvlink(4),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        assert!(four.stats.kernel_ns <= one.stats.kernel_ns * 1.01);
        assert!(four.stats.exchange_ns > 0.0);
        assert_eq!(four.stats.methods_per_device.len(), 4);
        let assigned: usize = four.stats.methods_per_device.iter().sum();
        assert!(assigned >= one.stats.methods_per_device[0]);
    }

    #[test]
    fn pcie_exchange_is_slower_than_nvlink() {
        let (app, cg, roots) = prepared(8804);
        let nv = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::nvlink(4),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        let pcie = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::pcie(4),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        assert!(pcie.stats.exchange_ns >= nv.stats.exchange_ns);
    }

    #[test]
    fn zero_devices_is_an_error_not_a_panic() {
        let (app, cg, roots) = prepared(8806);
        let cfg = MultiGpuConfig { devices: 0, ..MultiGpuConfig::nvlink(1) };
        let err = gpu_analyze_app_multi(&app.program, &cg, &roots, cfg, OptConfig::gdroid());
        assert_eq!(err.err(), Some(MultiGpuError::NoDevices));
    }

    #[test]
    fn balance_is_sane() {
        let (app, cg, roots) = prepared(8805);
        let multi = gpu_analyze_app_multi(
            &app.program,
            &cg,
            &roots,
            MultiGpuConfig::nvlink(2),
            OptConfig::gdroid(),
        )
        .expect("valid multi-GPU config");
        assert!((0.0..=1.0).contains(&multi.stats.balance));
    }
}
