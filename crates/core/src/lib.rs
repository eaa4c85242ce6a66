#![warn(missing_docs)]

//! # gdroid-core — GDroid: GPU worklist kernels for IDFG construction
//!
//! The paper's primary contribution, on top of the `gdroid-gpusim`
//! simulator:
//!
//! * [`opts`] — the optimization ladder: plain (Alg. 2) → MAT → MAT+GRP →
//!   full GDroid (Alg. 3);
//! * [`layout`] — device buffer planning (`d_icfg`/`d_stmt`/`d_fact_*`),
//!   group-major node storage under GRP;
//! * [`kernel`] — the warp-centric block program: one method per thread
//!   block, one worklist node per lane, with branch partitions, memory
//!   address generation, and set growth modeled per configuration;
//! * [`driver`] — layered kernel launches with dual-buffered transfers and
//!   host-side summary derivation;
//! * [`stats`] — the measured quantities behind Figs. 4 and 8–12 and
//!   Table II;
//! * [`multigpu`] — the paper's future-work extension (§VIII): layer-wise
//!   method partitioning over multiple simulated GPUs with summary
//!   all-gather between layers.
//!
//! Every configuration computes the *identical* IDFG (cross-checked
//! against the CPU reference in tests); the flags only change simulated
//! cost and schedule.

pub mod autotune;
pub mod batch;
pub mod driver;
pub mod engine;
pub mod kernel;
pub mod layout;
pub mod multigpu;
pub mod opts;
pub mod stats;

pub use autotune::{tune_blocks_per_sm, TuneResult};
pub use batch::{gpu_analyze_batch, gpu_analyze_batch_on, BatchAnalysis, BatchApp, BatchStats};
pub use engine::{
    AnalysisEngine, CpuEngine, EngineAnalysis, EngineCaps, EngineKind, ExecMode, WorklistEngine,
};

pub use driver::{
    gpu_analyze_app, gpu_analyze_app_exec_on, gpu_analyze_app_on, gpu_analyze_app_sliced_on,
    GpuAnalysis,
};
pub use kernel::run_method_block;
pub use layout::{plan_layout, AppLayout, MethodLayout};
pub use multigpu::{
    gpu_analyze_app_multi, MultiGpuAnalysis, MultiGpuConfig, MultiGpuError, MultiGpuStats,
};
pub use opts::OptConfig;
pub use stats::{GpuRunStats, WorklistProfile};
