#![warn(missing_docs)]

//! # gdroid-vetting — app vetting on top of the IDFG
//!
//! The paper's motivating application: fast Android app security vetting.
//! This crate adds the Amandroid-style plugin layer over the IDFG the
//! other crates construct:
//!
//! * [`registry`] — taint roles of the modeled Android API surface;
//! * [`taint`] — instance-labeling taint propagation over the node-wise
//!   points-to facts, intra- and inter-procedural;
//! * [`report`] — leak reports and verdicts;
//! * [`pipeline`] — the end-to-end vetting run (environment → call graph →
//!   IDFG → taint) with the per-stage timing behind Fig. 1, runnable
//!   against any engine: sequential Amandroid-style CPU, the
//!   multithreaded-C baseline, or the simulated GPU with any optimization
//!   ladder rung;
//! * [`plan`] — one [`Plan`] (engine, optimization rung, exec mode,
//!   targeted) and one [`run`] entry point that executes it through the
//!   [`gdroid_core::AnalysisEngine`] trait, optionally backed by a
//!   summary store and traced, with byte-identical reports across plans;
//! * [`store_exec`] — the same pipeline backed by a cross-app
//!   [`gdroid_sumstore::SumStore`]: store-hit library methods are
//!   pre-solved and never scheduled;
//! * [`targeted`] — demand-driven vetting: a backward slice from the sink
//!   statements restricts the GPU worklist to the methods that can
//!   influence a sink verdict, with byte-identical reports;
//! * [`plugins`] — further IDFG-reuse plugins in the Amandroid style:
//!   intent exposure, hardcoded payloads, permission audit;
//! * [`assess`] — the composite, reviewer-auditable risk assessment
//!   aggregating every plugin into one scored verdict.

pub mod assess;
pub mod json;
pub mod pipeline;
pub mod plan;
pub mod plugins;
pub mod registry;
pub mod report;
pub mod store_exec;
pub mod taint;
pub mod targeted;

pub use assess::{assess_app, Assessment, RiskBand, Signal};
pub use pipeline::{
    execute_vetting, execute_vetting_batch_on_device, execute_vetting_full,
    execute_vetting_incremental, prepare_vetting, trace_stage_spans, vet_app, Engine, PreparedApp,
    VettingOutcome, VettingRun, VettingTiming,
};
pub use plan::{run, Plan, PlanError};
pub use plugins::{
    hardcoded_payloads, intent_exposure, permission_audit, ExposureFinding, HardcodedFinding,
    PermissionAudit,
};
pub use registry::{SourceId, SourceSinkRegistry};
pub use report::{Leak, Verdict, VettingReport};
pub use store_exec::{
    execute_vetting_full_with_store, execute_vetting_on_device_with_store, StoreUse,
};
pub use taint::{TaintAnalysis, TaintStats};
pub use targeted::{compute_vetting_slice, sink_reachability_findings, TargetedProvenance};
