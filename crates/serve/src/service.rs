//! The in-process vetting service: prep workers, device executors, and
//! the drain protocol.
//!
//! Thread topology (all `std::thread`, no external runtime):
//!
//! ```text
//! submit() ──► SubmitQueue (bounded, 3 priority classes)
//!                 │  K prep workers: load → hash → cache lookup →
//!                 │  env/callgraph synthesis → work estimate
//!                 ▼
//!              DispatchHeap (bounded — double-buffers prep vs execution)
//!                 │  D executors: LPT pop → device lease → run
//!                 │  (fault/timeout → retry, then quarantine)
//!                 ▼
//!              results + ResultCache + ServiceMetrics
//! ```
//!
//! Every admitted job yields exactly one [`JobResult`]; [`VettingService::drain`]
//! closes the queue, joins every thread, and returns the results with a
//! machine-readable [`ServiceReport`].

use crate::cache::{
    app_content_hash, changed_methods, interner_fingerprint, method_hashes, ResultCache,
};
use crate::job::{CacheDisposition, JobResult, JobSource, JobSpec, JobStatus, Priority};
use crate::metrics::{Counters, ServiceMetrics, ServiceReport};
use crate::pool::DevicePool;
use crate::queue::{SubmitError, SubmitQueue};
use crate::scheduler::{block_demand, work_estimate, DispatchHeap, ReadyJob};
use gdroid_apk::{generate_app, load_bundle, App};
use gdroid_core::{EngineKind, ExecMode};
use gdroid_gpusim::{DeviceConfig, FaultPlan};
use gdroid_sumstore::SumStore;
use gdroid_vetting::{
    execute_vetting_batch_on_device, execute_vetting_incremental, prepare_vetting, Plan,
    PreparedApp, VettingRun,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`VettingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Label naming this service in the report's per-source attribution
    /// (campaign shards pass `shard-<s>` so merged fleet reports keep
    /// per-shard hit counts even when the caches themselves are shared).
    pub label: String,
    /// Host-side prep worker threads (K).
    pub prep_workers: usize,
    /// Simulated devices and executor threads (D).
    pub devices: usize,
    /// Submission queue bound (admission control).
    pub queue_capacity: usize,
    /// Ready-heap bound; `0` means `2 × devices` (one executing plus one
    /// buffered app per device).
    pub dispatch_capacity: usize,
    /// Failed attempts a job may retry before quarantine (it is
    /// quarantined on failure number `max_retries + 1`).
    pub max_retries: u32,
    /// Wall-clock budget per device attempt.
    pub job_timeout_ms: u64,
    /// Optional injected-fault schedule, installed on every device.
    pub fault_plan: Option<FaultPlan>,
    /// Simulated device model.
    pub device_config: DeviceConfig,
    /// Plan every job runs under. Its `targeted` bit is set per job:
    /// [`VettingService::submit_targeted`] slices, every other submission
    /// runs the whole app. A job falls
    /// back where its engine lacks a capability (see
    /// [`EngineKind::caps`]): targeted jobs to the worklist engine (only
    /// the CPU reference cannot slice), persistent execution to
    /// multi-launch. Only [`Plan::cacheable`] jobs use the result cache,
    /// incremental warm starts, and co-resident batches.
    pub plan: Plan,
    /// Optional cross-app summary store shared by every executor. Full
    /// runs pre-solve store-hit methods and feed fresh summaries back;
    /// `None` disables the store entirely.
    pub sumstore: Option<Arc<SumStore>>,
    /// Optional externally shared result cache. Campaign shards hand the
    /// same `Arc` to every shard service so one shard's completed app
    /// serves another's duplicate; `None` gives the service a private
    /// cache (the default, and the previous behavior).
    pub result_cache: Option<Arc<ResultCache>>,
    /// Co-residency degree: an executor that pops a job tops the device
    /// up with up to `coresident - 1` further ready jobs whose combined
    /// block demand fits the device's block slots, and runs the group as
    /// one batched analysis ([`gdroid_core::gpu_analyze_batch_on`]).
    /// `1` (the default) disables batching. Ignored when a summary store
    /// is configured (store pre-solving is a per-app path).
    pub coresident: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            label: "service".to_owned(),
            prep_workers: 2,
            devices: 2,
            queue_capacity: 64,
            dispatch_capacity: 0,
            max_retries: 3,
            job_timeout_ms: 30_000,
            fault_plan: None,
            device_config: DeviceConfig::tesla_p40(),
            plan: Plan::default(),
            sumstore: None,
            result_cache: None,
            coresident: 1,
        }
    }
}

struct ServiceState {
    label: String,
    dispatch: DispatchHeap,
    cache: Arc<ResultCache>,
    metrics: ServiceMetrics,
    pool: DevicePool,
    results: Mutex<Vec<JobResult>>,
    results_cv: std::sync::Condvar,
    max_retries: u32,
    timeout: Duration,
    plan: Plan,
    sumstore: Option<Arc<SumStore>>,
    coresident: usize,
    /// Total block slots of one device (`sm_count × blocks_per_sm`) — the
    /// budget co-resident top-ups must fit into.
    block_slots: u64,
}

impl ServiceState {
    fn deliver(&self, result: JobResult) {
        Counters::bump(&self.metrics.counters.completed);
        self.results
            .lock()
            .expect("results mutex poisoned: a service thread panicked")
            .push(result);
        self.results_cv.notify_all();
    }
}

/// The running service. Submit jobs, then [`VettingService::drain`].
pub struct VettingService {
    queue: Arc<SubmitQueue>,
    state: Arc<ServiceState>,
    prep_handles: Vec<JoinHandle<()>>,
    exec_handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl VettingService {
    /// Starts the worker and executor threads.
    pub fn start(config: ServiceConfig) -> VettingService {
        let dispatch_capacity = if config.dispatch_capacity == 0 {
            2 * config.devices.max(1)
        } else {
            config.dispatch_capacity
        };
        let queue = Arc::new(SubmitQueue::new(config.queue_capacity.max(1)));
        let state = Arc::new(ServiceState {
            label: config.label,
            dispatch: DispatchHeap::new(dispatch_capacity),
            cache: config.result_cache.unwrap_or_else(|| Arc::new(ResultCache::new())),
            metrics: ServiceMetrics::new(),
            pool: DevicePool::new(config.devices, config.device_config, config.fault_plan),
            results: Mutex::new(Vec::new()),
            results_cv: std::sync::Condvar::new(),
            max_retries: config.max_retries,
            timeout: Duration::from_millis(config.job_timeout_ms.max(1)),
            plan: config.plan,
            sumstore: config.sumstore,
            coresident: config.coresident.max(1),
            block_slots: (config.device_config.sm_count as u64)
                * (config.device_config.blocks_per_sm as u64),
        });
        let prep_handles = (0..config.prep_workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                std::thread::spawn(move || prep_loop(&queue, &state))
            })
            .collect();
        let exec_handles = (0..config.devices.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || exec_loop(&state))
            })
            .collect();
        VettingService { queue, state, prep_handles, exec_handles, next_id: AtomicU64::new(0) }
    }

    fn spec(&self, priority: Priority, source: JobSource, targeted: bool) -> JobSpec {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut plan = Plan { targeted, ..self.state.plan };
        // Targeted jobs need a slicing-capable engine; the worklist engine
        // is the documented fallback for the one kind (cpu) that lacks it.
        if plan.targeted && !plan.engine.caps().targeted {
            plan.engine = EngineKind::Worklist;
        }
        // Engines without persistent caps (cpu) run multi-launch; a
        // persistent service setting only applies where it is meaningful.
        if !plan.engine.caps().persistent {
            plan.exec = ExecMode::MultiLaunch;
        }
        JobSpec { id, priority, source, submitted_at: Instant::now(), plan }
    }

    /// Blocking submission (backpressure when the queue is full).
    /// Returns the assigned job id.
    pub fn submit(&self, priority: Priority, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(priority, source, false);
        let id = spec.id;
        self.queue.submit(spec)?;
        Counters::bump(&self.state.metrics.counters.submitted);
        Ok(id)
    }

    /// Fast-lane submission: the job runs demand-driven (backward sink
    /// slice only) at `Expedited` priority and bypasses the result cache
    /// in both directions — a targeted outcome carries provenance and
    /// zeroed store accounting, so it must never be served for, or cached
    /// as, a full vetting. Targeted jobs also skip the incremental warm
    /// start and never join a co-resident batch.
    pub fn submit_targeted(&self, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(Priority::Expedited, source, true);
        let id = spec.id;
        self.queue.submit(spec)?;
        Counters::bump(&self.state.metrics.counters.submitted);
        Ok(id)
    }

    /// Admission-controlled submission: sheds the job immediately when
    /// the queue is at capacity.
    pub fn try_submit(&self, priority: Priority, source: JobSource) -> Result<u64, SubmitError> {
        let spec = self.spec(priority, source, false);
        let id = spec.id;
        match self.queue.try_submit(spec) {
            Ok(()) => {
                Counters::bump(&self.state.metrics.counters.submitted);
                Ok(id)
            }
            Err((_, err)) => {
                if err == SubmitError::QueueFull {
                    Counters::bump(&self.state.metrics.counters.rejected);
                }
                Err(err)
            }
        }
    }

    /// Takes every terminal result produced so far, leaving the buffer
    /// empty. Long streaming runs (the campaign layer) harvest between
    /// submissions so resident results stay bounded by the in-flight
    /// window instead of growing O(corpus); a later [`Self::drain`]
    /// returns only the results produced after the last harvest. Note
    /// that [`Self::completed`] and [`Self::wait_for`] count the
    /// *buffered* results, so they reset alongside.
    pub fn take_results(&self) -> Vec<JobResult> {
        std::mem::take(
            &mut *self
                .state
                .results
                .lock()
                .expect("results mutex poisoned: a service thread panicked"),
        )
    }

    /// Terminal results produced so far.
    pub fn completed(&self) -> u64 {
        self.state.results.lock().expect("results mutex poisoned: a service thread panicked").len()
            as u64
    }

    /// Blocks until at least `n` jobs have produced terminal results.
    /// Lets a caller fence between submission waves (e.g. to guarantee a
    /// resubmission observes a warm cache).
    pub fn wait_for(&self, n: u64) {
        let mut results =
            self.state.results.lock().expect("results mutex poisoned: a service thread panicked");
        while (results.len() as u64) < n {
            results = self
                .state
                .results_cv
                .wait(results)
                .expect("results mutex poisoned while waiting for completions");
        }
    }

    /// Graceful shutdown: stops admission, drains both queues, joins
    /// every thread, and returns the report plus per-job results sorted
    /// by id.
    pub fn drain(self) -> (ServiceReport, Vec<JobResult>) {
        self.queue.close();
        for h in self.prep_handles {
            h.join().expect("prep worker panicked");
        }
        self.state.dispatch.close();
        for h in self.exec_handles {
            h.join().expect("executor panicked");
        }
        let report = self.state.metrics.report(
            &self.state.label,
            self.state.cache.stats(),
            self.state.sumstore.as_ref().map(|s| s.stats()).unwrap_or_default(),
            self.state.pool.total_launches(),
            self.state.pool.total_faults(),
        );
        let mut results = std::mem::take(
            &mut *self.state.results.lock().expect("results mutex poisoned during drain"),
        );
        results.sort_by_key(|r| r.id);
        (report, results)
    }
}

/// Prep worker: queue → load → hash → cache lookup → prepare → dispatch.
fn prep_loop(queue: &SubmitQueue, state: &ServiceState) {
    while let Some(job) = queue.pop() {
        let queue_wait_ns = job.submitted_at.elapsed().as_nanos() as u64;
        state.metrics.queue_wait.record(queue_wait_ns);
        let prep_start = Instant::now();

        let (app, loaded) = load_source(job.source);
        let app = match app {
            Ok(app) => app,
            Err(reason) => {
                state.deliver(JobResult {
                    id: job.id,
                    package: loaded,
                    priority: job.priority,
                    content_hash: 0,
                    status: JobStatus::Failed(reason),
                    cache: CacheDisposition::Miss,
                    outcome: None,
                    attempts: 0,
                    faults_seen: 0,
                    timeouts_seen: 0,
                    queue_wait_ns,
                    prep_ns: prep_start.elapsed().as_nanos() as u64,
                    exec_wall_ns: 0,
                });
                continue;
            }
        };

        let content_hash = app_content_hash(&app);
        let package = app.manifest.package.clone();

        // Only cacheable plans look up: the cache holds full multi-launch
        // worklist outcomes, which a targeted, persistent or cpu job
        // must not be served.
        if job.plan.cacheable() {
            if let Some(outcome) = state.cache.lookup(content_hash) {
                Counters::bump(&state.metrics.counters.cache_hits);
                state.deliver(JobResult {
                    id: job.id,
                    package,
                    priority: job.priority,
                    content_hash,
                    status: JobStatus::Completed,
                    cache: CacheDisposition::Hit,
                    outcome: Some(outcome),
                    attempts: 0,
                    faults_seen: 0,
                    timeouts_seen: 0,
                    queue_wait_ns,
                    prep_ns: prep_start.elapsed().as_nanos() as u64,
                    exec_wall_ns: 0,
                });
                continue;
            }
        }

        let prep = prepare_vetting(app);
        let hashes = method_hashes(&prep.app.program);
        let fingerprint = interner_fingerprint(&prep.app.program.interner);
        let estimate = work_estimate(&prep);
        let prep_ns = prep_start.elapsed().as_nanos() as u64;
        state.metrics.prep.record(prep_ns);
        Counters::bump(&state.metrics.counters.prepared);

        let ready = ReadyJob {
            id: job.id,
            priority: job.priority,
            plan: job.plan,
            estimate,
            block_demand: block_demand(&prep),
            prep,
            content_hash,
            package,
            method_hashes: hashes,
            interner_fingerprint: fingerprint,
            queue_wait_ns,
            prep_ns,
            failures: 0,
            faults_seen: 0,
            timeouts_seen: 0,
        };
        // Blocks while `dispatch_capacity` apps are already buffered —
        // this is the double-buffer coupling of prep to execution.
        if state.dispatch.push(ready).is_err() {
            // Only reachable if the heap was closed early (not part of
            // the normal drain order); record the loss explicitly rather
            // than dropping silently.
            state.deliver(JobResult {
                id: job.id,
                package: String::new(),
                priority: job.priority,
                content_hash,
                status: JobStatus::Failed("dispatch heap closed".into()),
                cache: CacheDisposition::Miss,
                outcome: None,
                attempts: 0,
                faults_seen: 0,
                timeouts_seen: 0,
                queue_wait_ns,
                prep_ns,
                exec_wall_ns: 0,
            });
        }
    }
}

fn load_source(source: JobSource) -> (Result<App, String>, String) {
    match source {
        JobSource::App(app) => (Ok(*app), String::new()),
        JobSource::Seed { index, seed, config } => {
            (Ok(generate_app(index, seed, &config)), String::new())
        }
        JobSource::Bundle(path) => {
            let label = path.display().to_string();
            match load_bundle(&path) {
                Ok(app) => (Ok(app), label),
                Err(e) => (Err(format!("bundle {label}: {e}")), label),
            }
        }
    }
}

/// Executor: LPT pop → (incremental warm start | co-resident top-up |
/// device lease + run) → retry/quarantine on failure.
fn exec_loop(state: &ServiceState) {
    while let Some(job) = state.dispatch.pop() {
        let Some(job) = try_incremental(state, job) else { continue };

        // Batch-forming: top the device up with further ready jobs whose
        // combined block demand still fits its block slots. Extras run
        // through the incremental path first — a warm-startable job never
        // burns device time just because it was popped as a co-resident.
        // Only cacheable plans batch (the batch driver runs the full
        // multi-launch worklist kernels), and only those are popped.
        let mut group = vec![job];
        if state.coresident > 1 && state.sumstore.is_none() && group[0].plan.cacheable() {
            let mut demand = group[0].block_demand;
            while group.len() < state.coresident && demand < state.block_slots {
                let Some(extra) = state.dispatch.try_pop_coresident(state.block_slots - demand)
                else {
                    break;
                };
                let Some(extra) = try_incremental(state, extra) else { continue };
                demand += extra.block_demand;
                group.push(extra);
            }
        }

        if group.len() == 1 {
            exec_solo(state, group.pop().expect("group holds the popped job"));
        } else {
            exec_batch(state, group);
        }
    }
}

/// Attempts an incremental warm start — only on the first attempt, and
/// only when a previous version of the same package is cached (the stale
/// entry is invalidated either way). Returns the job back when it still
/// needs a full device run. Jobs of a non-cacheable plan always do: they
/// must neither consume nor invalidate cached full analyses.
fn try_incremental(state: &ServiceState, job: ReadyJob) -> Option<ReadyJob> {
    if job.failures == 0 && job.plan.cacheable() {
        if let Some(prev) = state.cache.take_previous(&job.package, job.content_hash) {
            if let Some(changed) =
                changed_methods(&prev, &job.method_hashes, job.interner_fingerprint)
            {
                let t = Instant::now();
                let (run, stats) = execute_vetting_incremental(&job.prep, &prev.analysis, &changed);
                let exec_wall_ns = t.elapsed().as_nanos() as u64;
                Counters::bump(&state.metrics.counters.cache_incremental);
                finish(
                    state,
                    job,
                    run,
                    exec_wall_ns,
                    CacheDisposition::Incremental {
                        resolved: stats.resolved,
                        reused: stats.reused,
                    },
                );
                return None;
            }
            // Incomparable versions: fall through to a full run.
        }
    }
    Some(job)
}

/// Runs one job alone on a leased device.
fn exec_solo(state: &ServiceState, mut job: ReadyJob) {
    let mut lease = state.pool.lease();
    let t = Instant::now();
    // Engines without sumstore caps (only the CPU reference) skip the
    // store rather than fault; targeted dispatch was already routed to a
    // slicing-capable engine at submission.
    let store = state.sumstore.as_deref().filter(|_| job.plan.engine.caps().sumstore);
    let attempt =
        gdroid_vetting::run(&job.prep, &job.plan, &mut lease, store).map(|(run, used)| {
            // Store-backed runs report which methods *this* execution hit;
            // the counters keep that attribution service-local, because the
            // store's own global stats can't when the store Arc is shared
            // across shards.
            if let Some(used) = used {
                state.metrics.counters.store_hits.fetch_add(used.hits, Ordering::Relaxed);
                state.metrics.counters.store_misses.fetch_add(used.misses, Ordering::Relaxed);
            }
            run
        });
    match attempt {
        Ok(run) => {
            let exec_wall_ns = t.elapsed().as_nanos() as u64;
            drop(lease);
            if t.elapsed() > state.timeout {
                job.timeouts_seen += 1;
                Counters::bump(&state.metrics.counters.timeouts);
                retry_or_quarantine(state, job, exec_wall_ns);
            } else {
                Counters::bump(&state.metrics.counters.executed);
                finish(state, job, run, exec_wall_ns, CacheDisposition::Miss);
            }
        }
        Err(_fault) => {
            let exec_wall_ns = t.elapsed().as_nanos() as u64;
            drop(lease);
            job.faults_seen += 1;
            Counters::bump(&state.metrics.counters.faults);
            retry_or_quarantine(state, job, exec_wall_ns);
        }
    }
}

/// Runs a group of co-resident jobs as one batched analysis on a leased
/// device. Per-app results are bit-identical to solo runs (the batch
/// driver repacks each app's own blocks), so the cache stays coherent. A
/// device fault aborts the whole launch round: every member retries
/// individually.
fn exec_batch(state: &ServiceState, group: Vec<ReadyJob>) {
    let mut lease = state.pool.lease();
    let t = Instant::now();
    let preps: Vec<&PreparedApp> = group.iter().map(|j| &j.prep).collect();
    let attempt = execute_vetting_batch_on_device(&preps, &mut lease, state.plan.opts);
    let exec_wall_ns = t.elapsed().as_nanos() as u64;
    drop(lease);
    match attempt {
        Ok((runs, _batch)) => {
            Counters::bump(&state.metrics.counters.batches);
            let timed_out = t.elapsed() > state.timeout;
            for (mut job, run) in group.into_iter().zip(runs) {
                if timed_out {
                    job.timeouts_seen += 1;
                    Counters::bump(&state.metrics.counters.timeouts);
                    retry_or_quarantine(state, job, exec_wall_ns);
                } else {
                    Counters::bump(&state.metrics.counters.executed);
                    Counters::bump(&state.metrics.counters.batched_jobs);
                    finish(state, job, run, exec_wall_ns, CacheDisposition::Miss);
                }
            }
        }
        Err(_fault) => {
            for mut job in group {
                job.faults_seen += 1;
                Counters::bump(&state.metrics.counters.faults);
                retry_or_quarantine(state, job, exec_wall_ns);
            }
        }
    }
}

fn finish(
    state: &ServiceState,
    job: ReadyJob,
    run: VettingRun,
    exec_wall_ns: u64,
    cache: CacheDisposition,
) {
    state.metrics.exec_wall.record(exec_wall_ns);
    state.metrics.kernel_model.record(run.outcome.timing.idfg_ns as u64);
    state.metrics.taint_model.record(run.outcome.timing.taint_ns as u64);
    state.metrics.counters.bump_plan(&job.plan);
    let outcome = run.outcome.clone();
    if let Some(prov) = &outcome.targeted {
        // Micro-units keep the counter atomic.
        state
            .metrics
            .counters
            .sliced_fraction_micros
            .fetch_add((prov.sliced_fraction * 1e6).round() as u64, Ordering::Relaxed);
    }
    if job.plan.cacheable() {
        // A hit is served verbatim, so only outcomes of the plan future
        // lookups run under enter the cache.
        state.cache.insert(
            job.content_hash,
            &job.package,
            run,
            job.method_hashes,
            job.interner_fingerprint,
        );
    }
    state.deliver(JobResult {
        id: job.id,
        package: job.package,
        priority: job.priority,
        content_hash: job.content_hash,
        status: JobStatus::Completed,
        cache,
        outcome: Some(outcome),
        attempts: job.failures + 1,
        faults_seen: job.faults_seen,
        timeouts_seen: job.timeouts_seen,
        queue_wait_ns: job.queue_wait_ns,
        prep_ns: job.prep_ns,
        exec_wall_ns,
    })
}

fn retry_or_quarantine(state: &ServiceState, mut job: ReadyJob, exec_wall_ns: u64) {
    job.failures += 1;
    if job.failures > state.max_retries {
        Counters::bump(&state.metrics.counters.quarantined);
        state.deliver(JobResult {
            id: job.id,
            package: job.package,
            priority: job.priority,
            content_hash: job.content_hash,
            status: JobStatus::Quarantined,
            cache: CacheDisposition::Miss,
            outcome: None,
            attempts: job.failures,
            faults_seen: job.faults_seen,
            timeouts_seen: job.timeouts_seen,
            queue_wait_ns: job.queue_wait_ns,
            prep_ns: job.prep_ns,
            exec_wall_ns,
        });
    } else {
        Counters::bump(&state.metrics.counters.retries);
        state.dispatch.requeue(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::GenConfig;
    use gdroid_core::OptConfig;
    use gdroid_vetting::vet_app;

    fn seed_source(index: usize, seed: u64) -> JobSource {
        JobSource::Seed { index, seed, config: Box::new(GenConfig::tiny()) }
    }

    #[test]
    fn service_vets_and_caches() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 2,
            devices: 2,
            ..ServiceConfig::default()
        });
        for seed in 0..4u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5000 + seed)).unwrap();
        }
        // Fence: the resubmission wave must observe a fully warm cache.
        svc.wait_for(4);
        for seed in 0..4u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5000 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 8);
        assert_eq!(report.counters.completed, 8);
        assert_eq!(report.counters.quarantined, 0);
        assert_eq!(report.cache.hits, 4, "second round must hit the cache");
        // Cached outcome must match the engine-computed one bit for bit.
        for seed in 0..4u64 {
            let reference = vet_app(
                generate_app(seed as usize, 5000 + seed, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            let matching: Vec<&JobResult> = results
                .iter()
                .filter(|r| {
                    r.outcome.as_ref().map(|o| o.report.to_json())
                        == Some(reference.report.to_json())
                })
                .collect();
            assert!(matching.len() >= 2, "seed {seed}: cached + fresh results expected");
        }
    }

    #[test]
    fn faults_are_retried_not_dropped() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            fault_plan: Some(FaultPlan { period: 3, budget: 2 }),
            max_retries: 5,
            ..ServiceConfig::default()
        });
        for seed in 0..6u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5100 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.counters.faults, 2);
        assert_eq!(report.counters.retries, 2);
        assert_eq!(report.device_faults, 2);
        assert_eq!(report.counters.quarantined, 0);
    }

    #[test]
    fn shared_sumstore_reports_hits_beside_cache() {
        let store = Arc::new(SumStore::new());
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            sumstore: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        });
        let config = GenConfig::tiny().with_libraries(2, 2);
        for seed in 0..3u64 {
            svc.submit(
                Priority::Standard,
                JobSource::Seed {
                    index: seed as usize,
                    seed: 5300 + seed,
                    config: Box::new(config.clone()),
                },
            )
            .unwrap();
        }
        let (report, results) = svc.drain();
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert!(report.sumstore.insertions > 0);
        assert!(report.sumstore.hits > 0, "shared-library corpus must hit the store");
        assert_eq!(report.sumstore.hits, store.stats().hits);
        // Service-local attribution must agree with the store's own view
        // when this service is the store's only client.
        assert_eq!(report.counters.store_hits, store.stats().hits);
        assert_eq!(report.counters.store_misses, store.stats().misses);
        assert_eq!(report.per_source.len(), 1);
        assert_eq!(report.per_source[0].store_hits, store.stats().hits);
        let j = report.to_json();
        assert!(j.contains("\"cache\":{") && j.contains("\"sumstore\":{\"hits\":"));
    }

    #[test]
    fn shared_result_cache_serves_hits_across_services() {
        // Two sequential services sharing one cache Arc: the second must
        // be served the first's completed apps without executing, and the
        // attribution must say so per service.
        let cache = Arc::new(ResultCache::new());
        let first = VettingService::start(ServiceConfig {
            label: "first".to_owned(),
            prep_workers: 1,
            devices: 1,
            result_cache: Some(Arc::clone(&cache)),
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            first.submit(Priority::Standard, seed_source(seed as usize, 5800 + seed)).unwrap();
        }
        let (first_report, first_results) = first.drain();
        assert_eq!(first_report.counters.cache_hits, 0);
        let second = VettingService::start(ServiceConfig {
            label: "second".to_owned(),
            prep_workers: 1,
            devices: 1,
            result_cache: Some(Arc::clone(&cache)),
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            second.submit(Priority::Standard, seed_source(seed as usize, 5800 + seed)).unwrap();
        }
        let (second_report, second_results) = second.drain();
        assert_eq!(second_report.counters.cache_hits, 3, "shared cache must serve every app");
        assert_eq!(second_report.counters.executed, 0);
        for (a, b) in first_results.iter().zip(&second_results) {
            assert_eq!(
                a.outcome.as_ref().map(|o| o.report.to_json()),
                b.outcome.as_ref().map(|o| o.report.to_json()),
                "cached outcome diverged across services"
            );
        }
        let merged = first_report.merge(&second_report);
        assert_eq!(merged.per_source.len(), 2);
        assert_eq!(merged.per_source[0].label, "first");
        assert_eq!(merged.per_source[1].cache_hits, 3);
    }

    #[test]
    fn cpu_engine_jobs_bypass_the_cache_and_match_worklist_reports() {
        let cpu = Plan { engine: EngineKind::Cpu, ..Plan::default() };
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            plan: cpu,
            coresident: 4,
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5400 + seed)).unwrap();
        }
        // Resubmit the same apps: a worklist service would serve cache
        // hits, a cpu service must re-analyze every one.
        svc.wait_for(3);
        for seed in 0..3u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5400 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.cache.hits, 0, "cpu jobs must never be served from the cache");
        assert_eq!(report.counters.jobs_under(&cpu), 6);
        assert_eq!(report.counters.batched_jobs, 0, "cpu jobs never join a batch");
        // The vetting report itself is engine-invariant byte for byte.
        for r in &results {
            let reference = vet_app(
                generate_app(r.id as usize % 3, 5400 + r.id % 3, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            assert_eq!(
                r.outcome.as_ref().unwrap().report.to_json(),
                reference.report.to_json(),
                "job {} diverged from the worklist reference",
                r.id
            );
        }
        let j = report.to_json();
        assert!(j.contains("\"plan_jobs\":{\"cpu/multi\":6}"), "{j}");
    }

    #[test]
    fn persistent_jobs_bypass_the_cache_and_match_multi_launch_reports() {
        let persistent = Plan { exec: ExecMode::Persistent, ..Plan::default() };
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            plan: persistent,
            coresident: 4,
            ..ServiceConfig::default()
        });
        for seed in 0..3u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5700 + seed)).unwrap();
        }
        // Resubmit the same apps: a multi-launch service would serve
        // cache hits, a persistent service must re-analyze every one —
        // cached outcomes embed the multi-launch cost profile.
        svc.wait_for(3);
        for seed in 0..3u64 {
            svc.submit(Priority::Standard, seed_source(seed as usize, 5700 + seed)).unwrap();
        }
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.cache.hits, 0, "persistent jobs must never be served from the cache");
        assert_eq!(report.counters.jobs_under(&persistent), 6);
        assert_eq!(report.counters.batched_jobs, 0, "persistent jobs never join a batch");
        // The vetting report itself is exec-mode-invariant byte for byte.
        for r in &results {
            let reference = vet_app(
                generate_app(r.id as usize % 3, 5700 + r.id % 3, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            assert_eq!(
                r.outcome.as_ref().unwrap().report.to_json(),
                reference.report.to_json(),
                "job {} diverged from the multi-launch reference",
                r.id
            );
        }
        let j = report.to_json();
        assert!(j.contains("\"plan_jobs\":{\"worklist/persistent\":6}"), "{j}");
    }

    fn ready_job(id: u64, seed: u64) -> ReadyJob {
        let prep = prepare_vetting(generate_app(id as usize, seed, &GenConfig::tiny()));
        let hashes = method_hashes(&prep.app.program);
        let fingerprint = interner_fingerprint(&prep.app.program.interner);
        ReadyJob {
            id,
            priority: Priority::Standard,
            plan: Plan::default(),
            estimate: work_estimate(&prep),
            block_demand: block_demand(&prep),
            content_hash: app_content_hash(&prep.app),
            package: prep.app.manifest.package.clone(),
            method_hashes: hashes,
            interner_fingerprint: fingerprint,
            prep,
            queue_wait_ns: 0,
            prep_ns: 0,
            failures: 0,
            faults_seen: 0,
            timeouts_seen: 0,
        }
    }

    #[test]
    fn batch_executor_groups_ready_jobs_deterministically() {
        // Drive one executor directly over a pre-filled heap: with every
        // job already ready, batch forming is deterministic (no prep
        // race), so batching MUST happen — and every batched result must
        // still match the engine reference bit for bit.
        let state = ServiceState {
            label: "test".to_owned(),
            dispatch: DispatchHeap::new(8),
            cache: Arc::new(ResultCache::new()),
            metrics: ServiceMetrics::new(),
            pool: DevicePool::new(1, DeviceConfig::tesla_p40(), None),
            results: Mutex::new(Vec::new()),
            results_cv: std::sync::Condvar::new(),
            max_retries: 3,
            timeout: Duration::from_millis(30_000),
            plan: Plan::default(),
            sumstore: None,
            coresident: 4,
            block_slots: 120,
        };
        for id in 0..5u64 {
            assert!(state.dispatch.push(ready_job(id, 5500 + id)).is_ok());
        }
        state.dispatch.close();
        exec_loop(&state);
        let results = state.results.lock().unwrap();
        assert_eq!(results.len(), 5);
        let c = state.metrics.counters.snapshot();
        assert_eq!(c.executed, 5);
        assert!(
            c.batches >= 1 && c.batched_jobs >= 2,
            "a heap full of ready jobs must form a batch: {c:?}"
        );
        for r in results.iter() {
            let reference = vet_app(
                generate_app(r.id as usize, 5500 + r.id, &GenConfig::tiny()),
                gdroid_vetting::Engine::Gpu(OptConfig::gdroid()),
            );
            assert_eq!(
                r.outcome.as_ref().unwrap().report.to_json(),
                reference.report.to_json(),
                "job {} diverged from the engine reference",
                r.id
            );
        }
    }

    #[test]
    fn coresident_batching_preserves_outcomes() {
        let run = |coresident: usize| {
            let svc = VettingService::start(ServiceConfig {
                prep_workers: 2,
                devices: 1,
                coresident,
                ..ServiceConfig::default()
            });
            for seed in 0..6u64 {
                svc.submit(Priority::Standard, seed_source(seed as usize, 5400 + seed)).unwrap();
            }
            svc.drain()
        };
        let (solo_report, solo) = run(1);
        let (batch_report, batched) = run(4);
        assert_eq!(solo_report.counters.batched_jobs, 0);
        assert_eq!(solo.len(), 6);
        assert_eq!(batched.len(), 6);
        assert!(batched.iter().all(|r| r.status == JobStatus::Completed));
        // Batched execution must not change a single outcome byte.
        for (a, b) in solo.iter().zip(&batched) {
            assert_eq!(a.id, b.id);
            let aj = a.outcome.as_ref().map(|o| o.to_json());
            let bj = b.outcome.as_ref().map(|o| o.to_json());
            assert_eq!(aj, bj, "job {} diverged under coresident batching", a.id);
        }
        let j = batch_report.to_json();
        assert!(j.contains("\"batched_jobs\":") && j.contains("\"coresidency\":"), "{j}");
    }

    #[test]
    fn targeted_fast_lane_bypasses_cache_and_agrees_with_full() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        // Full first, so the cache holds this exact app before the
        // targeted wave arrives — the fast lane must not consume it.
        svc.submit(Priority::Standard, seed_source(0, 5600)).unwrap();
        svc.wait_for(1);
        svc.submit_targeted(seed_source(0, 5600)).unwrap();
        svc.submit_targeted(seed_source(0, 5600)).unwrap();
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.status == JobStatus::Completed));
        assert_eq!(report.counters.cache_hits, 0, "targeted jobs must bypass the cache");
        assert_eq!(report.counters.targeted_jobs(), 2);
        assert!(report.mean_sliced_fraction > 0.0 && report.mean_sliced_fraction <= 1.0);
        let full = results[0].outcome.as_ref().expect("full outcome");
        assert!(full.targeted.is_none());
        for r in &results[1..] {
            assert_eq!(r.priority, Priority::Expedited, "fast lane forces Expedited");
            assert_eq!(r.cache, CacheDisposition::Miss);
            let o = r.outcome.as_ref().expect("targeted outcome");
            assert!(o.targeted.is_some(), "targeted outcome must carry provenance");
            assert_eq!(
                o.report.to_json(),
                full.report.to_json(),
                "targeted verdict diverged from the full run"
            );
        }
        let j = report.to_json();
        assert!(
            j.contains("\"worklist/multi/targeted\":2") && j.contains("\"mean_sliced_fraction\":"),
            "{j}"
        );
    }

    #[test]
    fn unreadable_bundle_fails_without_poisoning_service() {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        svc.submit(Priority::Standard, JobSource::Bundle("/nonexistent/x".into())).unwrap();
        svc.submit(Priority::Standard, seed_source(1, 5200)).unwrap();
        let (report, results) = svc.drain();
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0].status, JobStatus::Failed(_)));
        assert_eq!(results[1].status, JobStatus::Completed);
        assert_eq!(report.counters.completed, 2);
    }
}
