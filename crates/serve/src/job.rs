//! Job descriptions, priorities, and per-job results.

use gdroid_apk::{App, GenConfig};
use gdroid_vetting::{Plan, VettingOutcome};
use std::path::PathBuf;
use std::time::Instant;

/// Priority classes of the submission queue. Higher classes are always
/// dispatched before lower ones; within a class jobs are FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Bulk re-scans; served only when nothing else waits.
    Background,
    /// The default class for newly submitted apps.
    Standard,
    /// Jump-the-queue re-checks (e.g. a reviewer waiting on a verdict).
    Expedited,
}

impl Priority {
    /// All classes, lowest first (indexable by `as usize`).
    pub const ALL: [Priority; 3] = [Priority::Background, Priority::Standard, Priority::Expedited];

    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Background => "background",
            Priority::Standard => "standard",
            Priority::Expedited => "expedited",
        }
    }
}

/// Where the app bytes of a job come from.
pub enum JobSource {
    /// An already-loaded app (in-process submission).
    App(Box<App>),
    /// A synthetic app, generated by the prep worker from a seed.
    Seed {
        /// App index passed to the generator (determines the package name).
        index: usize,
        /// Generator seed.
        seed: u64,
        /// Generator configuration.
        config: Box<GenConfig>,
    },
    /// An on-disk bundle directory (`app.jil` + `manifest.txt`).
    Bundle(PathBuf),
}

/// One accepted submission, as it sits in the queue.
pub struct JobSpec {
    /// Service-assigned id (dense, submission order).
    pub id: u64,
    /// Priority class.
    pub priority: Priority,
    /// The app source.
    pub source: JobSource,
    /// When the job was admitted (queue-wait clock starts here).
    pub submitted_at: Instant,
    /// How the job is vetted, already validated against the engine's
    /// caps. Only [`Plan::cacheable`] jobs use the result cache, the
    /// incremental warm start, and co-resident batches; every other plan
    /// embeds a different cost profile or targeted provenance in its
    /// outcome. Verdicts and facts are the same under every plan.
    pub plan: Plan,
}

/// How the result cache participated in a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// No usable previous state; full analysis ran.
    Miss,
    /// Content hash matched; the cached outcome was returned verbatim.
    Hit,
    /// Same package, different content: the previous analysis seeded an
    /// incremental re-analysis of only the changed methods.
    Incremental {
        /// Methods actually re-solved.
        resolved: usize,
        /// Methods whose facts and summaries were reused verbatim.
        reused: usize,
    },
}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced a vetting outcome.
    Completed,
    /// The job failed (fault or timeout) on every allowed attempt and was
    /// set aside as a poison job.
    Quarantined,
    /// The job could not be started at all (e.g. unreadable bundle).
    Failed(String),
}

/// Everything the service reports back for one job. Exactly one result is
/// produced per admitted job.
pub struct JobResult {
    /// The id assigned at submission.
    pub id: u64,
    /// App package name (empty if the source never loaded).
    pub package: String,
    /// Priority class the job ran under.
    pub priority: Priority,
    /// FNV-1a content hash of the app bundle (0 if never loaded).
    pub content_hash: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Cache participation.
    pub cache: CacheDisposition,
    /// The vetting outcome (present iff `status == Completed`).
    pub outcome: Option<VettingOutcome>,
    /// Execution attempts made (failures plus the final success, if any).
    pub attempts: u32,
    /// Injected device faults this job observed.
    pub faults_seen: u32,
    /// Wall-clock timeouts this job observed.
    pub timeouts_seen: u32,
    /// Wall-clock wait between admission and a prep worker picking it up.
    pub queue_wait_ns: u64,
    /// Wall-clock host-side prep time (load + hash + env/cg synthesis).
    pub prep_ns: u64,
    /// Wall-clock time of the final execution attempt.
    pub exec_wall_ns: u64,
}

impl JobResult {
    /// Deterministic-keyed JSON rendering (wall-clock fields vary run to
    /// run; the embedded `outcome` JSON is byte-stable per app).
    pub fn to_json(&self) -> String {
        let status = match &self.status {
            JobStatus::Completed => "\"completed\"".to_owned(),
            JobStatus::Quarantined => "\"quarantined\"".to_owned(),
            JobStatus::Failed(reason) => {
                format!("{{\"failed\":{}}}", gdroid_vetting::json::string(reason))
            }
        };
        let cache = match self.cache {
            CacheDisposition::Miss => "\"miss\"".to_owned(),
            CacheDisposition::Hit => "\"hit\"".to_owned(),
            CacheDisposition::Incremental { resolved, reused } => {
                format!("{{\"incremental\":{{\"resolved\":{resolved},\"reused\":{reused}}}}}")
            }
        };
        let outcome =
            self.outcome.as_ref().map_or_else(|| "null".to_owned(), VettingOutcome::to_json);
        format!(
            "{{\"id\":{},\"package\":{},\"priority\":{},\"content_hash\":{},\"status\":{},\
             \"cache\":{},\"attempts\":{},\"faults_seen\":{},\"timeouts_seen\":{},\
             \"queue_wait_ns\":{},\"prep_ns\":{},\"exec_wall_ns\":{},\"outcome\":{}}}",
            self.id,
            gdroid_vetting::json::string(&self.package),
            gdroid_vetting::json::string(self.priority.as_str()),
            self.content_hash,
            status,
            cache,
            self.attempts,
            self.faults_seen,
            self.timeouts_seen,
            self.queue_wait_ns,
            self.prep_ns,
            self.exec_wall_ns,
            outcome,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_and_labels() {
        assert!(Priority::Expedited > Priority::Standard);
        assert!(Priority::Standard > Priority::Background);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(!p.as_str().is_empty());
        }
    }

    #[test]
    fn result_json_shape() {
        let r = JobResult {
            id: 7,
            package: "com.gen.app0001".into(),
            priority: Priority::Standard,
            content_hash: 42,
            status: JobStatus::Completed,
            cache: CacheDisposition::Incremental { resolved: 2, reused: 9 },
            outcome: None,
            attempts: 1,
            faults_seen: 0,
            timeouts_seen: 0,
            queue_wait_ns: 10,
            prep_ns: 20,
            exec_wall_ns: 30,
        };
        let j = r.to_json();
        assert!(j.contains("\"id\":7"));
        assert!(j.contains("\"status\":\"completed\""));
        assert!(j.contains("\"resolved\":2"));
        assert!(j.ends_with("\"outcome\":null}"));
    }
}
