//! Bounded, priority-classed submission queue with admission control.
//!
//! Submission has two flavors: [`SubmitQueue::submit`] blocks while the
//! queue is at capacity (backpressure onto the producer), while
//! [`SubmitQueue::try_submit`] rejects immediately (load shedding at
//! admission). Consumers ([`SubmitQueue::pop`]) always drain the highest
//! non-empty priority class first, FIFO within a class.

use crate::job::{JobSpec, Priority};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (only from `try_submit`).
    QueueFull,
    /// The service is draining; no new work is admitted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::Closed => write!(f, "service is draining; queue closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Inner {
    lanes: [VecDeque<JobSpec>; 3],
    len: usize,
    closed: bool,
}

/// The bounded multi-class submission queue.
pub struct SubmitQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl SubmitQueue {
    /// Creates a queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> SubmitQueue {
        SubmitQueue {
            inner: Mutex::new(Inner {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Blocking submission: waits for space while the queue is full
    /// (backpressure), fails only once the queue is closed.
    pub fn submit(&self, job: JobSpec) -> Result<(), SubmitError> {
        let mut inner =
            self.inner.lock().expect("submit-queue mutex poisoned: a queue user panicked");
        while inner.len >= self.capacity && !inner.closed {
            inner = self
                .not_full
                .wait(inner)
                .expect("submit-queue mutex poisoned while waiting for space");
        }
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        Self::push(&mut inner, job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking submission: sheds the job when the queue is at
    /// capacity. The job is handed back so the caller decides its fate.
    // The fat Err *is* the contract: a rejected job must come back whole.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, job: JobSpec) -> Result<(), (JobSpec, SubmitError)> {
        let mut inner =
            self.inner.lock().expect("submit-queue mutex poisoned: a queue user panicked");
        if inner.closed {
            return Err((job, SubmitError::Closed));
        }
        if inner.len >= self.capacity {
            return Err((job, SubmitError::QueueFull));
        }
        Self::push(&mut inner, job);
        self.not_empty.notify_one();
        Ok(())
    }

    fn push(inner: &mut Inner, job: JobSpec) {
        inner.lanes[job.priority as usize].push_back(job);
        inner.len += 1;
    }

    /// Takes the next job: highest non-empty class, FIFO within it.
    /// Blocks while empty; returns `None` once closed *and* drained.
    pub fn pop(&self) -> Option<JobSpec> {
        let mut inner =
            self.inner.lock().expect("submit-queue mutex poisoned: a queue user panicked");
        loop {
            if inner.len > 0 {
                for lane in (0..Priority::ALL.len()).rev() {
                    if let Some(job) = inner.lanes[lane].pop_front() {
                        inner.len -= 1;
                        self.not_full.notify_one();
                        return Some(job);
                    }
                }
                unreachable!("len > 0 with all lanes empty");
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .expect("submit-queue mutex poisoned while waiting for work");
        }
    }

    /// Closes the queue: pending jobs still drain, new submissions fail.
    pub fn close(&self) {
        let mut inner =
            self.inner.lock().expect("submit-queue mutex poisoned: a queue user panicked");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("submit-queue mutex poisoned: a queue user panicked").len
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;
    use std::time::Instant;

    fn job(id: u64, priority: Priority) -> JobSpec {
        JobSpec {
            id,
            priority,
            source: JobSource::Seed {
                index: id as usize,
                seed: id,
                config: Box::new(gdroid_apk::GenConfig::tiny()),
            },
            submitted_at: Instant::now(),
            plan: gdroid_vetting::Plan::default(),
        }
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = SubmitQueue::new(8);
        q.submit(job(1, Priority::Background)).unwrap();
        q.submit(job(2, Priority::Standard)).unwrap();
        q.submit(job(3, Priority::Expedited)).unwrap();
        q.submit(job(4, Priority::Standard)).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, vec![3, 2, 4, 1]);
    }

    #[test]
    fn try_submit_sheds_when_full_and_close_drains() {
        let q = SubmitQueue::new(2);
        assert!(q.try_submit(job(1, Priority::Standard)).is_ok());
        assert!(q.try_submit(job(2, Priority::Standard)).is_ok());
        let (back, err) = q.try_submit(job(3, Priority::Expedited)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        assert_eq!(back.id, 3);
        q.close();
        assert!(matches!(q.try_submit(job(4, Priority::Standard)), Err((_, SubmitError::Closed))));
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let q = std::sync::Arc::new(SubmitQueue::new(1));
        q.submit(job(1, Priority::Standard)).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.submit(job(2, Priority::Standard)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap().id, 1);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap().id, 2);
    }
}
