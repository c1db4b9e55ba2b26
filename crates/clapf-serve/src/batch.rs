//! Cross-request micro-batched scoring.
//!
//! Concurrent `/recommend` cache misses do not each sweep the item table:
//! the event transport queues a [`ScoreJob`] per distinct key and a small
//! scorer pool drains the queue in blocks of up to `batch_max` users
//! through [`clapf_metrics::BulkScorer::scores_into_batch`] — the blocked
//! (and on x86-64, AVX2 4-user register-blocked) kernel that streams the
//! item table through cache once per block instead of once per request.
//!
//! Invariants:
//!
//! * **Generation purity.** A batch never mixes model generations. Jobs
//!   carry the `Arc<ServingModel>` their request pinned; batch formation
//!   stops at the first job whose generation differs from the front of the
//!   queue. Across a hot-swap, in-flight jobs drain on the old generation
//!   (the `Arc` keeps that model alive) and the next batch starts on the
//!   new one — so a batched answer is always exactly what single-request
//!   scoring under the same pinned model would produce.
//! * **No hold.** A scorer never waits for a batch to fill. It takes the
//!   generation-pure prefix of up to `batch_max` jobs queued when it wakes
//!   and scores it at once, so a lone miss is scored immediately. Batches
//!   form from the misses that queue while every scorer is busy.
//! * **Panic isolation at batch granularity.** Scoring runs under
//!   `catch_unwind`; a panic fails that batch's requests with a 500 and a
//!   `serve.panics` count, and the scorer thread survives. The
//!   `serve.batch.flush` failpoint injects errors/panics here.
//!
//! Batch identity with the single-request path is structural: the
//! `BulkScorer` contract says `scores_into_batch` "must produce exactly
//! the scores `scores_into` would", and the top-k cut below is the same
//! [`clapf_metrics::top_k_from_scores`] everything else uses.

use crate::model::ServingModel;
use clapf_metrics::BulkScorer;
use clapf_telemetry::Histogram;
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Identity of one scoring computation: dense user, list length, and the
/// model generation it must be computed under. `seq` is 0 whenever results
/// are shareable (cache enabled); with the cache disabled each request gets
/// a unique `seq` so keys never coalesce and every request is scored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ScoreKey {
    /// Dense user id.
    pub user: u32,
    /// Requested list length.
    pub k: usize,
    /// Generation of the pinned model.
    pub generation: u64,
    /// Uniqueness salt (0 = coalescible).
    pub seq: u64,
}

/// One queued scoring request.
pub(crate) struct ScoreJob {
    /// What to compute.
    pub key: ScoreKey,
    /// The model the request pinned; keeps the generation alive across a
    /// hot-swap until the batch drains.
    pub model: Arc<ServingModel>,
    /// When the job entered the queue (feeds `serve.batch.hold_us`).
    pub enqueued: Instant,
}

/// When one batched computation's phases happened, fanned back with the
/// completion so every waiter's trace can attribute queue wait vs. scoring
/// (the spans land on *each* member request of the batch).
#[derive(Clone, Copy)]
pub(crate) struct BatchTiming {
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// When the scorer pulled the batch off the queue.
    pub formed: Instant,
    /// When scoring (sweep + per-job cut) finished.
    pub scored: Instant,
    /// How many jobs shared the batch.
    pub size: usize,
}

/// A finished scoring computation, fanned back to waiting connections by
/// the event loop.
pub(crate) struct Completion {
    /// The key the result answers.
    pub key: ScoreKey,
    /// Top-k dense item ids, or `None` when scoring failed.
    pub items: Option<Arc<Vec<u32>>>,
    /// Failure detail for the 500 body when `items` is `None`.
    pub error: &'static str,
    /// Phase clock for traced waiters, stamped by the scorer loop after
    /// the batch (success or failure) resolves.
    pub timing: Option<BatchTiming>,
}

struct Queue {
    jobs: VecDeque<ScoreJob>,
    shutdown: bool,
}

/// The scorer-pool front: a bounded job queue, a completion list the event
/// loop drains, and a loopback waker that interrupts its poller wait.
pub(crate) struct Batcher {
    queue: Mutex<Queue>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the transport's loopback waker socket; one byte per
    /// completion flush interrupts the poller wait.
    waker: Mutex<TcpStream>,
    batch_max: usize,
}

impl Batcher {
    pub fn new(waker: TcpStream, batch_max: usize) -> Batcher {
        Batcher {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker: Mutex::new(waker),
            batch_max: batch_max.max(1),
        }
    }

    /// Jobs currently queued (the transport's pending-bound check).
    pub fn queue_len(&self) -> usize {
        self.queue.lock().expect("score queue poisoned").jobs.len()
    }

    /// Queues one job and wakes a scorer.
    pub fn enqueue(&self, job: ScoreJob) {
        self.queue
            .lock()
            .expect("score queue poisoned")
            .jobs
            .push_back(job);
        self.available.notify_one();
    }

    /// Tells scorer threads to exit once the queue is empty.
    pub fn begin_shutdown(&self) {
        self.queue.lock().expect("score queue poisoned").shutdown = true;
        self.available.notify_all();
    }

    /// Takes every completion accumulated since the last call.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }

    fn publish(&self, batch: Vec<Completion>) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .extend(batch);
        // Nonblocking write; a full pipe means a wake is already pending.
        let _ = self.waker.lock().expect("waker poisoned").write(&[1]);
    }

    /// Pulls the next generation-pure batch: up to `batch_max` jobs from
    /// the front of the queue, stopping at the first job of another
    /// generation. Blocks only while the queue is empty; `None` means
    /// shutdown drained the queue and the scorer thread should exit.
    fn next_batch(&self) -> Option<Vec<ScoreJob>> {
        let mut q = self.queue.lock().expect("score queue poisoned");
        while q.jobs.is_empty() {
            if q.shutdown {
                return None;
            }
            q = self.available.wait(q).expect("score queue poisoned");
        }
        let generation = q.jobs.front().expect("nonempty queue").key.generation;
        let pure = q
            .jobs
            .iter()
            .take(self.batch_max)
            .take_while(|job| job.key.generation == generation)
            .count();
        Some(q.jobs.drain(..pure).collect())
    }
}

fn batch_size_histogram() -> Histogram {
    // 1 … 32+ users in ×2 steps.
    Histogram::exponential(1.0, 2.0, 6)
}

fn batch_hold_histogram() -> Histogram {
    // 1µs … ~1ms in ×2 steps, plus overflow.
    Histogram::exponential(1.0, 2.0, 10)
}

/// The scorer-thread body: drain batches until shutdown empties the queue.
pub(crate) fn scorer_loop(batcher: Arc<Batcher>, shared: Arc<crate::server::Shared>) {
    let mut score_bufs: Vec<Vec<f32>> = (0..batcher.batch_max).map(|_| Vec::new()).collect();
    let mut items_scratch = Vec::new();
    while let Some(batch) = batcher.next_batch() {
        shared
            .registry
            .histogram("serve.batch.size", batch_size_histogram)
            .record(batch.len() as f64);
        // `hold_us` is each job's wait from enqueue until its batch formed.
        let now = Instant::now();
        let hold = shared
            .registry
            .histogram("serve.batch.hold_us", batch_hold_histogram);
        for job in &batch {
            hold.record(now.saturating_duration_since(job.enqueued).as_micros() as f64);
        }
        let mut completions = score_batch(&shared, &batch, &mut score_bufs, &mut items_scratch);
        let scored = Instant::now();
        for (c, job) in completions.iter_mut().zip(&batch) {
            c.timing = Some(BatchTiming {
                enqueued: job.enqueued,
                formed: now,
                scored,
                size: batch.len(),
            });
        }
        batcher.publish(completions);
    }
}

/// Scores one generation-pure batch, with failpoint + panic isolation.
fn score_batch(
    shared: &crate::server::Shared,
    batch: &[ScoreJob],
    score_bufs: &mut [Vec<f32>],
    items_scratch: &mut Vec<clapf_data::ItemId>,
) -> Vec<Completion> {
    let fail = |error: &'static str| {
        batch
            .iter()
            .map(|job| Completion {
                key: job.key,
                items: None,
                error,
                timing: None,
            })
            .collect::<Vec<_>>()
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Failpoint: tests inject I/O errors (typed 500s for the whole
        // batch) and panics (exercising the catch_unwind isolation) here.
        if clapf_faults::check("serve.batch.flush").is_err() {
            return None;
        }
        let model = &batch[0].model;
        // Distinct users only: duplicate users in one batch (same user at
        // different k, or uncoalesced cache-off traffic) share one sweep.
        let mut users: Vec<clapf_data::UserId> = Vec::with_capacity(batch.len());
        let mut user_idx = Vec::with_capacity(batch.len());
        for job in batch {
            let u = clapf_data::UserId(job.key.user);
            match users.iter().position(|&v| v == u) {
                Some(i) => user_idx.push(i),
                None => {
                    users.push(u);
                    user_idx.push(users.len() - 1);
                }
            }
        }
        model
            .bundle
            .model
            .scores_into_batch(&users, &mut score_bufs[..users.len()]);
        let completions = batch
            .iter()
            .zip(&user_idx)
            .map(|(job, &idx)| {
                let u = clapf_data::UserId(job.key.user);
                clapf_metrics::top_k_from_scores(
                    &score_bufs[idx],
                    &model.train,
                    u,
                    job.key.k,
                    items_scratch,
                );
                let items: Arc<Vec<u32>> =
                    Arc::new(items_scratch.iter().map(|i| i.0).collect());
                shared
                    .cache
                    .put(job.key.user, job.key.k, job.key.generation, Arc::clone(&items));
                Completion {
                    key: job.key,
                    items: Some(items),
                    error: "",
                    timing: None, // filled by the scorer loop post-batch
                }
            })
            .collect::<Vec<_>>();
        Some(completions)
    }));
    match result {
        Ok(Some(completions)) => completions,
        Ok(None) => {
            shared.registry.counter("serve.batch.faults").inc();
            fail("batch scoring fault injected")
        }
        Err(_) => {
            shared.registry.counter("serve.panics").inc();
            fail("internal error: batch scorer panicked")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::serving_model;
    use std::net::TcpListener;

    fn batcher(batch_max: usize) -> Batcher {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let waker = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        Batcher::new(waker, batch_max)
    }

    fn job(model: &Arc<ServingModel>, user: u32) -> ScoreJob {
        ScoreJob {
            key: ScoreKey {
                user,
                k: 2,
                generation: model.generation,
                seq: 0,
            },
            model: Arc::clone(model),
            enqueued: Instant::now(),
        }
    }

    /// (size, generation, first user) of one batch, checking it is pure.
    fn shape(batch: &[ScoreJob]) -> (usize, u64, u32) {
        let generation = batch[0].key.generation;
        assert!(batch.iter().all(|j| j.key.generation == generation));
        (batch.len(), generation, batch[0].key.user)
    }

    #[test]
    fn next_batch_takes_the_queued_generation_pure_prefix() {
        let b = batcher(32);
        let gen1 = Arc::new(serving_model([0.1, 0.5, 0.9], 1));
        let gen2 = Arc::new(serving_model([0.9, 0.5, 0.1], 2));
        for user in 0..40 {
            b.enqueue(job(&gen1, user));
        }
        for user in 100..103 {
            b.enqueue(job(&gen2, user));
        }
        let shapes: Vec<_> = (0..3)
            .map(|_| shape(&b.next_batch().expect("jobs queued")))
            .collect();
        assert_eq!(shapes, [(32, 1, 0), (8, 1, 32), (3, 2, 100)]);
        assert_eq!(b.queue_len(), 0);
    }

    #[test]
    fn a_lone_job_is_a_batch_of_one_and_shutdown_drains_first() {
        let b = batcher(32);
        let model = Arc::new(serving_model([0.1, 0.5, 0.9], 0));
        b.enqueue(job(&model, 7));
        assert_eq!(shape(&b.next_batch().expect("one job")), (1, 0, 7));
        b.enqueue(job(&model, 8));
        b.begin_shutdown();
        assert_eq!(shape(&b.next_batch().expect("queued before shutdown")), (1, 0, 8));
        assert!(b.next_batch().is_none());
    }
}
