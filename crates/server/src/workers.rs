//! The fixed worker pool behind the event-driven engine.
//!
//! The reactor thread must never execute a session step itself — a slow oracle answer or a
//! first-touch corpus build would stall every other connection's I/O. Instead it checks the
//! connection's [`ProtoState`] out into a [`Job`] and pushes it here; a worker runs the shared
//! protocol core ([`respond`]) and pushes a [`Completion`] (reply + returned state) onto the
//! completion queue, then kicks the reactor's waker so the readiness loop picks the reply up
//! even while idle in `wait`.
//!
//! Ownership does the synchronisation: each connection has at most one line in flight, and its
//! `ProtoState` travels with the job and comes back with the completion, so no per-connection
//! lock exists anywhere. The queue depth (jobs submitted but not yet completed) is exported for
//! the reactor's load-shedding decision.
//!
//! A panic while executing a request costs that request, not the worker: it is caught, the
//! client gets the fatal `-ERR internal error` (no `retry later`) and its connection closes,
//! the session it was stepping is closed rather than served half-updated, and the panic is
//! counted in `panics=`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::poll::Waker;
use crate::server::{respond, ProtoState, Service};

/// One request line checked out to the pool, carrying its connection's protocol state.
pub(crate) struct Job {
    pub(crate) conn: u64,
    pub(crate) line: String,
    pub(crate) state: ProtoState,
}

/// The worker's result: the reply to write, whether the connection should close after it, and
/// the protocol state handed back to the reactor.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) reply: String,
    pub(crate) quit: bool,
    pub(crate) state: ProtoState,
    /// An injected fault dropped this connection: the operation executed but the reply must
    /// be discarded and the socket closed, with the session detached (left resumable).
    pub(crate) dropped: bool,
}

/// Queue of finished jobs, drained by the reactor after a waker kick.
pub(crate) type CompletionQueue = Arc<Mutex<VecDeque<Completion>>>;

/// A fixed pool of worker threads executing session steps.
pub(crate) struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    depth: Arc<AtomicUsize>,
    completions: CompletionQueue,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one) serving jobs against `service`, reporting
    /// completions through the returned pool's queue and waking `waker` after each.
    pub(crate) fn spawn(workers: usize, service: Arc<Service>, waker: Waker) -> WorkerPool {
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let depth = Arc::new(AtomicUsize::new(0));
        let completions: CompletionQueue = Arc::new(Mutex::new(VecDeque::new()));
        let handles = (0..workers.max(1))
            .map(|i| {
                let receiver = receiver.clone();
                let service = service.clone();
                let waker = waker.clone();
                let depth = depth.clone();
                let completions = completions.clone();
                std::thread::Builder::new()
                    .name(format!("qbe-server-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &service, &waker, &depth, &completions))
                    .expect("worker thread spawn")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
            depth,
            completions,
        }
    }

    /// Jobs submitted but not yet completed — the load-shedding signal.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The queue the reactor drains.
    pub(crate) fn completions(&self) -> CompletionQueue {
        self.completions.clone()
    }

    /// Submit a job. Returns the job back if the pool has already shut down.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let Some(sender) = &self.sender else {
            return Err(job);
        };
        self.depth.fetch_add(1, Ordering::Relaxed);
        sender.send(job).map_err(|e| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            e.0
        })
    }

    /// Close the job channel and join every worker; in-flight jobs finish first and their
    /// completions stay queued for the reactor's final drain.
    pub(crate) fn shutdown(&mut self) {
        self.sender.take(); // hang up: workers see Err(RecvError) and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    receiver: &Mutex<Receiver<Job>>,
    service: &Service,
    waker: &Waker,
    depth: &AtomicUsize,
    completions: &Mutex<VecDeque<Completion>>,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the session step.
        let job = match receiver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
        {
            Ok(job) => job,
            Err(_) => break, // pool shut down
        };
        let Job {
            conn,
            line,
            mut state,
        } = job;
        service.inject_latency();
        // Decide the injected drop before executing, apply it after: the operation lands
        // but its reply is lost — the case a resilient client must disambiguate.
        let dropped = service.injected_drop(&line);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            service.inject_panic(&line);
            respond(service, &mut state, &line)
        }));
        let (reply, quit) = outcome.unwrap_or_else(|_| {
            service.registry.note_panic();
            // The panic may have left the learner half-updated: close its session rather than
            // serve it again. Closing reads the learner's summary, so it is guarded too.
            let _ = catch_unwind(AssertUnwindSafe(|| state.close_session(service)));
            ("-ERR internal error".to_string(), true)
        });
        depth.fetch_sub(1, Ordering::Relaxed);
        completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(Completion {
                conn,
                reply,
                quit,
                state,
                dropped,
            });
        waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::waker_pair;

    #[test]
    fn pool_round_trips_jobs_and_tracks_depth() {
        let service = Arc::new(Service::new());
        let (_reader, waker) = waker_pair().unwrap();
        let mut pool = WorkerPool::spawn(2, service, waker);
        let completions = pool.completions();
        for i in 0..8u64 {
            pool.submit(Job {
                conn: i,
                line: "HELLO".to_string(),
                state: ProtoState::new(),
            })
            .unwrap_or_else(|_| panic!("pool alive"));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let done = completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len();
            if done == 8 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "only {done}/8 done");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(pool.depth(), 0, "all jobs drained");
        let first = completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
            .unwrap();
        assert!(first.reply.starts_with("+OK qbe-server proto=1.3"));
        assert!(!first.quit);
        pool.shutdown();
        // After shutdown, submission hands the job back instead of hanging.
        let refused = pool.submit(Job {
            conn: 99,
            line: "HELLO".to_string(),
            state: ProtoState::new(),
        });
        assert!(refused.is_err());
    }
}
