//! Bounded worker pool for application handlers.
//!
//! Reactor callbacks must not block, but request handlers can (the SDE
//! gateway parks callers during a §5.7 publication stall). So handler
//! execution hops to a `DispatchPool`: the connection suspends itself
//! off epoll, a worker runs the handler, then resumes the connection
//! with the response. The queue is bounded; a full queue is the
//! server's overload signal (`try_submit` fails and the caller sheds
//! with 503, same contract as the old thread-pool queue).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::metrics::Gauge;
use obs::sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    capacity: usize,
    /// Lock-free mirror of the queue length so spinning workers can
    /// poll for work without touching the mutex.
    depth: AtomicUsize,
    /// Mirrors queue depth for the server's `http_queue_depth` gauge;
    /// parked idle connections never touch it.
    depth_gauge: Option<Arc<Gauge>>,
}

/// A fixed-size worker pool with a bounded job queue.
pub struct DispatchPool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl DispatchPool {
    /// Spawns `workers` threads (at least one) sharing a queue bounded
    /// at `capacity` jobs. `depth_gauge`, when given, tracks queue
    /// depth.
    pub fn new(
        name: &str,
        workers: usize,
        capacity: usize,
        depth_gauge: Option<Arc<Gauge>>,
    ) -> DispatchPool {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            depth_gauge,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn dispatch worker")
            })
            .collect();
        DispatchPool {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues a job unless the queue is full or the pool is shutting
    /// down. Returns whether the job was accepted — a `false` is the
    /// caller's cue to shed load.
    ///
    /// Jobs take resources on loan from the caller (the connection's
    /// socket and buffers), so the job is *built* by `make_job`, which
    /// runs — briefly, under the queue lock — only once the queue slot
    /// is certain: a shed request leaves the caller holding everything
    /// it had.
    pub fn try_submit<M, F>(&self, make_job: M) -> bool
    where
        M: FnOnce() -> F,
        F: FnOnce() + Send + 'static,
    {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        {
            let mut q = self.inner.queue.lock();
            if q.len() >= self.inner.capacity {
                return false;
            }
            q.push_back(Box::new(make_job()));
            self.inner.depth.store(q.len(), Ordering::Release);
            if let Some(g) = &self.inner.depth_gauge {
                g.set(q.len() as i64);
            }
        }
        self.inner.available.notify_one();
        true
    }

    /// Current queue depth (jobs waiting, not jobs executing).
    pub fn depth(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Stops accepting work, drops queued jobs, and joins the workers.
    /// Jobs already executing run to completion.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut q = self.inner.queue.lock();
            q.clear();
            self.inner.depth.store(0, Ordering::Release);
            if let Some(g) = &self.inner.depth_gauge {
                g.set(0);
            }
        }
        self.inner.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long a worker polls for the next job before blocking on the
/// condvar. In an RMI round trip the pool goes idle for only a few
/// microseconds between a response leaving and the next request
/// arriving; spinning through that gap avoids a futex sleep/wake on
/// every call, which is most of the latency a reactor→worker handoff
/// adds over a thread blocked directly in `read()`. The window is
/// short and only entered after finishing a job, so idle pools still
/// park on the condvar and cost nothing. On a single-core host the
/// spin can only steal cycles from the thread that would produce the
/// next job, so it is disabled there.
fn spin_window() -> Duration {
    static WINDOW: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *WINDOW.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            Duration::from_micros(100)
        } else {
            Duration::ZERO
        }
    })
}

fn worker_loop(inner: &Inner) {
    loop {
        // Spin phase: watch the lock-free depth mirror so the mutex is
        // only taken when there is plausibly work to pop.
        let spin_until = Instant::now() + spin_window();
        let mut job: Option<Job> = None;
        loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if inner.depth.load(Ordering::Acquire) > 0 {
                let mut q = inner.queue.lock();
                if let Some(j) = q.pop_front() {
                    inner.depth.store(q.len(), Ordering::Release);
                    if let Some(g) = &inner.depth_gauge {
                        g.set(q.len() as i64);
                    }
                    job = Some(j);
                    break;
                }
            }
            if Instant::now() >= spin_until {
                break;
            }
            std::hint::spin_loop();
        }
        let job = match job {
            Some(j) => j,
            None => {
                // Blocking phase: the classic guarded condvar wait.
                let mut q = inner.queue.lock();
                loop {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(j) = q.pop_front() {
                        inner.depth.store(q.len(), Ordering::Release);
                        if let Some(g) = &inner.depth_gauge {
                            g.set(q.len() as i64);
                        }
                        break j;
                    }
                    inner.available.wait(&mut q);
                }
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let pool = DispatchPool::new("dp-test", 2, 16, None);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let count = count.clone();
            assert!(pool.try_submit(|| move || {
                count.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(count.load(Ordering::SeqCst), 8);
        pool.shutdown();
    }

    #[test]
    fn bounded_queue_sheds_when_full() {
        let pool = DispatchPool::new("dp-full", 1, 2, None);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Occupy the single worker...
        let g = gate.clone();
        assert!(pool.try_submit(|| move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        }));
        // Give the worker time to take the blocking job off the queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while pool.depth() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // ...then fill the queue to capacity and overflow it.
        assert!(pool.try_submit(|| || {}));
        assert!(pool.try_submit(|| || {}));
        assert!(!pool.try_submit(|| || {}), "queue at capacity must shed");
        *gate.0.lock() = true;
        gate.1.notify_all();
        pool.shutdown();
    }

    #[test]
    fn shed_job_is_never_built() {
        let pool = DispatchPool::new("dp-loan", 1, 1, None);
        pool.shutdown();
        let mut loan = Some(vec![1u8, 2, 3]);
        let accepted = pool.try_submit(|| {
            let taken = loan.take();
            move || drop(taken)
        });
        assert!(!accepted);
        assert_eq!(loan, Some(vec![1, 2, 3]), "a shed request keeps its loan");
    }

    #[test]
    fn rejects_after_shutdown() {
        let pool = DispatchPool::new("dp-shut", 1, 4, None);
        pool.shutdown();
        assert!(!pool.try_submit(|| || {}));
    }
}
