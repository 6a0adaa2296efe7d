//! Deterministic data-parallel execution for the AllHands pipeline.
//!
//! The pipeline's hot paths (batch classification, pairwise distance
//! matrices, k-means assignment) are embarrassingly parallel over *pure*
//! per-item functions, but AllHands guarantees bit-exact reproducibility at
//! temperature 0 — so parallelism must never change observable output.
//! This crate provides exactly that contract:
//!
//! - [`par_map_indexed`] applies a pure `Fn(usize, &T) -> R` to every item
//!   of a slice and merges results **in index order**. Because each result
//!   lands at its input's index, the output is byte-identical for any
//!   thread count, including 1.
//! - The thread count comes from, in priority order: a programmatic
//!   override ([`set_thread_override`], used by tests), the
//!   `ALLHANDS_THREADS` environment variable, and finally
//!   `std::thread::available_parallelism()`. A value of 1 is a true serial
//!   fallback: no threads are involved at all.
//!
//! # Execution model
//!
//! Helpers come from a lazily-spawned **persistent worker pool** — the
//! original implementation spawned a fresh scoped `std::thread` per helper
//! per call, and at pipeline chunk sizes the spawn/join cost alone ate the
//! entire parallel win (measured serial-vs-parallel speedups of 0.89–1.03×).
//! Workers park on a condvar between calls; a call hands them a
//! type-erased borrow of its chunk-claim loop and always waits (even on
//! panic) for every handed-out ticket to retire before returning, which is
//! what makes the lifetime erasure sound.
//!
//! Work is distributed in contiguous chunks claimed off a shared atomic
//! counter (work stealing without per-item locking), and each chunk writes
//! its results straight into a preallocated output slab at the item's
//! index — no per-chunk allocation, no mutex on the result path, no final
//! sort-and-splice. Only the *scheduling* is nondeterministic; the merged
//! output never is.
//!
//! Inputs smaller than [`SEQ_FASTPATH_MIN`] skip the pool entirely and run
//! inline (recorded as `par.seq_fastpath.<label>`): for tiny batches the
//! claim/ticket bookkeeping costs more than the work. The trigger depends
//! only on `n`, so the counter is identical at every thread count and
//! lives in the deterministic section of the run report.
//!
//! No external dependencies; the whole layer is `std`.

use std::collections::VecDeque;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use allhands_obs::Recorder;

/// Programmatic thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable controlling the pool size (`1` = serial).
pub const THREADS_ENV: &str = "ALLHANDS_THREADS";

/// Inputs with fewer items than this run inline on the caller thread, no
/// matter the configured thread count: the chunk-claim and ticket
/// bookkeeping would dominate the work. Triggered purely by `n`, so the
/// `par.seq_fastpath.<label>` counter it feeds is thread-count-independent.
pub const SEQ_FASTPATH_MIN: usize = 32;

/// Floor on the claimed chunk size. The old heuristic (`n / (threads*4)`,
/// min 1) degenerated to 1-item chunks for small `n` at high thread
/// counts, paying one atomic claim + metric record per item.
pub const MIN_CHUNK: usize = 16;

/// Upper bound on persistent pool workers — a memory backstop, far above
/// any thread count the pipeline requests.
const MAX_POOL_WORKERS: usize = 64;

/// Override the pool size for this process, taking precedence over
/// `ALLHANDS_THREADS` and the detected core count. `None` removes the
/// override. Tests use this to sweep thread counts without touching the
/// process environment (which would race with other tests).
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The effective pool size: override > `ALLHANDS_THREADS` > available
/// cores. Always ≥ 1.
pub fn max_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run a scoped guard with a fixed thread count, restoring the previous
/// override afterwards (even on panic). Benches use this to measure the
/// same workload serially and in parallel within one process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.swap(threads, Ordering::SeqCst));
    f()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// One parallel map in flight. `work` is the caller's chunk-claim loop with
/// its lifetime erased; soundness rests on the caller waiting for
/// `outstanding` to reach zero (even while unwinding) before its stack
/// frame — and therefore the real closure — dies.
struct Job {
    work: &'static (dyn Fn() + Sync),
    state: Mutex<JobState>,
    cv: Condvar,
}

struct JobState {
    /// Tickets still queued or running. The caller retires queued-but-
    /// unclaimed tickets itself on exit, so a busy pool can never wedge a
    /// call that already finished the work single-handedly.
    outstanding: usize,
    /// First panic payload a worker caught while running `work`.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Job {
    /// Run one ticket: execute the shared chunk-claim loop to exhaustion,
    /// capturing a panic instead of taking the worker thread down.
    fn run(&self) {
        let result = catch_unwind(AssertUnwindSafe(|| (self.work)()));
        let mut st = lock(&self.state);
        st.outstanding -= 1;
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        drop(st);
        self.cv.notify_all();
    }
}

struct PoolQueue {
    queue: VecDeque<Arc<Job>>,
    idle: usize,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolQueue>,
    cv: Condvar,
}

impl Pool {
    /// Enqueue `tickets` copies of `job` and make sure enough workers
    /// exist to drain them. Spawn failures degrade: the caller still
    /// completes the map alone.
    fn submit(&self, job: &Arc<Job>, tickets: usize) {
        let spawn = {
            let mut s = lock(&self.state);
            for _ in 0..tickets {
                s.queue.push_back(Arc::clone(job));
            }
            let deficit = s.queue.len().saturating_sub(s.idle);
            let spawn = deficit.min(MAX_POOL_WORKERS.saturating_sub(s.workers));
            s.workers += spawn;
            spawn
        };
        self.cv.notify_all();
        for _ in 0..spawn {
            let spawned = std::thread::Builder::new()
                .name("allhands-par".to_string())
                .spawn(worker_loop);
            if spawned.is_err() {
                lock(&self.state).workers -= 1;
            }
        }
    }

    /// Retire this job's still-queued tickets and wait for the running
    /// ones. Called from a drop guard so an unwinding caller waits too.
    fn join(&self, job: &Arc<Job>) {
        let removed = {
            let mut s = lock(&self.state);
            let before = s.queue.len();
            s.queue.retain(|queued| !Arc::ptr_eq(queued, job));
            before - s.queue.len()
        };
        let mut st = lock(&job.state);
        st.outstanding -= removed;
        while st.outstanding > 0 {
            st = job.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolQueue { queue: VecDeque::new(), idle: 0, workers: 0 }),
        cv: Condvar::new(),
    })
}

fn worker_loop() {
    let pool = pool();
    loop {
        let job = {
            let mut s = lock(&pool.state);
            loop {
                if let Some(job) = s.queue.pop_front() {
                    break job;
                }
                s.idle += 1;
                s = pool.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                s.idle -= 1;
            }
        };
        job.run();
    }
}

/// Run `work` on the caller plus up to `helpers` pool workers, returning
/// only after every handed-out ticket has retired. A panic on any
/// participant propagates to the caller (the caller's own panic wins if
/// both happen).
fn run_on_pool(work: &(dyn Fn() + Sync), helpers: usize) {
    if helpers == 0 {
        work();
        return;
    }
    // SAFETY: the erased borrow never outlives this frame — `JoinGuard`
    // waits for all tickets (queued ones are dequeued, running ones
    // joined) before the frame unwinds or returns.
    let work_static: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
    let job = Arc::new(Job {
        work: work_static,
        state: Mutex::new(JobState { outstanding: helpers, panic: None }),
        cv: Condvar::new(),
    });
    let pool = pool();
    pool.submit(&job, helpers);

    struct JoinGuard<'a> {
        pool: &'a Pool,
        job: &'a Arc<Job>,
    }
    impl Drop for JoinGuard<'_> {
        fn drop(&mut self) {
            self.pool.join(self.job);
        }
    }
    {
        let _guard = JoinGuard { pool, job: &job };
        work();
    }
    let payload = lock(&job.state).panic.take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Parallel maps
// ---------------------------------------------------------------------------

/// Covariant handle to the output slab; workers write disjoint indices
/// (each claimed exactly once off the atomic counter), so shared mutable
/// access never aliases.
struct SlabPtr<R>(*mut MaybeUninit<R>);
unsafe impl<R: Send> Send for SlabPtr<R> {}
unsafe impl<R: Send> Sync for SlabPtr<R> {}

impl<R> SlabPtr<R> {
    /// Write `value` at slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and owned by exactly one claimed chunk.
    unsafe fn write(&self, i: usize, value: R) {
        (*self.0.add(i)).write(value);
    }
}

/// Apply `f(index, &item)` to every item and return results in input
/// order. `f` must be pure (or at least order-insensitive): items may be
/// processed on any thread, in any order, but the merged output is always
/// index-ordered and therefore independent of the thread count.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_recorded(&Recorder::disabled(), "par", items, f)
}

/// [`par_map_indexed`] with observability. Deterministic counters
/// (`par.maps.<label>`, `par.items.<label>`, `par.seq_fastpath.<label>`)
/// count logical work — identical at any thread count. Chunk metrics
/// (`par.chunks.<label>`, `par.chunk_size.<label>`) depend on the thread
/// count and are therefore recorded in the **volatile** section.
pub fn par_map_indexed_recorded<T, R, F>(rec: &Recorder, label: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if rec.is_enabled() {
        rec.incr(&format!("par.maps.{label}"));
        rec.add(&format!("par.items.{label}"), n as u64);
    }
    if n < SEQ_FASTPATH_MIN {
        if rec.is_enabled() && n > 0 {
            rec.incr(&format!("par.seq_fastpath.{label}"));
            rec.vincr(&format!("par.chunks.{label}"));
            rec.vobserve(&format!("par.chunk_size.{label}"), n as u64);
        }
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let threads = max_threads().min(n);
    if threads <= 1 {
        if rec.is_enabled() {
            rec.vincr(&format!("par.chunks.{label}"));
            rec.vobserve(&format!("par.chunk_size.{label}"), n as u64);
        }
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Chunks small enough to load-balance, large enough to amortize the
    // claim + metric bookkeeping (MIN_CHUNK floors the degenerate small-n
    // case that used to hand out 1-item chunks).
    let chunk = n.div_ceil(threads * 4).max(MIN_CHUNK);
    let helpers = threads.min(n.div_ceil(chunk)).saturating_sub(1);
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit needs no initialization; length is restored to
    // a fully-initialized prefix only after the map completes.
    unsafe { out.set_len(n) };
    let slab = SlabPtr(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let work = || loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        if rec.is_enabled() {
            rec.vincr(&format!("par.chunks.{label}"));
            rec.vobserve(&format!("par.chunk_size.{label}"), (end - start) as u64);
        }
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            let value = f(i, item);
            // SAFETY: index i belongs to exactly one claimed chunk.
            unsafe { slab.write(i, value) };
        }
    };
    run_on_pool(&work, helpers);
    // Every chunk was claimed (the loop exits only past n) and every
    // claimed chunk completed (run_on_pool joined all tickets; a panic
    // would have propagated above, leaking — not dropping — the slab).
    let mut out = ManuallyDrop::new(out);
    // SAFETY: all n entries are initialized; MaybeUninit<R> and R have
    // identical layout.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
}

/// [`par_map_indexed`] without the index.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Render a caught panic payload as a string. `panic!` with a literal
/// carries `&str`; `format!`-style and `panic_any(String)` carry `String`;
/// anything else (typed payloads) is opaque.
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The panic hook we displaced while silencing, plus how many silencing
/// scopes are active. Panic hooks are process-global, so take/set must be
/// serialized: two concurrent unguarded swaps can interleave so that the
/// silencer itself gets captured as the "previous" hook and stays installed
/// forever. Only the outermost scope takes the hook; only the last one out
/// restores it.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct SilenceState {
    depth: usize,
    prev: Option<PanicHook>,
}

static SILENCE: Mutex<SilenceState> = Mutex::new(SilenceState { depth: 0, prev: None });

/// Run `f` with the default panic hook silenced, restoring it when the
/// outermost concurrent scope exits (via `Drop`, so unwinding restores
/// too). While any scope is active, panics on *unrelated* threads are also
/// silenced — an unavoidable cost of the hook being process-global.
fn with_silenced_panic_hook<R>(f: impl FnOnce() -> R) -> R {
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            let mut s = lock(&SILENCE);
            s.depth -= 1;
            if s.depth == 0 {
                if let Some(prev) = s.prev.take() {
                    std::panic::set_hook(prev);
                }
            }
        }
    }
    {
        let mut s = lock(&SILENCE);
        s.depth += 1;
        if s.depth == 1 {
            s.prev = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|_| {}));
        }
    }
    let _release = Release;
    f()
}

/// [`par_map_indexed`], but each item runs under `catch_unwind`: a panic in
/// `f` for one item yields `Err(payload_string)` at that item's index
/// instead of poisoning the whole batch (the "dead-letter" contract —
/// callers quarantine the `Err` items and keep the rest). Ordering and
/// thread-count independence are exactly as in [`par_map_indexed`].
///
/// The default panic hook would still print "thread panicked" chatter for
/// every isolated item, so a silencing hook is installed for the duration
/// of the map (refcounted and mutex-guarded, so concurrent and nested
/// calls compose). The previous hook is always restored, even if the map
/// itself panics outside the per-item guard.
pub fn par_map_isolated<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_isolated_recorded(&Recorder::disabled(), "isolated", items, f)
}

/// [`par_map_isolated`] with observability; see
/// [`par_map_indexed_recorded`] for the metric taxonomy.
pub fn par_map_isolated_recorded<T, R, F>(
    rec: &Recorder,
    label: &str,
    items: &[T],
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    with_silenced_panic_hook(|| {
        par_map_indexed_recorded(rec, label, items, |i, item| {
            catch_unwind(AssertUnwindSafe(|| f(i, item)))
                .map_err(|payload| panic_payload_string(payload.as_ref()))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate the global override; serialize them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        lock(LOCK.get_or_init(|| Mutex::new(())))
    }

    #[test]
    fn identical_across_thread_counts() {
        let _g = guard();
        let items: Vec<u64> = (0..1000).collect();
        let work = |i: usize, x: &u64| -> u64 {
            // Non-trivial, order-sensitive-looking arithmetic: still pure.
            let mut acc = *x;
            for _ in 0..50 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            acc
        };
        let serial = with_threads(1, || par_map_indexed(&items, work));
        for threads in [2, 3, 8, 32] {
            let parallel = with_threads(threads, || par_map_indexed(&items, work));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let _g = guard();
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        let one = [7u32];
        assert_eq!(with_threads(8, || par_map(&one, |x| x * 2)), vec![14]);
    }

    #[test]
    fn override_beats_env_and_detect() {
        let _g = guard();
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let _g = guard();
        set_thread_override(Some(5));
        let inside = with_threads(2, max_threads);
        assert_eq!(inside, 2);
        assert_eq!(max_threads(), 5);
        set_thread_override(None);
    }

    #[test]
    fn isolated_quarantines_panicking_items_only() {
        let _g = guard();
        let items: Vec<u32> = (0..200).collect();
        let work = |_i: usize, x: &u32| -> u32 {
            if x % 37 == 5 {
                panic!("poisoned item {x}");
            }
            x * 2
        };
        let serial = with_threads(1, || par_map_isolated(&items, work));
        for (i, r) in serial.iter().enumerate() {
            if (i as u32) % 37 == 5 {
                let msg = r.as_ref().expect_err("item must be quarantined");
                assert!(msg.contains(&format!("poisoned item {i}")), "got: {msg}");
            } else {
                assert_eq!(*r, Ok(i as u32 * 2));
            }
        }
        for threads in [2, 8] {
            let parallel = with_threads(threads, || par_map_isolated(&items, work));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn isolated_carries_string_payloads() {
        let _g = guard();
        let items = [0u8, 1];
        let out = with_threads(1, || {
            par_map_isolated(&items, |_, x| {
                if *x == 1 {
                    std::panic::panic_any(String::from("typed payload"));
                }
                *x
            })
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1], Err("typed payload".to_string()));
    }

    #[test]
    fn isolated_with_no_panics_matches_plain_map() {
        let _g = guard();
        let items: Vec<u64> = (0..100).collect();
        let plain = with_threads(4, || par_map_indexed(&items, |i, x| x + i as u64));
        let isolated = with_threads(4, || par_map_isolated(&items, |i, x| x + i as u64));
        assert_eq!(isolated.into_iter().collect::<Result<Vec<_>, _>>().unwrap(), plain);
    }

    #[test]
    fn panic_in_parallel_path_propagates() {
        let _g = guard();
        let items: Vec<u32> = (0..300).collect();
        let caught = with_silenced_panic_hook(|| {
            catch_unwind(AssertUnwindSafe(|| {
                with_threads(4, || {
                    par_map_indexed(&items, |_, x| {
                        if *x == 257 {
                            panic!("mid-map failure");
                        }
                        x * 2
                    })
                })
            }))
        });
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(panic_payload_string(payload.as_ref()), "mid-map failure");
        // The pool must stay serviceable after a panicked map.
        let ok = with_threads(4, || par_map(&items, |x| x + 1));
        assert_eq!(ok.len(), items.len());
    }

    #[test]
    fn nested_parallel_maps_do_not_deadlock() {
        let _g = guard();
        let outer: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = outer.iter().map(|x| x * (0..64).sum::<u64>()).collect();
        let got = with_threads(4, || {
            par_map_indexed(&outer, |_, x| {
                let inner: Vec<u64> = (0..64).collect();
                par_map(&inner, |y| x * y).into_iter().sum::<u64>()
            })
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn pool_workers_are_reused_and_bounded() {
        let _g = guard();
        let items: Vec<u64> = (0..2000).collect();
        for _ in 0..4 {
            let out = with_threads(8, || par_map(&items, |x| x + 1));
            assert_eq!(out[1999], 2000);
        }
        let s = lock(&pool().state);
        assert!(s.workers <= MAX_POOL_WORKERS, "worker cap breached: {}", s.workers);
        assert!(s.queue.is_empty(), "tickets leaked into the queue");
    }

    #[test]
    fn concurrent_isolated_calls_restore_the_panic_hook() {
        let _g = guard();
        use std::sync::atomic::{AtomicUsize, Ordering};
        static HITS: AtomicUsize = AtomicUsize::new(0);
        // Install a counting hook, hammer par_map_isolated from several
        // threads at once (each panicking internally), and verify that
        // afterwards a panic still reaches the counting hook — i.e. the
        // interleaved silence/restore never stranded the silencer.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {
            HITS.fetch_add(1, Ordering::SeqCst);
        }));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let items: Vec<u32> = (0..40).collect();
                        let out = par_map_isolated(&items, |_, x| {
                            if x % 10 == 3 {
                                panic!("boom {x}");
                            }
                            *x
                        });
                        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 4);
                    }
                });
            }
        });
        let before = HITS.load(Ordering::SeqCst);
        let _ = std::panic::catch_unwind(|| panic!("hook probe"));
        assert_eq!(HITS.load(Ordering::SeqCst), before + 1, "counting hook was not restored");
        std::panic::set_hook(prev);
    }

    #[test]
    fn recorded_counters_identical_across_thread_counts() {
        let _g = guard();
        let items: Vec<u64> = (0..500).collect();
        let run = |threads: usize| {
            let rec = Recorder::new();
            let out = with_threads(threads, || {
                par_map_indexed_recorded(&rec, "test", &items, |i, x| x + i as u64)
            });
            (out, rec.report())
        };
        let (out1, rep1) = run(1);
        let (out8, rep8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(rep1.counter("par.maps.test"), 1);
        assert_eq!(rep1.counter("par.items.test"), 500);
        // Deterministic sections match; chunk accounting (volatile) may not.
        assert_eq!(rep1.counters, rep8.counters);
        assert!(rep8.volatile_counters.contains_key("par.chunks.test"));
    }

    #[test]
    fn seq_fastpath_counter_is_thread_count_independent() {
        let _g = guard();
        let tiny: Vec<u64> = (0..(SEQ_FASTPATH_MIN as u64 - 1)).collect();
        let run = |threads: usize| {
            let rec = Recorder::new();
            let out = with_threads(threads, || {
                par_map_indexed_recorded(&rec, "tiny", &tiny, |i, x| x + i as u64)
            });
            (out, rec.report())
        };
        let (out1, rep1) = run(1);
        let (out8, rep8) = run(8);
        assert_eq!(out1, out8);
        // Triggered by n alone, so it lands in the deterministic section
        // with the same value at every thread count.
        assert_eq!(rep1.counter("par.seq_fastpath.tiny"), 1);
        assert_eq!(rep1.counters, rep8.counters);
        // Large inputs never take the fast path.
        let big: Vec<u64> = (0..500).collect();
        let rec = Recorder::new();
        with_threads(8, || par_map_indexed_recorded(&rec, "big", &big, |i, x| x + i as u64));
        assert_eq!(rec.report().counter("par.seq_fastpath.big"), 0);
    }

    #[test]
    fn preserves_index_mapping() {
        let _g = guard();
        let items: Vec<usize> = (0..257).collect();
        let out = with_threads(4, || par_map_indexed(&items, |i, x| (i, *x)));
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
            assert_eq!(i, *val);
        }
    }
}
