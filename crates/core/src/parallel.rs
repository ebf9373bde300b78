//! Deterministic fork/join helpers for the design-space sweeps.
//!
//! The expensive fan-outs of this crate — candidate-deployment evaluation,
//! runaway demonstration sweeps, convexity probe batches — are
//! embarrassingly parallel: every item is an independent `O(n³)` solve
//! chain. [`par_map_init`] spreads them over `std::thread::scope` workers
//! while keeping the results (and the *first* error, by item index)
//! bit-identical to a sequential loop, so parallelism never changes an
//! answer. See `DESIGN.md` §10 for the architecture.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads: the machine's parallelism, or 1 if it
/// cannot be queried.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs two independent tasks side by side and returns both results.
///
/// `fa` runs on a scoped worker thread while `fb` runs on the calling
/// thread, so the pair costs exactly one spawn. Panics from either task
/// are relayed to the caller. This is the sanctioned primitive for the
/// two-way forks in the designer pipeline and the serve tier; `std::thread`
/// must not be used outside this module (`unbounded-spawn` lint).
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B,
{
    std::thread::scope(|scope| {
        let handle = scope.spawn(fa);
        let b = fb();
        let a = match handle.join() {
            Ok(a) => a,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (a, b)
    })
}

/// Maps `f` over `items` in parallel with per-worker state, preserving
/// item order in the output.
///
/// - `init` runs once per worker thread and builds that worker's private
///   state (e.g. a `SteadySolver` handle) — this is what makes the solves
///   lock-free during the `O(n³)` work.
/// - `f(state, item)` produces the result for one item. Items are claimed
///   from a shared atomic counter, so load-balancing is dynamic, but
///   results are stored by index: the output `Vec` is identical to
///   `items.map(...)` regardless of scheduling.
/// - Errors do not abort other items; the caller receives the result of
///   every item and typically surfaces the first `Err` by index, matching
///   what a sequential loop would have reported first.
///
/// Falls back to a plain sequential loop when `items` has at most one
/// element or only one hardware thread is available. Worker panics are
/// relayed to the caller.
pub fn par_map_init<T, S, R, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let workers = worker_count().min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }

    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let run_worker = || {
        let mut state = init();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= work.len() {
                break;
            }
            #[allow(clippy::expect_used)] // claimed via the atomic counter
            let item = work[idx]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("each work slot is claimed exactly once");
            let result = f(&mut state, item);
            *slots[idx]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
        }
    };

    // One worker runs on the calling thread, so an N-way fan-out costs
    // N − 1 spawns and the common two-item case costs exactly one.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
        run_worker();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            #[allow(clippy::expect_used)] // the scope joins every worker first
            let result = slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every slot filled before scope exit");
            result
        })
        .collect()
}

/// Collapses per-item results to a `Vec` or the first error *by item
/// index* — exactly the error a sequential loop would have hit first, so
/// parallel and sequential sweeps report identical failures.
pub fn collect_first_err<R, E>(results: Vec<Result<R, E>>) -> Result<Vec<R>, E> {
    results.into_iter().collect()
}

/// One item's fate under the panic-isolating mapper
/// [`par_map_init_isolated`].
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<R> {
    /// The item was evaluated to completion.
    Done(R),
    /// Evaluating the item (or building its worker's state) panicked; the
    /// unwind was caught at the item boundary and other items continued.
    Panicked {
        /// Stringified panic payload (best effort).
        payload: String,
    },
    /// The item was never claimed: the `proceed` gate closed first.
    Skipped,
}

/// Best-effort stringification of a caught panic payload — the one
/// translation used everywhere a panic becomes data (sweep item outcomes,
/// service worker reports, `OptError::WorkerPanicked`).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `count` long-lived service workers to completion and reports, per
/// worker, the panic that killed it (if any).
///
/// This is the sanctioned primitive for *service* threading (acceptors,
/// connection handlers, evaluation-queue workers in `tecopt-serve`), as
/// [`par_map_init`] is for sweep fan-outs: the worker count is fixed up
/// front — never per-request — and every worker body runs under
/// `catch_unwind`, so a panicking worker retires its own thread without
/// aborting the process or its siblings. The call blocks until every
/// worker returns; worker 0 runs on the calling thread, so `count`
/// workers cost `count − 1` spawns.
///
/// Unlike the sweep mappers, `count` is **not** capped by the machine's
/// parallelism: service workers spend their lives blocked on sockets and
/// queues, not saturating cores, and capping them would deadlock a
/// server whose roles (accept / handle / evaluate) each need a live
/// thread.
pub fn service_workers<F>(count: usize, f: F) -> Vec<Option<String>>
where
    F: Fn(usize) + Sync,
{
    let panics: Vec<Mutex<Option<String>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let run = |index: usize| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index)));
        if let Err(panic) = outcome {
            *panics[index]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(panic_message(panic));
        }
    };
    if count <= 1 {
        if count == 1 {
            run(0);
        }
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..count).map(|i| scope.spawn(move || run(i))).collect();
            run(0);
            for handle in handles {
                if let Err(panic) = handle.join() {
                    // Unreachable: `run` catches unwinds. Do not abort a
                    // service over it — record it like any other panic.
                    drop(panic);
                }
            }
        });
    }
    panics
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect()
}

/// [`par_map_init`] with per-item panic isolation and a cooperative
/// admission gate — the engine under `tecopt::supervise`.
///
/// Differences from [`par_map_init`]:
///
/// - Each item's evaluation runs under `catch_unwind`. A panic is recorded
///   as [`ItemOutcome::Panicked`] for that item only; the worker discards
///   its (possibly torn) state, rebuilds it via `init` for its next item,
///   and the process never aborts.
/// - Before *every* claim each worker consults `proceed()`. Once it
///   returns `false` that worker stops claiming; unclaimed items come back
///   as [`ItemOutcome::Skipped`]. Because each `true` is followed by
///   exactly one claim of the monotone counter, a gate that admits `k`
///   calls admits exactly items `0..k` — deterministically, regardless of
///   scheduling.
/// - Worker state is built lazily (first claim), so a gate that is closed
///   from the start performs no work at all.
///
/// Results are stored by index as in [`par_map_init`], and one worker runs
/// on the calling thread.
pub fn par_map_init_isolated<T, S, R, I, F, P>(
    items: Vec<T>,
    init: I,
    f: F,
    proceed: P,
) -> Vec<ItemOutcome<R>>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
    P: Fn() -> bool + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = worker_count().min(items.len());
    let slots: Vec<Mutex<ItemOutcome<R>>> = items
        .iter()
        .map(|_| Mutex::new(ItemOutcome::Skipped))
        .collect();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let run_worker = || {
        let mut state: Option<S> = None;
        loop {
            if !proceed() {
                break;
            }
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= work.len() {
                break;
            }
            let Some(item) = work[idx]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
            else {
                continue;
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f(state.get_or_insert_with(&init), item)
            }));
            *slots[idx]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = match outcome {
                Ok(result) => ItemOutcome::Done(result),
                Err(panic) => {
                    // The panic may have torn the worker state mid-update;
                    // rebuild it before the next item.
                    state = None;
                    ItemOutcome::Panicked {
                        payload: panic_message(panic),
                    }
                }
            };
        }
    };

    if workers <= 1 {
        run_worker();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
            run_worker();
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_init(items.clone(), || (), |(), i| i * 3);
        let expected: Vec<usize> = items.iter().map(|i| i * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn init_builds_worker_state() {
        // Per-worker state is visible to every item the worker claims; the
        // mapped output still covers every item exactly once, in order.
        let out = par_map_init(
            (0..100).collect::<Vec<usize>>(),
            || 0usize,
            |count, i| {
                *count += 1;
                i
            },
        );
        assert_eq!(out, (0..100).collect::<Vec<usize>>());
    }

    #[test]
    fn first_error_by_index_wins() {
        let results: Vec<Result<usize, String>> =
            vec![Ok(0), Err("first".into()), Ok(2), Err("second".into())];
        assert_eq!(collect_first_err(results).unwrap_err(), "first");
    }

    #[test]
    fn empty_and_single_item_fall_back_to_sequential() {
        let empty: Vec<usize> = par_map_init(Vec::new(), || (), |(), i: usize| i);
        assert!(empty.is_empty());
        let one = par_map_init(vec![7usize], || (), |(), i| i + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn join_runs_both_and_relays_panics() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!((a, b), (42, "ok"));
        let caught = std::panic::catch_unwind(|| join(|| panic!("boom"), || ()));
        assert!(caught.is_err());
    }

    #[test]
    fn parallel_map_is_bit_identical_to_sequential() {
        // Float-heavy mapping: the parallel path (one worker on the calling
        // thread, the rest spawned) must reproduce the sequential loop's
        // results bit for bit, because each item's arithmetic is
        // independent of scheduling.
        let items: Vec<f64> = (0..129).map(|k| 0.1 + k as f64 * 0.37).collect();
        let map = |x: f64| (x.sin() * x.exp()).sqrt() + x.powi(3) / (1.0 + x * x);
        let sequential: Vec<u64> = items.iter().map(|&x| map(x).to_bits()).collect();
        let parallel: Vec<u64> = par_map_init(items, || (), move |(), x| map(x))
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn isolated_map_contains_panics_per_item() {
        let out = par_map_init_isolated(
            (0..32).collect::<Vec<usize>>(),
            || (),
            |(), i| {
                assert!(i != 5, "boom at five");
                assert!(i != 20, "boom at twenty");
                i * 2
            },
            || true,
        );
        assert_eq!(out.len(), 32);
        for (i, outcome) in out.iter().enumerate() {
            match (i, outcome) {
                (5, ItemOutcome::Panicked { payload }) => {
                    assert!(payload.contains("boom at five"));
                }
                (20, ItemOutcome::Panicked { payload }) => {
                    assert!(payload.contains("boom at twenty"));
                }
                (_, ItemOutcome::Done(v)) => assert_eq!(*v, i * 2),
                (_, other) => panic!("item {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn isolated_map_rebuilds_state_after_a_panic() {
        // A panic mid-item discards the worker's state; the next item the
        // worker claims sees a freshly built one, never a torn one.
        use std::sync::atomic::AtomicUsize;
        let builds = AtomicUsize::new(0);
        let out = par_map_init_isolated(
            (0..8).collect::<Vec<usize>>(),
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, i| {
                *seen += 1;
                assert!(i != 3, "poisoned item");
                i
            },
            || true,
        );
        assert!(matches!(out[3], ItemOutcome::Panicked { .. }));
        let done = out
            .iter()
            .filter(|o| matches!(o, ItemOutcome::Done(_)))
            .count();
        assert_eq!(done, 7);
        // At least one extra state build beyond the panicking worker's
        // first is possible; all we require is that every build is fresh.
        assert!(builds.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn admission_gate_admits_a_deterministic_prefix() {
        // A gate that admits exactly k calls yields items 0..k Done and the
        // rest Skipped, regardless of worker scheduling: each passing
        // admission is followed by exactly one claim of the monotone
        // counter.
        use std::sync::atomic::AtomicUsize;
        for k in [0usize, 1, 3, 7, 12] {
            let admitted = AtomicUsize::new(0);
            let out = par_map_init_isolated(
                (0..12).collect::<Vec<usize>>(),
                || (),
                |(), i| i + 100,
                || admitted.fetch_add(1, Ordering::Relaxed) < k,
            );
            for (i, outcome) in out.iter().enumerate() {
                if i < k {
                    assert_eq!(*outcome, ItemOutcome::Done(i + 100), "k={k} item {i}");
                } else {
                    assert_eq!(*outcome, ItemOutcome::Skipped, "k={k} item {i}");
                }
            }
        }
    }

    #[test]
    fn closed_gate_never_builds_state() {
        use std::sync::atomic::AtomicUsize;
        let builds = AtomicUsize::new(0);
        let out = par_map_init_isolated(
            (0..16).collect::<Vec<usize>>(),
            || {
                builds.fetch_add(1, Ordering::Relaxed);
            },
            |(), i| i,
            || false,
        );
        assert!(out.iter().all(|o| *o == ItemOutcome::Skipped));
        assert_eq!(builds.load(Ordering::Relaxed), 0, "state is built lazily");
    }

    #[test]
    fn first_error_wins_regardless_of_completion_order() {
        // Arrange for high-index items to finish *first* (they do trivial
        // work; the low-index error item spins longest) and confirm the
        // collapsed error is still the lowest-index one.
        let items: Vec<usize> = (0..16).collect();
        let results = par_map_init(
            items,
            || (),
            |(), i| -> Result<usize, String> {
                if i == 2 {
                    // Slowest item: real work before failing.
                    let mut acc = 0.0f64;
                    for k in 0..200_000 {
                        acc += (k as f64).sqrt();
                    }
                    assert!(acc > 0.0);
                    Err("index 2 failed".to_string())
                } else if i == 11 {
                    // Fast failure at a higher index.
                    Err("index 11 failed".to_string())
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(
            collect_first_err(results).unwrap_err(),
            "index 2 failed",
            "lowest index wins even though index 11 completed first"
        );
    }

    #[test]
    fn service_workers_run_all_and_isolate_panics() {
        use std::sync::atomic::AtomicUsize;
        let ran = AtomicUsize::new(0);
        let report = service_workers(6, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(i != 2, "worker two died");
        });
        assert_eq!(ran.load(Ordering::Relaxed), 6, "every worker ran");
        assert_eq!(report.len(), 6);
        for (i, slot) in report.iter().enumerate() {
            if i == 2 {
                let payload = slot.as_deref().unwrap();
                assert!(payload.contains("worker two died"));
            } else {
                assert!(slot.is_none(), "worker {i} reported a phantom panic");
            }
        }
        // Zero and one workers: degenerate but well-defined.
        assert!(service_workers(0, |_| ()).is_empty());
        assert_eq!(service_workers(1, |_| ()), vec![None]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_init(
                (0..16).collect::<Vec<usize>>(),
                || (),
                |(), i| {
                    assert!(i != 9, "boom");
                    i
                },
            )
        });
        assert!(caught.is_err());
    }
}
