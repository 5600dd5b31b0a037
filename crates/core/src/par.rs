//! The workspace's one parallel map.
//!
//! Every parallel loop in the workspace (fleet cells, model-checker BFS
//! levels, design sweeps, experiment grids) is a map over independent
//! units whose results must not depend on the thread count. [`par_map`]
//! is that map: workers claim item indices from a shared atomic cursor
//! (work stealing, so one slow item never strands the rest behind it),
//! and the results are put back **in input order**, so the output is the
//! same at any thread count or completion order.
//!
//! At one thread, or with at most one item, `f` runs inline on the
//! calling thread and no thread is spawned. Hot callers that run at
//! `threads = 1` (the model checker's per-level expansion) therefore pay
//! nothing for the pool.
//!
//! ```
//! use rb_core::par::par_map;
//!
//! let squares = par_map(&[1u64, 2, 3, 4], 4, |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `threads` workers and returns the
/// results in input order.
///
/// Runs inline when `threads <= 1` or `items.len() <= 1`; otherwise
/// spawns `min(threads, items.len())` scoped workers. If `f` panics, the
/// panic is re-raised on the caller with its original payload once every
/// worker has stopped.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Each worker keeps its results tagged with the claimed index; the
    // tags are the slots the merge below sorts back into input order.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        done
    };
    let mut tagged = Vec::with_capacity(items.len());
    let mut first_panic = None;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| scope.spawn(claim))
            .collect();
        for handle in workers {
            match handle.join() {
                Ok(done) => tagged.extend(done),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    // Every index below `items.len()` was claimed exactly once.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// The number of hardware threads the OS reports (1 if unknown): the
/// default worker count for sweeps that take `--threads`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn output_is_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8, 1_000] {
            assert_eq!(
                par_map(&items, threads, |x| x * 3 + 1),
                expect,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn more_threads_than_items_still_maps_every_item_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map(&["a", "b", "c"], 16, |s| {
            calls.fetch_add(1, Ordering::Relaxed);
            s.to_uppercase()
        });
        assert_eq!(out, ["A", "B", "C"]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        for threads in [0, 1, 8] {
            let out: Vec<u8> = par_map(&[] as &[u8], threads, |&b| b);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let ids = par_map(&[1, 2, 3], threads, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "{threads} threads");
        }
        // A single item never pays for a spawn either.
        let ids = par_map(&[1], 8, |_| std::thread::current().id());
        assert_eq!(ids, [caller]);
    }

    #[test]
    fn a_worker_panic_surfaces_its_own_payload() {
        for threads in [1, 4] {
            let items: Vec<u32> = (0..64).collect();
            let caught = panic::catch_unwind(|| {
                par_map(&items, threads, |&x| {
                    if x == 37 {
                        panic::panic_any(format!("item {x} failed"));
                    }
                    x
                })
            })
            .expect_err("the panic must propagate");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("item 37 failed"),
                "{threads} threads"
            );
        }
    }
}
