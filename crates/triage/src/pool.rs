//! A tiny scoped worker pool for the class-replay dispatch.
//!
//! [`TriagePipeline::triage`](crate::TriagePipeline::triage) replays
//! each independent class on its own worker. [`parallel_map`] runs `f`
//! over every item on a shared pull queue and returns the results in
//! item order, so the serial commit that follows is the same at any
//! worker count.
//!
//! The pool is deliberately phase-scoped (no long-lived threads, no
//! channels): `std::thread::scope` lets `f` borrow the caller's stack —
//! the registered binaries and their prepared plans — and a worker panic
//! propagates at scope join instead of deadlocking the batch.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f(index, item)` over every item, using up to `workers` threads,
/// and returns one result per item, in item order.
///
/// Items are pulled from a shared queue, so a slow item does not idle
/// the other workers. `workers <= 1` (or a single item) runs on the
/// calling thread: no threads are spawned.
pub fn parallel_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let queue = &queue;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let job = queue
                    .lock()
                    .expect("no worker panics while holding the queue")
                    .pop_front();
                let Some((i, item)) = job else { break };
                let r = f(i, item);
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_preserves_order() {
        let out = parallel_map(1, vec![3, 1, 4, 1, 5], |i, x| (i, x * 2));
        assert_eq!(out, vec![(0, 6), (1, 2), (2, 8), (3, 2), (4, 10)]);
    }

    #[test]
    fn parallel_results_come_back_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, items, |i, x| {
            // Stagger finish times so slots fill out of order.
            std::thread::sleep(std::time::Duration::from_micros((64 - x) * 10));
            (i as u64) + x
        });
        let expect: Vec<u64> = (0..64).map(|x| 2 * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map(8, vec![1, 2], |_, x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = parallel_map(4, Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }
}
