//! Minimal deterministic parallel map over std scoped threads.
//!
//! Independent holistic fixpoints share nothing — each owns its pools — so
//! the points of a sweep run in parallel and give the same results at any
//! thread count.

/// Applies `f` to every item, splitting the index space into contiguous
/// chunks across `threads` workers. Results come back in input order.
///
/// `threads == 0` uses the available parallelism; `threads == 1` (or a
/// single-item input, which never asks for the core count) runs inline
/// without spawning.
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = match threads {
        _ if items.len() <= 1 => 1,
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let chunk_size = items.len().div_ceil(threads);
    let f = &f;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            results.push(h.join().expect("analysis worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<i64> = (0..1000).collect();
        for threads in [0, 1, 2, 3, 7, 16] {
            let out = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as i64) * (i as i64), "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[42], 4, |&x| x + 1), vec![43]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(&[1, 2, 3], 64, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }
}
