//! The workspace's one fork/join (DESIGN.md §9).
//!
//! Every sharded stage — mention counting, latent kNN, SGNS batches,
//! ingest mapping and shortcut discovery, frequency rollups, batch
//! relaxation and serving, the evaluation harness — splits its work here.
//! Work of `len` items is cut into contiguous chunks of
//! [`chunk_len`]`(len, threads)` items (the last may be shorter), each
//! chunk runs on its own scoped thread, and the per-chunk results come
//! back in chunk order. A stage whose per-item work is independent of the
//! other items therefore gets the sequential answer at any thread count.
//! One chunk runs on the calling thread: no spawn, no merge.

use std::ops::Range;
use std::sync::OnceLock;

/// Worker threads the host offers (`available_parallelism`; 1 when it
/// cannot be read). Read once per process: the query costs tens of
/// microseconds (it parses cgroup files on Linux), and every coalesced
/// dispatch and `/batch` request asks for it.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Length of each chunk when `len` items split over `threads` workers:
/// `len.div_ceil(threads)`, with `threads` and the result at least 1.
pub fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1)).max(1)
}

/// Run `f` once per contiguous chunk of `0..len` and return its results
/// in chunk order — the form for stages that keep per-worker state (a
/// scratch table, partial counts) across a chunk. No chunk when
/// `len == 0`; a single chunk runs on the calling thread. A worker's
/// panic resumes in the caller.
pub fn shard_chunks<T: Send>(
    len: usize,
    threads: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let chunk = chunk_len(len, threads);
    if chunk >= len {
        return if len == 0 { Vec::new() } else { vec![f(0..len)] };
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|lo| s.spawn(move || f(lo..(lo + chunk).min(len))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// Map `f` over `0..len` in chunks (see [`shard_chunks`]), concatenating
/// the results in index order: the sequential map whenever `f` is pure
/// per index.
pub fn shard_map<T: Send>(len: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if chunk_len(len, threads) >= len {
        return (0..len).map(f).collect();
    }
    shard_chunks(len, threads, |r| r.map(&f).collect::<Vec<T>>()).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_is_positive_and_stable() {
        let first = cores();
        assert!(first >= 1);
        assert!((0..100).all(|_| cores() == first));
        let other = std::thread::spawn(cores).join().expect("reader thread");
        assert_eq!(other, first, "one count for every thread");
    }

    #[test]
    fn chunks_are_contiguous_ordered_and_single_chunks_stay_inline() {
        let caller = std::thread::current().id();
        let f = |i: usize| i * i + 1;
        for len in 0..=17 {
            let sequential: Vec<usize> = (0..len).map(f).collect();
            for threads in 1..=9 {
                let chunks = shard_chunks(len, threads, |r| {
                    (r.clone().map(f).collect::<Vec<_>>(), r, std::thread::current().id())
                });
                let concat: Vec<usize> = chunks.iter().flat_map(|c| c.0.clone()).collect();
                assert_eq!(concat, sequential, "len {len}, threads {threads}");
                let expected = len.div_ceil(threads);
                for (i, (_, range, _)) in chunks.iter().enumerate() {
                    if i + 1 < chunks.len() {
                        assert_eq!(range.len(), expected, "len {len}, threads {threads}");
                    }
                }
                if chunks.len() == 1 {
                    assert_eq!(chunks[0].2, caller, "len {len}, threads {threads}");
                }
                assert_eq!(shard_map(len, threads, f), sequential);
            }
        }
        let panicked = std::panic::catch_unwind(|| {
            shard_map(4, 2, |i| if i == 3 { panic!("worker {i}") } else { i })
        });
        let payload = panicked.expect_err("a worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("worker 3"));
    }
}
