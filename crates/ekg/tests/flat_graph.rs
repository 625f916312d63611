//! A graph stays flat: cloning, adopting and dropping one costs the same
//! few heap blocks whatever its size. A regression to per-concept edge
//! vectors or boxed strings makes these counts grow with the graph. The
//! reachability index is flat too: its exception sets share one pool.
//!
//! The counting allocator counts per thread, so the test harness's own
//! threads cannot disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use medkb_ekg::{Ekg, EkgBuilder, ReachabilityIndex};
use medkb_types::{ExtConceptId, Id};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(blocks allocated, blocks freed)` on this thread while `f` runs.
fn blocks<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    let (a, d) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    ((ALLOCS.with(Cell::get) - a, FREES.with(Cell::get) - d), out)
}

/// A rooted DAG of `n` concepts with synonyms, second parents, and a
/// shortcut from every fourth concept two or more hops down to the root.
fn graph(n: usize) -> Ekg {
    let mut b = EkgBuilder::new();
    let ids: Vec<ExtConceptId> = (0..n).map(|i| b.concept(&format!("concept {i}"))).collect();
    for i in 1..n {
        let p = (i - 1) / 2;
        b.is_a(ids[i], ids[p]);
        if i % 5 == 0 && p > 0 {
            b.is_a(ids[i], ids[p - 1]);
        }
        if i % 3 == 0 {
            b.synonym(ids[i], &format!("synonym of {i}"));
        }
    }
    let mut g = b.build().expect("valid DAG");
    let root = g.root();
    let batch: Vec<(ExtConceptId, ExtConceptId, u32)> = g
        .concepts()
        .filter(|c| c.as_usize() % 4 == 0 && g.depth(*c) >= 2)
        .map(|c| (c, root, g.depth(c)))
        .collect();
    let reach = ReachabilityIndex::build(&g);
    g.add_shortcuts(&batch, &reach).expect("valid shortcuts");
    assert!(g.shortcut_count() > 0 && !g.parts().synonyms.is_empty());
    g
}

#[test]
fn clone_adopt_and_drop_cost_a_fixed_number_of_blocks() {
    let mut seen = Vec::new();
    for n in [2_000, 20_000] {
        let g = graph(n);
        let (cloned, copy) = blocks(|| g.clone());
        assert_eq!(copy, g);
        let parts = g.parts().clone();
        let (adopted, from_parts) = blocks(|| Ekg::from_parts(parts));
        assert_eq!(from_parts, g);
        let (dropped, ()) = blocks(|| drop(copy));
        seen.push((n, cloned.0, adopted.0, dropped.1));
    }
    let (_, clone_blocks, adopt_blocks, drop_blocks) = seen[0];
    for &(n, c, a, d) in &seen {
        assert_eq!((c, a, d), (clone_blocks, adopt_blocks, drop_blocks), "{n} concepts: {seen:?}");
    }
    assert!(clone_blocks <= 32 && drop_blocks <= 32 && adopt_blocks <= 2, "{seen:?}");
}

#[test]
fn a_reachability_clone_costs_at_most_eight_blocks() {
    for n in [2_000, 20_000] {
        let reach = ReachabilityIndex::build(&graph(n));
        assert!(reach.exception_set_count() > 8, "{n} concepts: too few sets to tell");
        let (cloned, copy) = blocks(|| reach.clone());
        assert_eq!(copy, reach);
        assert!(cloned.0 <= 8, "{n} concepts: a clone took {} blocks", cloned.0);
    }
}
