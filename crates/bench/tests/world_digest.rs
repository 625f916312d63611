//! The generated benchmark worlds, pinned bit for bit.
//!
//! Determinism tests elsewhere compare two runs of the same code, so they
//! cannot see a generator change that alters the world. These digests
//! (`medkb_bench::world_digest`) pin `scaled_world_and_corpus` at the
//! classic 4k benchmark world and at 20k; both already have colliding
//! concept names, so the generator's name claiming runs its suffix path.
//! A change meant to alter the world re-records the constants and says
//! why.

use medkb_bench::{scaled_world_and_corpus, world_digest};

fn digest_at(concepts: usize) -> u64 {
    let (world, corpus) = scaled_world_and_corpus(concepts);
    world_digest(&world, &corpus)
}

#[test]
fn classic_4k_world_is_pinned() {
    assert_eq!(digest_at(4_000), 0xe1a9_9da6_3c8d_a44e);
}

#[test]
fn world_20k_is_pinned() {
    assert_eq!(digest_at(20_000), 0x3af9_3558_40f2_e98a);
}
