//! The store streams, and a published world is shared, not copied:
//!
//! * `save` encodes every section in place, straight from the world's
//!   columns (an embedding mapper's vocabulary included), and writes it
//!   through a fixed staging buffer, so the live heap rises a constant
//!   amount whatever the world's size;
//! * `open` reads and decodes one section at a time, so the live heap
//!   stays within the decoded world plus one section;
//! * cloning an `IngestOutput` shares its large parts behind `Arc`s and
//!   copies only the small ones and the flagged bitset.
//!
//! The counting allocator is process-wide (`open` and `save` may hand
//! work to other threads), so this file holds one test: the harness runs
//! nothing beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use medkb_core::{ingest, ConceptMapper, IngestOutput, MappingMethod, RelaxConfig};
use medkb_corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
use medkb_embed::{EmbeddingIndex, SifModel, WordVectors};
use medkb_snomed::{MedWorld, SnomedConfig, WorldConfig};
use medkb_store::WorldStore;
use medkb_types::{IdVec, StringInterner};

const MIB: usize = 1 << 20;
/// What a save may add to the live heap: the 64 KiB staging buffer, the
/// file's write buffer and the header, with room to spare.
const SAVE_BOUND: usize = 256 * 1024;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    ALLOCATED.fetch_add(bytes, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    /// Counted as if the old and the new block were live at once, as they
    /// are when the block moves.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What the heap did while `f` ran, in bytes above where it started.
struct Heap {
    /// The highest the live heap rose.
    peak: usize,
    /// What stayed live at the end.
    kept: usize,
    /// Everything allocated, freed or not.
    allocated: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (Heap, T) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let allocated = ALLOCATED.load(Relaxed);
    let out = f();
    let heap = Heap {
        peak: PEAK.load(Relaxed) - start,
        kept: LIVE.load(Relaxed).saturating_sub(start),
        allocated: ALLOCATED.load(Relaxed) - allocated,
    };
    (heap, out)
}

#[test]
fn save_open_and_clone_stay_within_their_memory_bounds() {
    let world = MedWorld::generate(&WorldConfig {
        snomed: SnomedConfig { concepts: 20_000, seed: 52, ..SnomedConfig::default() },
        seed: 53,
        finding_instances: 2_000,
        drug_instances: 450,
        ..WorldConfig::default()
    });
    let corpus = CorpusGenerator::new(&world.terminology, &world.oracle).generate(&CorpusConfig {
        seed: 54,
        docs: 200,
        ..CorpusConfig::default()
    });
    let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
    let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
    let out = ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &config).unwrap();
    drop((world, corpus, counts));
    assert!(out.ekg.len() >= 20_000 && !out.flagged.is_empty());

    let path = std::env::temp_dir().join(format!("medkb-memory-bounds-{}.bin", std::process::id()));
    let (save, written) = measure(|| WorldStore::save(&out, &path).unwrap());
    let image = std::fs::read(&path).unwrap();
    assert_eq!(written, image.len() as u64);
    let largest = (0..9)
        .map(|i| {
            let at = 24 + i * 32 + 16;
            u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize
        })
        .max()
        .unwrap();
    drop(image);
    assert!(save.peak <= SAVE_BOUND, "save rose {} bytes", save.peak);

    let (open, opened) = measure(|| WorldStore::open(&path).unwrap());
    let _ = std::fs::remove_file(&path);
    assert!(
        open.peak <= open.kept + largest + MIB,
        "open rose {} bytes for a world of {} bytes; the largest section is {largest} bytes",
        open.peak,
        open.kept
    );
    assert!(medkb_core::outputs_identical(&opened, &out));

    let flagged_bitset = out.ekg.len().div_ceil(64) * 8;
    let (clone, copy) = measure(|| out.clone());
    assert!(
        clone.allocated < 64 * 1024 + flagged_bitset,
        "a clone allocated {} bytes (flagged bitset {flagged_bitset})",
        clone.allocated
    );
    assert!(medkb_core::outputs_identical(&copy, &out));

    // The same world behind an embedding mapper whose vocabulary alone is
    // larger than the bound: the vocabulary streams like every column.
    let (words, dim) = (40_000, 2);
    let mut vocab = StringInterner::with_capacity(words);
    for i in 0..words {
        vocab.intern(&format!("vocabulary-word-{i}"));
    }
    let vocab_bytes: usize = vocab.iter().map(|(_, w)| w.len() + 4).sum();
    assert!(vocab_bytes > SAVE_BOUND, "the vocabulary is {vocab_bytes} bytes");
    let vectors = WordVectors {
        vocab,
        vecs: vec![0.5; words * dim],
        counts: IdVec::filled(1, words),
        total_tokens: words as u64,
        dim,
    };
    let model = Arc::new(SifModel { vectors, a: 1e-3, pc: vec![0.0; dim] });
    let index = EmbeddingIndex::from_raw(dim, Vec::new(), Vec::new());
    let mapper = Arc::new(ConceptMapper::from_embedding(0.5, model, index));
    let embedded = IngestOutput { mapper, ..out.clone() };
    let (save, _) = measure(|| WorldStore::save(&embedded, &path).unwrap());
    let _ = std::fs::remove_file(&path);
    assert!(save.peak <= SAVE_BOUND, "an embedding world's save rose {} bytes", save.peak);
}
