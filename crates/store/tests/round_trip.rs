//! Store round-trip and corruption-rejection tests.
//!
//! The bit-identity contract: `WorldStore::open_bytes(save_bytes(out))`
//! reconstructs an [`IngestOutput`] whose every persisted component —
//! graph, contexts, frequency/IC bit patterns, mappings, reachability
//! labels, mapper tables — equals the original. Corruption anywhere in
//! the file must come back as a `Validation` error, never a panic or a
//! silently different world.

use std::path::PathBuf;
use std::sync::Arc;

use medkb_core::{
    ingest, ConceptMapper, Frequencies, FrequencyMode, IngestOutput, MappingMethod, RelaxConfig,
};
use medkb_ekg::{EdgeColumns, Ekg};
use medkb_corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
use medkb_embed::{EmbeddingIndex, SgnsConfig, SifModel, WordVectors};
use medkb_snomed::{MedWorld, WorldConfig};
use medkb_store::{xxh64, WorldStore};
use medkb_types::{ExtConceptId, Id, MedKbError};

fn tiny_world(seed: u64, mapping: MappingMethod) -> IngestOutput {
    let world = MedWorld::generate(&WorldConfig::tiny(seed));
    let generator = CorpusGenerator::new(&world.terminology, &world.oracle);
    let corpus = generator.generate(&CorpusConfig::tiny(seed ^ 0x11));
    let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
    let sif = match mapping {
        MappingMethod::Embedding { .. } => {
            let wv = WordVectors::train(&corpus, &SgnsConfig::tiny(seed ^ 0x22));
            Some(Arc::new(SifModel::fit(wv, &corpus, 1e-3)))
        }
        _ => None,
    };
    let config = RelaxConfig { mapping, ..RelaxConfig::default() };
    ingest(&world.kb, world.terminology.ekg.clone(), &counts, sif, &config).unwrap()
}

fn assert_same_world(a: &IngestOutput, b: &IngestOutput) {
    assert_eq!(a.ekg, b.ekg, "graph diverged");
    assert_eq!(a.contexts, b.contexts, "contexts diverged");
    assert_eq!(a.tag_of, b.tag_of, "context tags diverged");
    assert_eq!(a.freqs, b.freqs, "frequency/IC tables diverged");
    assert_eq!(a.mappings, b.mappings, "mappings diverged");
    assert_eq!(a.instances_of, b.instances_of, "instance index diverged");
    assert_eq!(a.flagged, b.flagged, "flagged set diverged");
    assert_eq!(a.reach, b.reach, "reachability diverged");
    assert!(a.mapper.bits_eq(&b.mapper), "mapper diverged");
    assert_eq!(a.shortcuts, b.shortcuts, "shortcuts diverged");
}

#[test]
fn round_trip_is_bit_identical_with_embedding_mapper() {
    let out = tiny_world(11, MappingMethod::embedding_default());
    let reopened = WorldStore::open_bytes(&WorldStore::save_bytes(&out)).unwrap();
    assert_same_world(&out, &reopened);
    // The reopened mapper answers online queries identically.
    let name = out.ekg.name(out.flagged.iter().next().unwrap());
    assert_eq!(out.mapper.map(&out.ekg, name), reopened.mapper.map(&reopened.ekg, name));
}

#[test]
fn round_trip_is_bit_identical_with_edit_mapper() {
    let out = tiny_world(12, MappingMethod::edit_tau2());
    let reopened = WorldStore::open_bytes(&WorldStore::save_bytes(&out)).unwrap();
    assert_same_world(&out, &reopened);
}

#[test]
fn file_round_trip_through_disk() {
    let out = tiny_world(13, MappingMethod::Exact);
    let path = std::env::temp_dir().join(format!("medkb-store-test-{}.bin", std::process::id()));
    let written = WorldStore::save(&out, &path).unwrap();
    assert!(written > 0);
    let reopened = WorldStore::open(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_same_world(&out, &reopened);
}

/// A scratch file for `test`, removed when dropped.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(test: &str) -> Self {
        Self(std::env::temp_dir().join(format!("medkb-store-{test}-{}.bin", std::process::id())))
    }

    /// Both ways of opening `bytes`: from memory, and from this file.
    fn open_both(&self, bytes: &[u8]) -> [medkb_types::Result<IngestOutput>; 2] {
        std::fs::write(&self.0, bytes).unwrap();
        [WorldStore::open_bytes(bytes), WorldStore::open(&self.0)]
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn truncated_file_is_rejected_at_every_length() {
    let out = tiny_world(14, MappingMethod::Exact);
    let bytes = WorldStore::save_bytes(&out);
    let file = ScratchFile::new("truncated");
    // Sample truncation points across the whole file, including the
    // header, the section table, and mid-section cuts.
    let step = (bytes.len() / 97).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        for opened in file.open_both(&bytes[..cut]) {
            match opened {
                Err(MedKbError::Validation(report)) => assert!(!report.is_empty()),
                Err(other) => panic!("cut {cut}: unexpected error kind {other:?}"),
                Ok(_) => panic!("cut {cut}: truncated file opened successfully"),
            }
        }
    }
}

#[test]
fn flipped_byte_is_rejected_everywhere() {
    let out = tiny_world(15, MappingMethod::Exact);
    let bytes = WorldStore::save_bytes(&out);
    let file = ScratchFile::new("flipped");
    let step = (bytes.len() / 211).max(1);
    for at in (0..bytes.len()).step_by(step) {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x20;
        for opened in file.open_both(&corrupted) {
            match opened {
                Err(MedKbError::Validation(report)) => assert!(!report.is_empty()),
                Err(other) => panic!("byte {at}: unexpected error kind {other:?}"),
                Ok(_) => panic!("byte {at}: corrupted file opened successfully"),
            }
        }
    }
}

/// A checksum-valid table that declares a section reaching past the end of
/// the file is a defect naming that section, found before any buffer for
/// it is allocated (a length near `u64::MAX` must not overflow the check).
#[test]
fn section_longer_than_the_file_is_rejected() {
    let out = tiny_world(22, MappingMethod::Exact);
    let clean = WorldStore::save_bytes(&out);
    let file = ScratchFile::new("overlong");
    for (section, name) in [(0, "ekg"), (2, "freqs"), (6, "shortcuts"), (8, "meta")] {
        let len_at = 24 + section * 32 + 16;
        let offset = le_u64(&clean, len_at - 8) as u64;
        for len in [clean.len() as u64 - offset + 8, u64::MAX - 3] {
            let mut bytes = clean.clone();
            bytes[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
            reseal_table(&mut bytes);
            for opened in file.open_both(&bytes) {
                match opened {
                    Err(MedKbError::Validation(report)) => assert!(
                        report
                            .defects()
                            .iter()
                            .any(|d| d.document == name && d.message.contains("exceeds file size")),
                        "{name} declared {len} bytes: {report}"
                    ),
                    other => panic!("{name} declared {len} bytes: expected a defect: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn wrong_version_is_rejected_with_a_version_defect() {
    let out = tiny_world(16, MappingMethod::Exact);
    let mut bytes = WorldStore::save_bytes(&out);
    bytes[8] = 0xFF; // format version field
    match WorldStore::open_bytes(&bytes) {
        Err(MedKbError::Validation(report)) => {
            assert!(
                report.defects().iter().any(|d| d.message.contains("version")),
                "report does not mention the version: {report}"
            );
        }
        other => panic!("expected a validation error, got {other:?}"),
    }
}

/// An image of the previous format, whose graph section still carried the
/// shortcuts, is a typed version defect, from memory and from disk.
#[test]
fn a_format_1_image_is_a_version_defect() {
    let out = tiny_world(16, MappingMethod::Exact);
    let mut bytes = WorldStore::save_bytes(&out);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    reseal_table(&mut bytes);
    let file = ScratchFile::new("format-1");
    for opened in file.open_both(&bytes) {
        match opened {
            Err(MedKbError::Validation(report)) => assert!(
                report.defects().iter().any(|d| d.message.contains("unsupported format version 1")),
                "{report}"
            ),
            other => panic!("expected a version defect, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let out = tiny_world(17, MappingMethod::Exact);
    let mut bytes = WorldStore::save_bytes(&out);
    bytes[0] = b'X';
    assert!(matches!(WorldStore::open_bytes(&bytes), Err(MedKbError::Validation(_))));
}

/// The store format is pinned byte for byte: the length and xxh64 (seed 0)
/// of two saved worlds, recorded when format 2 moved the shortcuts out of
/// the graph section (DESIGN.md §14.2). A change here is a format change,
/// which needs a new format version, not a new pin.
#[test]
fn saved_bytes_are_pinned() {
    for (out, len, digest) in [
        (tiny_world(13, MappingMethod::Exact), 183_536, 0xffe2_ddd0_25a0_932a_u64),
        (tiny_world(11, MappingMethod::embedding_default()), 295_144, 0x1a2b_6576_77fd_d466),
    ] {
        let bytes = WorldStore::save_bytes(&out);
        assert_eq!((bytes.len(), xxh64(&bytes, 0)), (len, digest), "store bytes changed");
    }
}

/// Little-endian reads at byte offsets of a store image.
fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn le_u64(b: &[u8], at: usize) -> usize {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize
}

/// Recompute every section checksum and then the section-table checksum,
/// so a patched image reaches the section decoders.
fn reseal(bytes: &mut [u8]) {
    let count = le_u32(bytes, 12) as usize;
    for i in 0..count {
        let entry = 24 + i * 32;
        let (id, offset, len) =
            (le_u32(bytes, entry), le_u64(bytes, entry + 8), le_u64(bytes, entry + 16));
        let sum = xxh64(&bytes[offset..offset + len], u64::from(id));
        bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    }
    reseal_table(bytes);
}

/// Recompute the section-table checksum alone.
fn reseal_table(bytes: &mut [u8]) {
    let count = le_u32(bytes, 12) as usize;
    let sum = xxh64(&bytes[24..24 + count * 32], u64::from(le_u32(bytes, 8)));
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

/// Where the `ekg` section's arrays sit in an image: the start of each
/// array's elements, in write order (`strings` lists give their blob).
#[derive(Debug)]
struct EkgLayout {
    n: u32,
    lookup_keys: (usize, usize),
    lookup_values: usize,
    /// `[up, down]` edge columns: where each one's offsets and targets start.
    edges: [(usize, usize); 2],
    topo: usize,
}

fn ekg_layout(bytes: &[u8]) -> EkgLayout {
    let mut pos = le_u64(bytes, 24 + 8); // section 0's offset
    let n = le_u64(bytes, pos) as u32;
    pos += 8;
    let pad8 = |p: usize| p.div_ceil(8) * 8;
    // A u32 array: count, elements, padding. Returns the elements' start.
    let u32s = |pos: &mut usize| {
        let start = *pos + 8;
        *pos = pad8(start + 4 * le_u64(bytes, *pos));
        start
    };
    // A string list: count, offsets, padding, blob length, blob, padding.
    // Returns the offset table's and the blob's starts.
    let strings = |pos: &mut usize| {
        let offsets = *pos + 8;
        *pos = pad8(offsets + 4 * (le_u64(bytes, *pos) + 1));
        let blob = *pos + 8;
        *pos = pad8(blob + le_u64(bytes, *pos));
        (offsets, blob)
    };
    strings(&mut pos); // names
    u32s(&mut pos); // synonym offsets
    strings(&mut pos); // synonyms
    let lookup_keys = strings(&mut pos);
    u32s(&mut pos); // lookup offsets
    let lookup_values = u32s(&mut pos);
    let mut edges = [(0, 0); 2];
    for e in &mut edges {
        *e = (u32s(&mut pos), u32s(&mut pos));
    }
    pos = pad8(pos + 4); // root
    let topo = u32s(&mut pos);
    EkgLayout { n, lookup_keys, lookup_values, edges, topo }
}

/// `cols` with concept `c`'s list emptied.
fn without_row(cols: &EdgeColumns, c: ExtConceptId) -> EdgeColumns {
    let mut out = EdgeColumns { offsets: vec![0], targets: Vec::new() };
    for x in (0..cols.offsets.len() - 1).map(ExtConceptId::from_usize) {
        if x != c {
            out.targets.extend_from_slice(cols.row(x));
        }
        out.offsets.push(out.targets.len() as u32);
    }
    out
}

/// A checksum-valid image whose graph breaks one invariant the decoder
/// checks is rejected with a defect naming `ekg` — never opened, never a
/// panic later in the scan or a binary search, never a different answer.
#[test]
fn checksum_valid_graph_defects_are_rejected_at_open() {
    let out = tiny_world(21, MappingMethod::Exact);
    let clean = WorldStore::save_bytes(&out);
    let at = ekg_layout(&clean);
    let (key_offsets, key_blob) = at.lookup_keys;
    // The last key starting with an ASCII byte: its predecessor starts
    // with an alphanumeric byte, above '/', so '/' puts them out of order.
    let keys = le_u64(&clean, key_offsets - 8);
    let key_start = (1..keys)
        .rev()
        .map(|k| key_blob + le_u32(&clean, key_offsets + 4 * k) as usize)
        .find(|&s| s < key_blob + le_u64(&clean, key_blob - 8) && clean[s] < 0x80)
        .expect("an ASCII-initial key");
    let [up, down] = at.edges;
    // An offset table that starts at 1 but still ascends: that of the
    // direction whose first row is not empty.
    let starts_at_one = [up, down]
        .into_iter()
        .find(|e| le_u32(&clean, e.0 + 4) >= 1)
        .expect("a non-empty first row");
    let u32_patches = [
        ("edge target out of range", up.1, at.n),
        ("edge target out of range", down.1, at.n + 7),
        ("edge arrays are inconsistent", starts_at_one.0, 1),
        ("lookup id out of range", at.lookup_values, at.n),
        ("not a permutation", at.topo + 4, le_u32(&clean, at.topo)),
    ];
    let mut broken: Vec<(&str, Vec<u8>)> = u32_patches
        .iter()
        .map(|&(want, pos, v)| {
            let mut b = clean.clone();
            b[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
            reseal(&mut b);
            (want, b)
        })
        .collect();
    let mut unsorted = clean.clone();
    unsorted[key_start] = b'/';
    reseal(&mut unsorted);
    broken.push(("not strictly ascending", unsorted));
    // Whole-graph defects, saved through the graph's own columns: one
    // flagged concept's edge lists emptied (its neighbours still list it),
    // every depth set to 0, and `topo` reversed (parents first).
    let flagged = out.flagged.iter().find(|&c| !out.ekg.children(c).is_empty()).unwrap();
    let mut emptied = out.ekg.parts().clone();
    emptied.up = without_row(&emptied.up, flagged);
    emptied.down = without_row(&emptied.down, flagged);
    let mut flat = out.ekg.parts().clone();
    flat.depth.fill(0);
    let mut reversed = out.ekg.parts().clone();
    reversed.topo.reverse();
    for (want, parts) in
        [("mirror", emptied), ("depth", flat), ("against topo", reversed)]
    {
        let tampered = IngestOutput { ekg: Arc::new(Ekg::from_parts(parts)), ..out.clone() };
        broken.push((want, WorldStore::save_bytes(&tampered)));
    }
    assert!(WorldStore::open_bytes(&clean).is_ok());
    for (want, bytes) in broken {
        assert_defect(&bytes, "ekg", want);
    }
}

/// Where the `shortcuts` section's three u32 columns (descendants,
/// ancestors, distances) start in an image, and how many shortcuts it has.
fn shortcut_columns(bytes: &[u8]) -> ([usize; 3], usize) {
    let mut pos = le_u64(bytes, 24 + 6 * 32 + 8); // section 6's offset
    let count = le_u64(bytes, pos);
    let mut columns = [0; 3];
    for column in &mut columns {
        *column = pos + 8;
        pos = (pos + 8 + 4 * count).div_ceil(8) * 8;
    }
    (columns, count)
}

/// A checksum-valid `shortcuts` section that breaks a rule ingestion's
/// overlay obeys is a `shortcuts` defect at open, from memory and from
/// disk: an end past the graph, an "ancestor" that is not one, a one-hop
/// distance, a shortcut beside a parent edge, and a repeat.
#[test]
fn checksum_valid_shortcut_defects_are_rejected_at_open() {
    let out = tiny_world(21, MappingMethod::Exact);
    let clean = WorldStore::save_bytes(&out);
    let ([desc, anc, dist], count) = shortcut_columns(&clean);
    assert!(count >= 2, "the world has {count} shortcuts");
    let (d0, a0, w0) = out.shortcuts.list()[0];
    let n = out.ekg.len() as u32;
    let patched = |edits: &[(usize, u32)]| {
        let mut b = clean.clone();
        for &(pos, v) in edits {
            b[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
        }
        reseal(&mut b);
        b
    };
    let parent = out.ekg.parents(d0)[0];
    let broken = [
        (patched(&[(desc, n)]), "out of range"),
        (patched(&[(anc, n + 3)]), "out of range"),
        (patched(&[(desc, a0.raw()), (anc, d0.raw())]), "not an ancestor"),
        (patched(&[(dist, 1)]), "at least 2 hops"),
        (patched(&[(anc, parent.raw())]), "already exists"),
        (patched(&[(desc + 4, d0.raw()), (anc + 4, a0.raw()), (dist + 4, w0)]), "already exists"),
    ];
    let file = ScratchFile::new("shortcuts");
    assert!(WorldStore::open_bytes(&clean).is_ok());
    for (bytes, want) in broken {
        for opened in file.open_both(&bytes) {
            match opened {
                Err(MedKbError::Validation(report)) => assert!(
                    report
                        .defects()
                        .iter()
                        .any(|d| d.document == "shortcuts" && d.message.contains(want)),
                    "expected a shortcuts defect containing {want:?}: {report}"
                ),
                other => panic!("{want}: expected a shortcuts defect, got {other:?}"),
            }
        }
    }
}

/// `open_bytes` of `bytes` fails with a defect of `section` whose message
/// contains `want`.
fn assert_defect(bytes: &[u8], section: &str, want: &str) {
    match WorldStore::open_bytes(bytes) {
        Err(MedKbError::Validation(report)) => assert!(
            report.defects().iter().any(|d| d.document == section && d.message.contains(want)),
            "expected a {section} defect containing {want:?}: {report}"
        ),
        Err(other) => panic!("{want}: unexpected error kind {other:?}"),
        Ok(_) => panic!("{want}: the broken {section} section opened"),
    }
}

/// Frequency tables sized for another graph, holding a non-finite entry or
/// carrying a minimum above their table's are a `freqs` defect at open: the
/// first would index out of bounds on every query, the second scores every
/// answer NaN, the third lets score-bounded pruning drop answers.
#[test]
fn checksum_valid_freqs_defects_are_rejected_at_open() {
    let out = tiny_world(23, MappingMethod::Exact);
    let fragment = medkb_snomed::figures::paper_fragment().ekg;
    assert_ne!(fragment.len(), out.ekg.len());
    let no_counts = MentionCounts::from_direct(Default::default(), Default::default(), 0);
    let other_graph =
        Frequencies::compute(&fragment, &no_counts, FrequencyMode::PaperRecursive, false);
    let mut nan_ic = (*out.freqs).clone();
    nan_ic.ic_per_tag[0][out.ekg.root()] = f64::NAN;
    let mut infinite_total = (*out.freqs).clone();
    infinite_total.per_tag_total[1] = f64::INFINITY;
    let mut inflated_tag_min = (*out.freqs).clone();
    inflated_tag_min.min_ic_per_tag[0] += 1.0;
    let mut inflated_intrinsic_min = (*out.freqs).clone();
    inflated_intrinsic_min.min_intrinsic += 0.5;
    let cases = [
        (other_graph, "entries for"),
        (nan_ic, "non-finite"),
        (infinite_total, "non-finite"),
        (inflated_tag_min, "minimum"),
        (inflated_intrinsic_min, "minimum"),
    ];
    assert!(WorldStore::open_bytes(&WorldStore::save_bytes(&out)).is_ok());
    for (freqs, want) in cases {
        let tampered = IngestOutput { freqs: Arc::new(freqs), ..out.clone() };
        assert_defect(&WorldStore::save_bytes(&tampered), "freqs", want);
    }
}

/// Where the `reach` section's six u32 columns (`tin`, `tout`,
/// `tree_depth`, `exc`, `set_offsets`, `set_members`) start in an image,
/// and how many elements each has.
fn reach_columns(bytes: &[u8]) -> [(usize, usize); 6] {
    let mut pos = le_u64(bytes, 24 + 5 * 32 + 8); // section 5's offset
    let mut columns = [(0, 0); 6];
    for column in &mut columns {
        let len = le_u64(bytes, pos);
        *column = (pos + 8, len);
        pos = (pos + 8 + 4 * len).div_ceil(8) * 8;
    }
    columns
}

/// A checksum-valid reachability section whose labels or exception sets
/// break what the probes rely on is a `reach` defect at open — never a
/// panic in `descendant_counts`, never a binary search over an unsorted
/// set that answers `is_ancestor` wrongly.
#[test]
fn checksum_valid_reach_defects_are_rejected_at_open() {
    let out = tiny_world(21, MappingMethod::Exact);
    let clean = WorldStore::save_bytes(&out);
    let n = out.ekg.len() as u32;
    let [(tin, _), (tout, _), _, _, (offsets, sets_plus_one), (members, member_count)] =
        reach_columns(&clean);
    let u32_at = |column: usize, i: usize| le_u32(&clean, column + 4 * i);
    let patched = |edits: &[(usize, u32)]| {
        let mut b = clean.clone();
        for &(pos, v) in edits {
            b[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
        }
        reseal(&mut b);
        b
    };
    // The first pooled set with two or more members, its first two swapped.
    let set = (0..sets_plus_one - 1)
        .find(|&s| u32_at(offsets, s + 1) - u32_at(offsets, s) >= 2)
        .expect("a multi-member exception set");
    let first = members + 4 * u32_at(offsets, set) as usize;
    let (a, b) = (le_u32(&clean, first), le_u32(&clean, first + 4));
    // A concept below the root: its DFS entry index is above 0.
    let below = (0..n as usize).find(|&c| u32_at(tin, c) > 0).expect("a non-root concept");
    let broken = [
        (patched(&[(members + 4 * (member_count - 1), n + 5)]), "member out of range"),
        (patched(&[(first, b), (first + 4, a)]), "not strictly ascending"),
        (patched(&[(tin + 4, u32_at(tin, 0))]), "tin is not a permutation"),
        (patched(&[(tout + 4 * below, u32_at(tin, below) - 1)]), "subtree end"),
        (patched(&[(tout, n)]), "subtree end"),
    ];
    assert!(WorldStore::open_bytes(&clean).is_ok());
    for (bytes, want) in broken {
        assert_defect(&bytes, "reach", want);
    }
}

/// An embedding index whose payloads lie outside the graph is a `mapper`
/// defect at open: a lookup that returned one would panic on its first use
/// (`Ekg::name`).
#[test]
fn checksum_valid_mapper_defects_are_rejected_at_open() {
    let out = tiny_world(11, MappingMethod::embedding_default());
    let MappingMethod::Embedding { threshold } = out.mapper.method() else {
        panic!("an embedding mapper")
    };
    let (model, index) = out.mapper.embedding().expect("an embedding model and index");
    let (dim, payloads, data) = index.to_raw();
    let n = out.ekg.len() as u32;
    let outside = EmbeddingIndex::from_raw(dim, vec![n + 5; payloads.len()], data.to_vec());
    let mapper = ConceptMapper::from_embedding(threshold, Arc::new(model.clone()), outside);
    let tampered = IngestOutput { mapper: Arc::new(mapper), ..out.clone() };
    assert!(WorldStore::open_bytes(&WorldStore::save_bytes(&out)).is_ok());
    assert_defect(&WorldStore::save_bytes(&tampered), "mapper", "payload out of range");
}
