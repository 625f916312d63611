//! Store round-trip and corruption-rejection tests.
//!
//! The bit-identity contract: `WorldStore::open_bytes(save_bytes(out))`
//! reconstructs an [`IngestOutput`] whose every persisted component —
//! graph, contexts, frequency/IC bit patterns, mappings, reachability
//! labels, mapper tables — equals the original. Corruption anywhere in
//! the file must come back as a `Validation` error, never a panic or a
//! silently different world.

use std::sync::Arc;

use medkb_core::{ingest, IngestOutput, MappingMethod, RelaxConfig};
use medkb_corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
use medkb_embed::{SgnsConfig, SifModel, WordVectors};
use medkb_snomed::{MedWorld, WorldConfig};
use medkb_store::WorldStore;
use medkb_types::MedKbError;

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
    assert_eq!(a.ekg.to_parts(), b.ekg.to_parts(), "graph diverged");
    assert_eq!(a.contexts, b.contexts, "contexts diverged");
    assert_eq!(a.tag_of, b.tag_of, "context tags diverged");
    assert_eq!(a.freqs, b.freqs, "frequency/IC tables diverged");
    assert_eq!(a.mappings, b.mappings, "mappings diverged");
    assert_eq!(a.instances_of, b.instances_of, "instance index diverged");
    assert_eq!(a.flagged, b.flagged, "flagged set diverged");
    assert_eq!(a.reach.to_parts(), b.reach.to_parts(), "reachability diverged");
    assert_eq!(a.mapper.to_parts(), b.mapper.to_parts(), "mapper diverged");
    assert_eq!(a.shortcuts_added, b.shortcuts_added, "shortcut count diverged");
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

#[test]
fn truncated_file_is_rejected_at_every_length() {
    let out = tiny_world(14, MappingMethod::Exact);
    let bytes = WorldStore::save_bytes(&out);
    // Sample truncation points across the whole file, including the
    // header, the section table, and mid-section cuts.
    let step = (bytes.len() / 97).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        match WorldStore::open_bytes(&bytes[..cut]) {
            Err(MedKbError::Validation(report)) => assert!(!report.is_empty()),
            Err(other) => panic!("cut {cut}: unexpected error kind {other:?}"),
            Ok(_) => panic!("cut {cut}: truncated file opened successfully"),
        }
    }
}

#[test]
fn flipped_byte_is_rejected_everywhere() {
    let out = tiny_world(15, MappingMethod::Exact);
    let bytes = WorldStore::save_bytes(&out);
    let step = (bytes.len() / 211).max(1);
    for at in (0..bytes.len()).step_by(step) {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x20;
        match WorldStore::open_bytes(&corrupted) {
            Err(MedKbError::Validation(report)) => assert!(!report.is_empty()),
            Err(other) => panic!("byte {at}: unexpected error kind {other:?}"),
            Ok(_) => panic!("byte {at}: corrupted file opened successfully"),
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

#[test]
fn wrong_magic_is_rejected() {
    let out = tiny_world(17, MappingMethod::Exact);
    let mut bytes = WorldStore::save_bytes(&out);
    bytes[0] = b'X';
    assert!(matches!(WorldStore::open_bytes(&bytes), Err(MedKbError::Validation(_))));
}
