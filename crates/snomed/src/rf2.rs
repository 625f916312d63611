//! RF2-flavoured TSV exchange format for terminologies.
//!
//! Real SNOMED CT ships as RF2 tab-separated release files. To keep
//! generated worlds reproducible across processes (and to give downstream
//! users a way to load *their own* terminology, which is the paper's
//! "external knowledge source is pluggable" stance), this module serializes
//! an [`Ekg`] to two TSV documents and parses them back:
//!
//! * **concepts**: `id <TAB> primaryName <TAB> synonym|synonym|…`
//! * **relationships**: `childId <TAB> parentId` (native is-a edges only;
//!   shortcut edges are an ingestion artifact and are never exported).

use std::collections::HashMap;

use medkb_ekg::{Ekg, EkgBuilder};
use medkb_types::{ExtConceptId, Id, MedKbError, Result, ValidationReport};

/// Serialize the native part of `ekg` to `(concepts_tsv, relationships_tsv)`.
pub fn to_tsv(ekg: &Ekg) -> (String, String) {
    let mut concepts = String::new();
    let mut rels = String::new();
    for c in ekg.concepts() {
        let syns: Vec<&str> = ekg.synonyms(c).collect();
        concepts.push_str(&format!("{}\t{}\t{}\n", c.as_u32(), ekg.name(c), syns.join("|")));
        for p in ekg.parents(c) {
            rels.push_str(&format!("{}\t{}\n", c.as_u32(), p.as_u32()));
        }
    }
    (concepts, rels)
}

/// Parse a terminology from TSV documents produced by [`to_tsv`] (or by an
/// external exporter following the same layout).
///
/// # Errors
/// [`MedKbError::Validation`] listing **every** malformed line, dangling
/// id, duplicate raw id, and duplicate concept name across both documents
/// (not just the first one found), plus the usual structural errors from
/// [`EkgBuilder::build`] once the documents themselves are clean.
pub fn from_tsv(concepts_tsv: &str, relationships_tsv: &str) -> Result<Ekg> {
    let mut report = ValidationReport::new();
    let mut builder = EkgBuilder::new();
    let mut id_map: HashMap<u32, ExtConceptId> = HashMap::new();
    // The builder interns concepts by name, so a repeated primary name
    // would silently alias two raw ids onto one concept. Track first-seen
    // names and reject the collision instead.
    let mut name_line: HashMap<String, usize> = HashMap::new();
    for (lineno, line) in concepts_tsv.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (raw_id, name, syns) = match (parts.next(), parts.next(), parts.next()) {
            (Some(id), Some(name), syns) => (id, name, syns.unwrap_or("")),
            _ => {
                report.defect("concepts", Some(lineno + 1), "expected 2-3 tab fields");
                continue;
            }
        };
        let raw: u32 = match raw_id.parse() {
            Ok(n) => n,
            Err(_) => {
                report.defect("concepts", Some(lineno + 1), format!("bad id {raw_id:?}"));
                continue;
            }
        };
        if name.is_empty() {
            report.defect("concepts", Some(lineno + 1), "empty name");
            continue;
        }
        if let Some(&first) = name_line.get(name) {
            report.defect(
                "concepts",
                Some(lineno + 1),
                format!("duplicate concept name {name:?} (first on line {first})"),
            );
            continue;
        }
        name_line.insert(name.to_string(), lineno + 1);
        let id = builder.concept(name);
        if id_map.insert(raw, id).is_some() {
            report.defect("concepts", Some(lineno + 1), format!("duplicate id {raw}"));
            continue;
        }
        for syn in syns.split('|').filter(|s| !s.is_empty()) {
            builder.synonym(id, syn);
        }
    }
    for (lineno, line) in relationships_tsv.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(2, '\t');
        let (child, parent) = match (parts.next(), parts.next()) {
            (Some(c), Some(p)) => (c, p),
            _ => {
                report.defect("relationships", Some(lineno + 1), "expected 2 tab fields");
                continue;
            }
        };
        let mut resolve = |raw: &str| -> Option<ExtConceptId> {
            let n: u32 = match raw.parse() {
                Ok(n) => n,
                Err(_) => {
                    report.defect("relationships", Some(lineno + 1), format!("bad id {raw:?}"));
                    return None;
                }
            };
            let hit = id_map.get(&n).copied();
            if hit.is_none() {
                report.defect(
                    "relationships",
                    Some(lineno + 1),
                    format!("unknown concept id {n}"),
                );
            }
            hit
        };
        let (child, parent) = (resolve(child), resolve(parent));
        if let (Some(c), Some(p)) = (child, parent) {
            builder.is_a(c, p);
        }
    }
    report.into_result()?;
    builder.build()
}

/// Write both TSV documents to `dir` as `concepts.tsv` / `relationships.tsv`.
pub fn save_dir(ekg: &Ekg, dir: &std::path::Path) -> std::io::Result<()> {
    let (concepts, rels) = to_tsv(ekg);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("concepts.tsv"), concepts)?;
    std::fs::write(dir.join("relationships.tsv"), rels)?;
    Ok(())
}

/// Load a terminology saved by [`save_dir`].
pub fn load_dir(dir: &std::path::Path) -> Result<Ekg> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| MedKbError::Corrupt {
            detail: format!("cannot read {name}: {e}"),
        })
    };
    from_tsv(&read("concepts.tsv")?, &read("relationships.tsv")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SnomedConfig;
    use crate::generator::GeneratedTerminology;

    #[test]
    fn roundtrip_preserves_structure() {
        let t = GeneratedTerminology::generate(&SnomedConfig::tiny(3));
        let (c, r) = to_tsv(&t.ekg);
        let back = from_tsv(&c, &r).unwrap();
        assert_eq!(back.len(), t.ekg.len());
        for concept in t.ekg.concepts() {
            let name = t.ekg.name(concept);
            let hit = back.lookup_name(name);
            assert!(!hit.is_empty(), "lost {name:?}");
        }
        assert_eq!(back.edge_count(), t.ekg.edge_count());
        assert_eq!(back.root(), t.ekg.root());
    }

    #[test]
    fn synonyms_roundtrip() {
        let f = crate::figures::paper_fragment();
        let (c, r) = to_tsv(&f.ekg);
        let back = from_tsv(&c, &r).unwrap();
        assert!(!back.lookup_name("pyrexia").is_empty());
    }

    #[test]
    fn rejects_malformed_concepts() {
        assert!(matches!(from_tsv("not-a-number\tname\t\n", ""), Err(MedKbError::Validation(_))));
        assert!(matches!(from_tsv("singlefield\n", ""), Err(MedKbError::Validation(_))));
        assert!(matches!(from_tsv("1\t\t\n", ""), Err(MedKbError::Validation(_))));
    }

    #[test]
    fn rejects_duplicate_concept_id() {
        let tsv = "1\ta\t\n1\tb\t\n";
        assert!(matches!(from_tsv(tsv, ""), Err(MedKbError::Validation(_))));
    }

    #[test]
    fn rejects_duplicate_concept_name() {
        // Interning would silently alias raw ids 1 and 2 onto one concept;
        // the loader must surface the collision instead.
        let tsv = "1\tfever\t\n2\tfever\t\n";
        match from_tsv(tsv, "") {
            Err(MedKbError::Validation(r)) => {
                assert_eq!(r.len(), 1);
                let d = r.defects()[0].to_string();
                assert!(d.contains("duplicate concept name"), "{d}");
                assert!(d.contains("first on line 1"), "{d}");
            }
            other => panic!("expected validation error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_dangling_relationship() {
        let concepts = "1\troot\t\n2\tchild\t\n";
        assert!(matches!(from_tsv(concepts, "2\t99\n"), Err(MedKbError::Validation(_))));
        assert!(matches!(from_tsv(concepts, "2\n"), Err(MedKbError::Validation(_))));
    }

    #[test]
    fn reports_every_defect_not_just_the_first() {
        let concepts = "x\ta\t\n1\t\t\n1\tb\t\n1\tc\t\n"; // bad id, empty name, dup raw id
        let rels = "zz\t1\n9\t9\n"; // bad id (×1 line), unknown ids (×1 line, both ends)
        match from_tsv(concepts, rels) {
            Err(MedKbError::Validation(r)) => {
                assert_eq!(r.len(), 6, "{r}");
                assert!(r.defects().iter().any(|d| d.document == "concepts"));
                assert!(r.defects().iter().any(|d| d.document == "relationships"));
            }
            other => panic!("expected validation error, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = GeneratedTerminology::generate(&SnomedConfig::tiny(9));
        let dir = std::env::temp_dir().join(format!("medkb-rf2-test-{}", std::process::id()));
        save_dir(&t.ekg, &dir).unwrap();
        let back = load_dir(&dir).unwrap();
        assert_eq!(back.len(), t.ekg.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Malformed input must produce an error, never a panic.
            #[test]
            fn prop_from_tsv_never_panics(
                concepts in "[\\x20-\\x7e\\t\\n]{0,200}",
                rels in "[\\x20-\\x7e\\t\\n]{0,120}",
            ) {
                let _ = from_tsv(&concepts, &rels);
            }

            /// Non-ASCII input (combining marks, CJK, control chars) must
            /// error cleanly too, never panic.
            #[test]
            fn prop_from_tsv_never_panics_unicode(
                concepts in "([\\x20-\\x7e\\t\\n]|.){0,160}",
                rels in "([\\x20-\\x7e\\t\\n]|.){0,80}",
            ) {
                let _ = from_tsv(&concepts, &rels);
            }

            /// Raw bytes (decoded lossily, as an external tool would) never
            /// panic the loader.
            #[test]
            fn prop_from_tsv_never_panics_bytes(
                concepts in proptest::collection::vec(any::<u8>(), 0..256),
                rels in proptest::collection::vec(any::<u8>(), 0..128),
            ) {
                let c = String::from_utf8_lossy(&concepts);
                let r = String::from_utf8_lossy(&rels);
                let _ = from_tsv(&c, &r);
            }

            /// Structurally valid random inputs round-trip or error cleanly.
            #[test]
            fn prop_valid_lines_roundtrip(names in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
                let mut distinct: Vec<String> = names.clone();
                distinct.sort();
                distinct.dedup();
                let mut concepts = String::new();
                let mut rels = String::new();
                for (i, n) in distinct.iter().enumerate() {
                    concepts.push_str(&format!("{i}\t{n}-{i}\t\n"));
                    if i > 0 {
                        rels.push_str(&format!("{i}\t{}\n", i - 1));
                    }
                }
                let g = from_tsv(&concepts, &rels).expect("chain is valid");
                prop_assert_eq!(g.len(), distinct.len());
            }
        }
    }
}