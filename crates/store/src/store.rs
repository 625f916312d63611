//! The world store: save / open of a whole [`IngestOutput`].
//!
//! # File layout (format version 1, all integers little-endian)
//!
//! ```text
//! offset 0   magic           8 bytes  b"MEDKBST1"
//!        8   format version  u32      (= 1)
//!       12   section count   u32      (= 8)
//!       16   table checksum  u64      xxh64(section table, seed = version)
//!       24   section table   count × 32 bytes:
//!              id u32 · reserved u32 · offset u64 · len u64 · checksum u64
//!       …   section payloads, each at an 8-byte-aligned offset
//! ```
//!
//! Every section payload is checksummed independently (`xxh64(payload,
//! seed = section id)`), so a bit flip anywhere in the file is caught
//! before any of its bytes are interpreted. Section contents are
//! length-prefixed primitive arrays (see [`crate::bytes`]): the dense
//! numeric tables — frequencies, IC, reachability labels, embedding
//! matrices — decode as single bulk copies, which is what makes a cold
//! open orders of magnitude cheaper than re-running Algorithm 1.
//!
//! Corrupted, truncated, or version-mismatched files come back as
//! [`MedKbError::Validation`] with a defect naming the failing section —
//! never a panic.

use std::fs::File;
use std::io::{self, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use medkb_core::{
    ConceptMapper, FlagTable, Frequencies, IngestOutput, InstanceIndex, MappingIndex, MappingMethod,
};
use medkb_ekg::{EdgeColumns, Ekg, EkgParts, ReachabilityIndex};
use medkb_embed::{EmbeddingIndex, SifModel, WordVectors};
use medkb_ontology::ContextSpec;
use medkb_snomed::oracle::N_TAGS;
use medkb_snomed::ContextTag;
use medkb_types::{
    ContextId, ExtConceptId, Id, IdVec, InstanceId, MedKbError, OntoConceptId, RelationshipId,
    Result, StringInterner, ValidationReport,
};

use crate::bytes::{SectionReader, SectionWriter};
use crate::xxh::xxh64;

/// Magic bytes opening every store file.
pub const MAGIC: [u8; 8] = *b"MEDKBST1";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Section ids in file order. The order is part of the format.
const SECTION_IDS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const SECTION_NAMES: [&str; 8] =
    ["ekg", "contexts", "freqs", "mappings", "instances", "reach", "mapper", "meta"];
const HEADER_FIXED: usize = 24;
const TABLE_ENTRY: usize = 32;

/// Versioned, checksummed flat-binary persistence of an ingested world.
///
/// [`WorldStore::save`] lays the entire [`IngestOutput`] — customized
/// graph, contexts, frequency/IC tables, mappings, reachability labels,
/// embedding model and concept index — into one flat file;
/// [`WorldStore::open`] validates the header and every section checksum,
/// then reconstructs the output without re-running Algorithm 1.
///
/// Both stream. `save` encodes, checksums and writes one section at a
/// time and writes the header last; `open` reads, checksums and decodes
/// one section at a time. Neither holds a whole image beside the world.
/// [`WorldStore::save_bytes`] and [`WorldStore::open_bytes`] run the same
/// code over an in-memory image.
pub struct WorldStore;

impl WorldStore {
    /// Serialize `out` into an in-memory store image.
    pub fn save_bytes(out: &IngestOutput) -> Vec<u8> {
        let mut image = Cursor::new(Vec::new());
        write_image(out, &mut image).expect("writing to memory cannot fail");
        image.into_inner()
    }

    /// Save `out` to `path`, returning the file size in bytes. The header
    /// is written last, so a save that stops part-way leaves a file whose
    /// magic is zero, and that file never opens.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] when the file cannot be written.
    pub fn save(out: &IngestOutput, path: &Path) -> Result<u64> {
        File::create(path)
            .and_then(|file| save_to(out, BufWriter::new(file)))
            .map_err(|e| MedKbError::invalid(format!("store save {}: {e}", path.display())))
    }

    /// Reconstruct an [`IngestOutput`] from a store image.
    ///
    /// # Errors
    /// [`MedKbError::Validation`] naming every structural defect found —
    /// wrong magic, unsupported version, out-of-range section, checksum
    /// mismatch, or malformed section content.
    pub fn open_bytes(buf: &[u8]) -> Result<IngestOutput> {
        read_image(&mut Cursor::new(buf), "image")
    }

    /// Open the store at `path`.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] when the file cannot be read;
    /// otherwise as [`WorldStore::open_bytes`].
    pub fn open(path: &Path) -> Result<IngestOutput> {
        let label = path.display().to_string();
        let mut file = File::open(path).map_err(|e| read_failed(&label, e))?;
        read_image(&mut file, &label)
    }
}

/// [`write_image`] through a buffered writer, flushed here because
/// dropping a `BufWriter` discards the error of its last flush.
fn save_to<W: Write + Seek>(out: &IngestOutput, mut w: BufWriter<W>) -> io::Result<u64> {
    let len = write_image(out, &mut w)?;
    w.flush()?;
    Ok(len)
}

/// Write the image of `out` to `w` and return its length: a zeroed header
/// and section table, then each section as it is encoded, then the real
/// header and table over the zeroes.
fn write_image<W: Write + Seek>(out: &IngestOutput, w: &mut W) -> io::Result<u64> {
    let mut head = [0u8; HEADER_FIXED + SECTION_IDS.len() * TABLE_ENTRY];
    w.write_all(&head)?;
    let mut offset = head.len() as u64;
    let entries = head[HEADER_FIXED..].chunks_exact_mut(TABLE_ENTRY);
    for (i, (&id, entry)) in SECTION_IDS.iter().zip(entries).enumerate() {
        let mut section = SectionWriter::new(w, u64::from(id));
        match i {
            0 => enc_ekg(&mut section, out.ekg.parts()),
            1 => enc_contexts(&mut section, &out.contexts, &out.tag_of),
            2 => enc_freqs(&mut section, &out.freqs),
            3 => enc_mappings(&mut section, &out.mappings),
            4 => enc_instances(&mut section, &out.instances_of),
            5 => enc_reach(&mut section, &out.reach),
            6 => enc_mapper(&mut section, &out.mapper),
            _ => enc_meta(&mut section, out),
        }
        let (len, checksum) = section.finish()?;
        entry[0..4].copy_from_slice(&id.to_le_bytes());
        entry[8..16].copy_from_slice(&offset.to_le_bytes());
        entry[16..24].copy_from_slice(&len.to_le_bytes());
        entry[24..32].copy_from_slice(&checksum.to_le_bytes());
        offset += len;
    }
    let table_checksum = xxh64(&head[HEADER_FIXED..], u64::from(FORMAT_VERSION));
    head[0..8].copy_from_slice(&MAGIC);
    head[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&(SECTION_IDS.len() as u32).to_le_bytes());
    head[16..24].copy_from_slice(&table_checksum.to_le_bytes());
    w.seek(SeekFrom::Start(0))?;
    w.write_all(&head)?;
    Ok(offset)
}

fn read_failed(label: &str, e: io::Error) -> MedKbError {
    MedKbError::invalid(format!("store open {label}: {e}"))
}

/// Decode the image in `src` section by section; `label` names the source
/// in read-error messages.
fn read_image<R: Read + Seek>(src: &mut R, label: &str) -> Result<IngestOutput> {
    let mut s = Sections::new(src, label)?;
    let ekg = s.next(|b| dec_ekg(b).map(Ekg::from_parts))?;
    let n = ekg.as_ref().map_or(0, Ekg::len);
    let contexts = s.next(dec_contexts)?;
    let m = contexts.as_ref().map_or(0, |(c, _)| c.len());
    let freqs = s.next(|b| dec_freqs(b, n))?;
    let pairs = s.next(dec_mappings)?;
    let instances_of = s.next(dec_instances)?;
    let reach = s.next(|b| dec_reach(b, n))?;
    let mapper = s.next(|b| dec_mapper(b, n))?;
    let shortcuts_added = s.next(|b| dec_meta(b, n, m))?;
    // Every section decoded exactly when no defect was found.
    let (
        Some(ekg),
        Some((contexts, tag_of)),
        Some(freqs),
        Some(pairs),
        Some(instances_of),
        Some(reach),
        Some((method, embedding)),
        Some(shortcuts_added),
    ) = (ekg, contexts, freqs, pairs, instances_of, reach, mapper, shortcuts_added)
    else {
        return Err(MedKbError::Validation(s.report));
    };
    let mapper = match (method, embedding) {
        (MappingMethod::Embedding { threshold }, Some((model, index))) => {
            ConceptMapper::from_embedding(threshold, Arc::new(model), index)
        }
        // Exact, edit and phonetic tables derive from the graph. `dec_mapper`
        // gives every embedding method its model, so this cannot fail.
        (method, _) => ConceptMapper::build(&ekg, method, None)?,
    };
    let flagged: FlagTable = pairs.iter().map(|&(_, c)| c).collect();
    Ok(IngestOutput {
        ekg: Arc::new(ekg),
        contexts,
        tag_of,
        freqs: Arc::new(freqs),
        mappings: Arc::new(MappingIndex::from_pairs(pairs)),
        instances_of: Arc::new(instances_of),
        flagged,
        mapper: Arc::new(mapper),
        reach: Arc::new(reach),
        shortcuts_added,
    })
}

/// A validated header and section table over a source, read one section
/// at a time in table order.
struct Sections<'a, R> {
    src: &'a mut R,
    label: &'a str,
    len: u64,
    table: Vec<u8>,
    next: usize,
    /// Defects found so far. Once there is one, sections are still read
    /// and checksummed, so every corrupted one is named, but no longer
    /// decoded.
    report: ValidationReport,
}

impl<'a, R: Read + Seek> Sections<'a, R> {
    /// Validate the header and the section table's checksum. Collects
    /// **all** header defects before failing.
    fn new(src: &'a mut R, label: &'a str) -> Result<Self> {
        let len = src.seek(SeekFrom::End(0)).map_err(|e| read_failed(label, e))?;
        let report = ValidationReport::new();
        let mut s = Self { src, label, len, table: Vec::new(), next: 0, report };
        let header = "store header";
        if len < HEADER_FIXED as u64 {
            s.report.defect(header, None, format!("file too small: {len} bytes"));
            return Err(MedKbError::Validation(s.report));
        }
        let head = s.read_at(0, HEADER_FIXED)?;
        if head[..8] != MAGIC {
            s.report.defect(header, None, format!("bad magic {:02x?}", &head[..8]));
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4-byte chunk"));
        if version != FORMAT_VERSION {
            s.report.defect(
                header,
                None,
                format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
            );
        }
        let count = u32::from_le_bytes(head[12..16].try_into().expect("4-byte chunk")) as usize;
        if count != SECTION_IDS.len() {
            s.report.defect(
                header,
                None,
                format!("expected {} sections, header declares {count}", SECTION_IDS.len()),
            );
        }
        if !s.report.is_empty() {
            return Err(MedKbError::Validation(s.report));
        }
        if len < (HEADER_FIXED + count * TABLE_ENTRY) as u64 {
            s.report.defect(header, None, "file truncated inside the section table");
            return Err(MedKbError::Validation(s.report));
        }
        s.table = s.read_at(HEADER_FIXED as u64, count * TABLE_ENTRY)?;
        let declared = u64::from_le_bytes(head[16..24].try_into().expect("8-byte chunk"));
        if xxh64(&s.table, u64::from(version)) != declared {
            s.report.defect(header, None, "section table checksum mismatch");
            return Err(MedKbError::Validation(s.report));
        }
        Ok(s)
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0; len];
        self.src
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.src.read_exact(&mut buf))
            .map_err(|e| read_failed(self.label, e))?;
        Ok(buf)
    }

    /// Read and checksum the next section and, while no defect has been
    /// found, decode it. `None` means a defect is in the report. Its
    /// declared extent is checked against the source's length before its
    /// buffer is allocated.
    fn next<T>(&mut self, decode: impl FnOnce(&[u8]) -> Result<T>) -> Result<Option<T>> {
        let (i, name) = (self.next, SECTION_NAMES[self.next]);
        self.next += 1;
        let entry = &self.table[i * TABLE_ENTRY..(i + 1) * TABLE_ENTRY];
        let id = u32::from_le_bytes(entry[0..4].try_into().expect("chunk"));
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("chunk"));
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("chunk"));
        let checksum = u64::from_le_bytes(entry[24..32].try_into().expect("chunk"));
        if id != SECTION_IDS[i] {
            self.report.defect(name, None, format!("section id {id} out of order"));
            return Ok(None);
        }
        if !offset.is_multiple_of(8) {
            self.report.defect(name, None, format!("section offset {offset} not 8-byte aligned"));
            return Ok(None);
        }
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            self.report.defect(name, None, format!("section {offset}+{len} exceeds file size"));
            return Ok(None);
        }
        let payload = self.read_at(offset, len as usize)?;
        if xxh64(&payload, u64::from(id)) != checksum {
            self.report.defect(name, None, "section checksum mismatch");
            return Ok(None);
        }
        if !self.report.is_empty() {
            return Ok(None);
        }
        match decode(&payload) {
            Ok(value) => Ok(Some(value)),
            Err(MedKbError::Validation(found)) => {
                for d in found.defects() {
                    self.report.defect(d.document, d.line, d.message.clone());
                }
                Ok(None)
            }
            Err(other) => Err(other),
        }
    }
}

// ---------------------------------------------------------------- sections

fn enc_ekg(w: &mut SectionWriter<'_>, g: &EkgParts) {
    w.put_u64(g.names.len() as u64);
    w.put_string_column(&g.names);
    w.put_u32_slice(&g.synonym_offsets);
    w.put_string_column(&g.synonyms);
    w.put_string_column(&g.lookup_keys);
    w.put_u32_slice(&g.lookup_offsets);
    w.put_u32s(g.lookup_ids.iter().map(|c| c.raw()));
    for cols in [&g.up, &g.down] {
        w.put_u32_slice(&cols.offsets);
        w.put_u32s(cols.targets.iter().map(|c| c.raw()));
        w.put_u32_slice(&cols.weights);
        w.put_u64_slice(&cols.shortcut);
    }
    w.put_u32(g.root.raw());
    w.pad8();
    w.put_u32s(g.topo.iter().map(|c| c.raw()));
    w.put_u32_slice(&g.depth);
}

/// Decode the `ekg` section straight into the graph's columns, checking
/// every offset table and every id it holds: a checksum-valid image with
/// an out-of-range edge or lookup id, unsorted lookup keys or a `topo`
/// that is not a permutation is a defect here, never a panic later.
fn dec_ekg(buf: &[u8]) -> Result<EkgParts> {
    let mut r = SectionReader::new(buf, "ekg");
    let ids = |raw: Vec<u32>| -> Vec<ExtConceptId> {
        raw.into_iter().map(ExtConceptId::new).collect()
    };
    let in_range = |ids: &[ExtConceptId], n: usize| ids.iter().all(|c| (c.raw() as usize) < n);
    let n = r.u64()? as usize;
    let names = r.string_column()?;
    if names.len() != n {
        return r.fail(format!("{} names for {n} concepts", names.len()));
    }

    let synonym_offsets = r.u32_slice()?;
    let synonyms = r.string_column()?;
    if !spans(&synonym_offsets, n, synonyms.len()) {
        return r.fail("synonym offsets do not span the synonym list");
    }

    let lookup_keys = r.string_column()?;
    let lookup_offsets = r.u32_slice()?;
    let lookup_ids = ids(r.u32_slice()?);
    if !spans(&lookup_offsets, lookup_keys.len(), lookup_ids.len()) {
        return r.fail("lookup offsets do not span the value list");
    }
    if (1..lookup_keys.len()).any(|k| lookup_keys.get(k - 1) >= lookup_keys.get(k)) {
        return r.fail("lookup keys are not strictly ascending");
    }
    if !in_range(&lookup_ids, n) {
        return r.fail(format!("lookup id out of range ({n} concepts)"));
    }

    let mut edges: Vec<EdgeColumns> = Vec::with_capacity(2);
    for _ in 0..2 {
        let offsets = r.u32_slice()?;
        let targets = ids(r.u32_slice()?);
        let weights = r.u32_slice()?;
        let shortcut = r.u64_slice()?;
        let tail = targets.len() % 64;
        if !spans(&offsets, n, targets.len())
            || weights.len() != targets.len()
            || shortcut.len() != targets.len().div_ceil(64)
            || shortcut.last().is_some_and(|&w| tail != 0 && w >> tail != 0)
        {
            return r.fail("edge arrays are inconsistent");
        }
        if !in_range(&targets, n) {
            return r.fail(format!("edge target out of range ({n} concepts)"));
        }
        edges.push(EdgeColumns { offsets, targets, weights, shortcut });
    }
    let down = edges.pop().expect("two edge lists");
    let up = edges.pop().expect("two edge lists");

    let root = r.u32()?;
    r.align8();
    let topo = ids(r.u32_slice()?);
    let depth = r.u32_slice()?;
    if (root as usize) >= n.max(1) || topo.len() != n || depth.len() != n {
        return r.fail("root/topo/depth inconsistent with concept count");
    }
    let mut seen = vec![false; n];
    let permutation = in_range(&topo, n)
        && topo.iter().all(|c| !std::mem::replace(&mut seen[c.raw() as usize], true));
    if !permutation {
        return r.fail("topo is not a permutation of the concepts");
    }
    Ok(EkgParts {
        names,
        synonym_offsets,
        synonyms,
        lookup_keys,
        lookup_offsets,
        lookup_ids,
        up,
        down,
        root: ExtConceptId::new(root),
        topo,
        depth,
    })
}

/// Whether `offsets` holds `rows + 1` positions ascending from 0 to `len`.
fn spans(offsets: &[u32], rows: usize, len: usize) -> bool {
    offsets.len() == rows + 1
        && offsets[0] == 0
        && offsets[rows] as usize == len
        && offsets.windows(2).all(|w| w[0] <= w[1])
}

fn enc_contexts(w: &mut SectionWriter<'_>, contexts: &[ContextSpec], tag_of: &[ContextTag]) {
    w.put_u64(contexts.len() as u64);
    w.put_u32s(contexts.iter().map(|c| c.relationship.raw()));
    w.put_u32s(contexts.iter().map(|c| c.domain.raw()));
    w.put_u32s(contexts.iter().map(|c| c.range.raw()));
    w.put_strings(contexts.iter().map(|c| c.label.as_str()));
    w.put_bytes(tag_of.len(), tag_of.iter().map(|t| [t.index() as u8]));
}

fn dec_contexts(buf: &[u8]) -> Result<(Vec<ContextSpec>, Vec<ContextTag>)> {
    let mut r = SectionReader::new(buf, "contexts");
    let m = r.u64()? as usize;
    let relationships = r.u32_slice()?;
    let domains = r.u32_slice()?;
    let ranges = r.u32_slice()?;
    let labels = r.strings()?;
    let tag_bytes = r.bytes()?.to_vec();
    if relationships.len() != m || domains.len() != m || ranges.len() != m || labels.len() != m {
        return r.fail("context arrays disagree on length");
    }
    if tag_bytes.len() != m {
        return r.fail(format!("{} tags for {m} contexts", tag_bytes.len()));
    }
    let mut tag_of = Vec::with_capacity(m);
    for &b in &tag_bytes {
        match ContextTag::ALL.get(b as usize) {
            Some(&tag) => tag_of.push(tag),
            None => return r.fail(format!("tag byte {b} out of range")),
        }
    }
    let contexts = labels
        .into_iter()
        .enumerate()
        .map(|(i, label)| ContextSpec {
            id: ContextId::from_usize(i),
            relationship: RelationshipId::new(relationships[i]),
            domain: OntoConceptId::new(domains[i]),
            range: OntoConceptId::new(ranges[i]),
            label,
        })
        .collect();
    Ok((contexts, tag_of))
}

fn enc_freqs(w: &mut SectionWriter<'_>, f: &Frequencies) {
    w.put_u64(N_TAGS as u64);
    for table in &f.per_tag {
        w.put_f64_slice(table.as_slice());
    }
    w.put_f64_slice(&f.per_tag_total);
    w.put_f64_slice(f.aggregate.as_slice());
    w.put_f64_slice(f.intrinsic.as_slice());
    for table in &f.ic_per_tag {
        w.put_f64_slice(table.as_slice());
    }
    w.put_f64_slice(f.ic_aggregate.as_slice());
    w.put_f64_slice(&f.min_ic_per_tag);
    w.put_f64(f.min_ic_aggregate);
    w.put_f64(f.min_intrinsic);
}

/// Decode the `freqs` section straight into the tables, checking that each
/// holds one entry per concept of the `n`-concept graph, that every entry
/// is finite and that each stored minimum is its table's: a table sized for
/// another graph would index out of bounds on the first query, a NaN IC
/// would score every answer NaN, and an inflated minimum would let
/// score-bounded pruning (DESIGN.md §13) drop answers.
fn dec_freqs(buf: &[u8], n: usize) -> Result<Frequencies> {
    let mut r = SectionReader::new(buf, "freqs");
    let tags = r.u64()? as usize;
    if tags != N_TAGS {
        return r.fail(format!("file has {tags} context tags, this build has {N_TAGS}"));
    }
    let mut per_tag = Vec::with_capacity(N_TAGS);
    for _ in 0..N_TAGS {
        per_tag.push(r.f64_slice()?);
    }
    let per_tag_total = r.f64_slice()?;
    let aggregate = r.f64_slice()?;
    let intrinsic = r.f64_slice()?;
    let mut ic_per_tag = Vec::with_capacity(N_TAGS);
    for _ in 0..N_TAGS {
        ic_per_tag.push(r.f64_slice()?);
    }
    let ic_aggregate = r.f64_slice()?;
    let min_ic_per_tag = r.f64_slice()?;
    let min_ic_aggregate = r.f64()?;
    let min_intrinsic = r.f64()?;
    let (Ok(per_tag_total), Ok(min_ic_per_tag)) =
        (<[f64; N_TAGS]>::try_from(per_tag_total), <[f64; N_TAGS]>::try_from(min_ic_per_tag))
    else {
        return r.fail("per-tag scalar arrays disagree with the tag count");
    };
    let tables =
        || per_tag.iter().chain(&ic_per_tag).chain([&aggregate, &intrinsic, &ic_aggregate]);
    if let Some(t) = tables().find(|t| t.len() != n) {
        return r.fail(format!("a frequency table has {} entries for {n} concepts", t.len()));
    }
    let scalars = [&per_tag_total[..], &min_ic_per_tag, &[min_ic_aggregate, min_intrinsic]];
    if !tables().map(Vec::as_slice).chain(scalars).all(|t| t.iter().all(|v| v.is_finite())) {
        return r.fail("non-finite frequency or IC entry");
    }
    let own = [(&ic_aggregate, min_ic_aggregate), (&intrinsic, min_intrinsic)];
    let stale = |(table, min): (&Vec<f64>, f64)| Frequencies::min_of(table) != min;
    if ic_per_tag.iter().zip(min_ic_per_tag).chain(own).any(stale) {
        return r.fail("a stored IC minimum is not its table's minimum");
    }
    let column = IdVec::from;
    Ok(Frequencies {
        per_tag: per_tag.into_iter().map(column).collect(),
        per_tag_total,
        aggregate: column(aggregate),
        intrinsic: column(intrinsic),
        ic_per_tag: ic_per_tag.into_iter().map(column).collect(),
        ic_aggregate: column(ic_aggregate),
        min_ic_per_tag,
        min_ic_aggregate,
        min_intrinsic,
    })
}

fn enc_mappings(w: &mut SectionWriter<'_>, mappings: &MappingIndex) {
    let pairs = mappings.as_slice();
    w.put_u32s(pairs.iter().map(|(i, _)| i.raw()));
    w.put_u32s(pairs.iter().map(|(_, c)| c.raw()));
}

fn dec_mappings(buf: &[u8]) -> Result<Vec<(InstanceId, ExtConceptId)>> {
    let mut r = SectionReader::new(buf, "mappings");
    let insts = r.u32_slice()?;
    let concepts = r.u32_slice()?;
    if insts.len() != concepts.len() {
        return r.fail("instance and concept columns disagree on length");
    }
    Ok(insts
        .into_iter()
        .zip(concepts)
        .map(|(i, c)| (InstanceId::new(i), ExtConceptId::new(c)))
        .collect())
}

fn enc_instances(w: &mut SectionWriter<'_>, index: &InstanceIndex) {
    w.put_u32s(index.concepts().iter().map(|c| c.raw()));
    w.put_u32_slice(index.offsets());
    w.put_u32s(index.instances().iter().map(|i| i.raw()));
}

fn dec_instances(buf: &[u8]) -> Result<InstanceIndex> {
    let mut r = SectionReader::new(buf, "instances");
    let concepts: Vec<ExtConceptId> = r.u32_slice()?.into_iter().map(ExtConceptId::new).collect();
    let offsets = r.u32_slice()?;
    let instances: Vec<InstanceId> = r.u32_slice()?.into_iter().map(InstanceId::new).collect();
    if offsets.len() != concepts.len() + 1
        || offsets.last().copied().unwrap_or(1) as usize != instances.len()
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return r.fail("instance CSR offsets are inconsistent");
    }
    Ok(InstanceIndex::from_parts(concepts, offsets, instances))
}

fn enc_reach(w: &mut SectionWriter<'_>, reach: &ReachabilityIndex) {
    for column in reach.columns() {
        w.put_u32_slice(column);
    }
}

/// Decode the `reach` section's columns and check what they mean before
/// the index adopts them: DFS labels that number the `n` concepts once
/// each with in-range subtree ends, and pooled sets of in-range members in
/// strictly ascending order (each set is binary-searched, and
/// `descendant_counts` indexes by member).
fn dec_reach(buf: &[u8], n: usize) -> Result<ReachabilityIndex> {
    let mut r = SectionReader::new(buf, "reach");
    let mut columns: [Vec<u32>; 6] = Default::default();
    for column in &mut columns {
        *column = r.u32_slice()?;
    }
    let [tin, tout, tree_depth, exc, set_offsets, set_members] = &columns;
    if tin.len() != n || tout.len() != n || tree_depth.len() != n || exc.len() != n {
        return r.fail(format!("reachability labels disagree with {n} concepts"));
    }
    let sets = set_offsets.len().saturating_sub(1);
    if !spans(set_offsets, sets, set_members.len()) || exc.iter().any(|&s| s as usize >= sets) {
        return r.fail("exception pool offsets are inconsistent");
    }
    let strictly_ascending = set_offsets.windows(2).all(|w| {
        let set = &set_members[w[0] as usize..w[1] as usize];
        set.windows(2).all(|p| p[0] < p[1])
    });
    if !strictly_ascending {
        return r.fail("an exception set is not strictly ascending");
    }
    if set_members.iter().any(|&m| m as usize >= n) {
        return r.fail(format!("exception member out of range ({n} concepts)"));
    }
    let mut seen = vec![false; n];
    let permutation =
        tin.iter().all(|&t| (t as usize) < n && !std::mem::replace(&mut seen[t as usize], true));
    if !permutation {
        return r.fail("tin is not a permutation of the concepts");
    }
    if tin.iter().zip(tout).any(|(&i, &o)| o < i || o as usize >= n) {
        return r.fail("a subtree end lies outside its concept's range");
    }
    Ok(ReachabilityIndex::from_columns(columns))
}

fn enc_mapper(w: &mut SectionWriter<'_>, mapper: &ConceptMapper) {
    let (tag, tau, threshold) = match mapper.method() {
        MappingMethod::Exact => (0u32, 0u32, 0.0),
        MappingMethod::Edit(tau) => (1, tau, 0.0),
        MappingMethod::Embedding { threshold } => (2, 0, threshold),
        MappingMethod::Phonetic => (3, 0, 0.0),
    };
    w.put_u32(tag);
    w.put_u32(tau);
    w.put_f64(threshold);
    let embedding = mapper.embedding();
    w.put_u64(u64::from(embedding.is_some()));
    let mut index = (&[][..], &[][..]);
    if let Some((model, concepts)) = embedding {
        let v = &model.vectors;
        w.put_strings(v.words());
        w.put_f32_slice(&v.vecs);
        w.put_u64_slice(v.counts.as_slice());
        w.put_u64(v.total_tokens);
        w.put_u64(v.dim as u64);
        w.put_f64(model.a);
        w.put_f32_slice(&model.pc);
        let (_, payloads, data) = concepts.to_raw();
        index = (payloads, data);
    }
    w.put_u32_slice(index.0);
    w.put_f32_slice(index.1);
}

/// What the `mapper` section holds: the method, and exactly when it is an
/// embedding method, the fitted SIF model and the concept index.
type StoredMapper = (MappingMethod, Option<(SifModel, EmbeddingIndex)>);

/// Decode the `mapper` section, checking the model's arrays against its
/// vocabulary and the index's payloads against the `n`-concept graph (each
/// is a concept id a lookup returns).
fn dec_mapper(buf: &[u8], n: usize) -> Result<StoredMapper> {
    let mut r = SectionReader::new(buf, "mapper");
    let tag = r.u32()?;
    let tau = r.u32()?;
    let threshold = r.f64()?;
    let method = match tag {
        0 => MappingMethod::Exact,
        1 => MappingMethod::Edit(tau),
        2 => MappingMethod::Embedding { threshold },
        3 => MappingMethod::Phonetic,
        other => return r.fail(format!("unknown mapping method tag {other}")),
    };
    let has_sif = r.u64()?;
    let embedding = matches!(method, MappingMethod::Embedding { .. });
    if has_sif != u64::from(embedding) {
        return r.fail(format!("SIF presence flag {has_sif} for a {method:?} mapper"));
    }
    let model = if embedding {
        let words = r.string_column()?;
        let vecs = r.f32_slice()?;
        let counts = r.u64_slice()?;
        let total_tokens = r.u64()?;
        let dim = r.u64()?;
        let a = r.f64()?;
        let pc = r.f32_slice()?;
        let mut vocab = StringInterner::with_capacity(words.len());
        for w in words.iter() {
            vocab.intern(w);
        }
        if vocab.len() != words.len() {
            return r.fail("the model's vocabulary repeats a word");
        }
        if counts.len() != words.len()
            || dim.checked_mul(words.len() as u64) != Some(vecs.len() as u64)
            || pc.len() as u64 != dim
        {
            return r.fail("word-vector arrays disagree with the vocabulary size");
        }
        let dim = dim as usize;
        let vectors = WordVectors { vocab, vecs, counts: counts.into(), total_tokens, dim };
        Some(SifModel { vectors, a, pc })
    } else {
        None
    };
    let index_payloads = r.u32_slice()?;
    let index_data = r.f32_slice()?;
    if index_payloads.iter().any(|&c| c as usize >= n) {
        return r.fail(format!("embedding index payload out of range ({n} concepts)"));
    }
    let Some(model) = model else { return Ok((method, None)) };
    let dim = model.vectors.dim;
    if (dim as u64).checked_mul(index_payloads.len() as u64) != Some(index_data.len() as u64) {
        return r.fail("embedding index arrays disagree with the model dimensionality");
    }
    let index = EmbeddingIndex::from_raw(dim, index_payloads, index_data);
    Ok((method, Some((model, index))))
}

fn enc_meta(w: &mut SectionWriter<'_>, out: &IngestOutput) {
    w.put_u64(out.shortcuts_added as u64);
    w.put_u64(out.ekg.len() as u64);
    w.put_u64(out.contexts.len() as u64);
}

fn dec_meta(buf: &[u8], n: usize, m: usize) -> Result<usize> {
    let mut r = SectionReader::new(buf, "meta");
    let shortcuts = r.u64()? as usize;
    let concepts = r.u64()? as usize;
    let contexts = r.u64()? as usize;
    if concepts != n || contexts != m {
        return r.fail(format!(
            "meta counts ({concepts} concepts, {contexts} contexts) disagree with sections ({n}, {m})"
        ));
    }
    Ok(shortcuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_core::{ingest, MappingMethod, RelaxConfig};
    use medkb_corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
    use medkb_snomed::{MedWorld, WorldConfig};

    /// A seekable in-memory sink that fails once `budget` bytes are spent.
    struct FailingSink {
        image: Cursor<Vec<u8>>,
        budget: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.image.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for FailingSink {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.image.seek(pos)
        }
    }

    /// A save whose sink fails part-way, before the sections are out or
    /// while the header goes in last (where only the final flush sees the
    /// error), returns that error, and what it wrote never opens.
    #[test]
    fn a_failed_save_returns_its_error_and_never_opens() {
        let world = MedWorld::generate(&WorldConfig::tiny(31));
        let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
            .generate(&CorpusConfig::tiny(32));
        let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        let out = ingest(&world.kb, world.terminology.ekg, &counts, None, &config).unwrap();
        let image = WorldStore::save_bytes(&out);
        let head = HEADER_FIXED + SECTION_IDS.len() * TABLE_ENTRY;
        // The sink sees the image, then the header again.
        let total = image.len() + head;
        let step = (image.len() / 101).max(1);
        let budgets = (0..total).step_by(step).chain(image.len()..total);
        for budget in budgets {
            let mut sink = FailingSink { image: Cursor::new(Vec::new()), budget };
            let saved = save_to(&out, BufWriter::new(&mut sink));
            assert!(saved.is_err(), "budget {budget} of {total}: the save reported success");
            let written = sink.image.into_inner();
            match WorldStore::open_bytes(&written) {
                Err(MedKbError::Validation(report)) => assert!(!report.is_empty()),
                other => panic!("budget {budget} of {total}: expected a defect, got {other:?}"),
            }
        }
        let mut sink = FailingSink { image: Cursor::new(Vec::new()), budget: total };
        assert_eq!(save_to(&out, BufWriter::new(&mut sink)).unwrap(), image.len() as u64);
        assert_eq!(sink.image.into_inner(), image);
    }
}
