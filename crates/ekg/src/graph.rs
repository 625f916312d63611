//! The external knowledge source graph: storage, construction, validation,
//! and traversal.
//!
//! A built [`Ekg`] is flat: a handful of arrays laid out like the store's
//! `ekg` section (DESIGN.md §14.2). Names and synonyms live in UTF-8
//! arenas with `u32` offsets, the normalized lookup is a sorted key arena
//! with an id CSR, and the up and down edge lists are CSR columns. Cloning
//! or dropping a graph is a few bulk copies or frees whatever its size.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::ops::Range;

use medkb_text::normalize;
use medkb_types::{ExtConceptId, Id, IdVec, MedKbError, Result, StringColumn, StringInterner};

/// A subsumption edge, stored in both directions.
///
/// `weight` is the *original* hop distance the edge represents: native
/// subsumption edges have weight 1; application-specific shortcut edges
/// added during ingestion (§5.1, Figure 5) carry the length of the original
/// path so the semantic distance between their endpoints is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The other endpoint.
    pub to: ExtConceptId,
    /// Original hop distance represented by this edge (≥ 1).
    pub weight: u32,
    /// Whether this is an ingestion-added shortcut rather than a native
    /// subsumption edge.
    pub shortcut: bool,
}

/// One direction's edge lists as CSR columns: concept `c`'s edges are the
/// positions `offsets[c]..offsets[c + 1]` of `targets`, `weights` and the
/// `shortcut` bitset, in list order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeColumns {
    /// `n + 1` ascending positions, starting at 0.
    pub offsets: Vec<u32>,
    /// The other endpoint of each edge.
    pub targets: Vec<ExtConceptId>,
    /// Original hop distance of each edge.
    pub weights: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set when edge `i` is a shortcut;
    /// exactly `targets.len().div_ceil(64)` words.
    pub shortcut: Vec<u64>,
}

impl EdgeColumns {
    fn empty(n: usize) -> Self {
        let offsets = vec![0; n + 1];
        Self { offsets, targets: Vec::new(), weights: Vec::new(), shortcut: Vec::new() }
    }

    fn range(&self, c: ExtConceptId) -> Range<usize> {
        self.offsets[c.as_usize()] as usize..self.offsets[c.as_usize() + 1] as usize
    }

    fn targets_of(&self, c: ExtConceptId) -> &[ExtConceptId] {
        &self.targets[self.range(c)]
    }

    fn row(&self, c: ExtConceptId) -> EdgeList<'_> {
        let r = self.range(c);
        EdgeList {
            targets: &self.targets[r.clone()],
            weights: &self.weights[r.clone()],
            shortcut: &self.shortcut,
            start: r.start,
        }
    }

    fn push(&mut self, e: Edge) {
        let at = self.targets.len();
        if at.is_multiple_of(64) {
            self.shortcut.push(0);
        }
        self.shortcut[at / 64] |= u64::from(e.shortcut) << (at % 64);
        self.targets.push(e.to);
        self.weights.push(e.weight);
    }

    /// Dijkstra over these edges (weights are original hop distances) from
    /// `source` into `scratch`, settling ties by descending id.
    fn dijkstra_into(&self, source: ExtConceptId, scratch: &mut UpwardScratch) {
        use std::cmp::Reverse;
        scratch.begin(source, self.offsets.len() - 1);
        scratch.set(source, 0);
        scratch.heap.push((Reverse(0), source));
        while let Some((Reverse(d), c)) = scratch.heap.pop() {
            if scratch.distance(c) != Some(d) {
                continue;
            }
            if c != source {
                scratch.reached.push(c);
            }
            for (to, weight) in self.row(c).weighted() {
                let nd = d + weight;
                if scratch.distance(to).is_none_or(|old| nd < old) {
                    scratch.set(to, nd);
                    scratch.heap.push((Reverse(nd), to));
                }
            }
        }
    }

    /// These lists rebuilt one by one, each passed through `edit` (given
    /// its concept index) on the way: O(edges) whatever the edit.
    fn rebuilt(&self, mut edit: impl FnMut(usize, &mut Vec<Edge>)) -> Self {
        let mut out = Self::empty(0);
        let mut row = Vec::new();
        for c in 0..self.offsets.len() - 1 {
            row.clear();
            row.extend(self.row(ExtConceptId::from_usize(c)).iter());
            edit(c, &mut row);
            for &e in &row {
                out.push(e);
            }
            out.offsets.push(u32::try_from(out.targets.len()).expect("edges exceed u32 offsets"));
        }
        out
    }

    /// These lists with every `(source, edge)` of `extra` appended to its
    /// source's list, in `extra` order.
    fn appended(&self, extra: &[(ExtConceptId, Edge)]) -> Self {
        let mut by_source = extra.to_vec();
        by_source.sort_by_key(|&(s, _)| s); // stable: batch order holds per list
        let mut next = by_source.iter().peekable();
        self.rebuilt(|c, row| {
            while let Some(&(_, e)) = next.next_if(|(s, _)| s.as_usize() == c) {
                row.push(e);
            }
        })
    }
}

/// A native subsumption edge to `to`.
fn native(to: ExtConceptId) -> Edge {
    Edge { to, weight: 1, shortcut: false }
}

/// One concept's edge list, borrowed from the graph's columns. It yields
/// [`Edge`]s by value; [`EdgeList::targets`] is the id column alone.
#[derive(Debug, Clone, Copy)]
pub struct EdgeList<'a> {
    targets: &'a [ExtConceptId],
    weights: &'a [u32],
    /// The whole column's bitset; `start` is this list's first position.
    shortcut: &'a [u64],
    start: usize,
}

impl<'a> EdgeList<'a> {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The other endpoints, in list order.
    pub fn targets(&self) -> &'a [ExtConceptId] {
        self.targets
    }

    /// `(other endpoint, weight)` pairs, in list order.
    pub fn weighted(&self) -> impl Iterator<Item = (ExtConceptId, u32)> + 'a {
        self.targets.iter().copied().zip(self.weights.iter().copied())
    }

    /// The edges, in list order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + 'a {
        let (shortcut, start) = (self.shortcut, self.start);
        self.weighted().enumerate().map(move |(i, (to, weight))| Edge {
            to,
            weight,
            shortcut: shortcut[(start + i) / 64] >> ((start + i) % 64) & 1 == 1,
        })
    }
}

/// Builder for [`Ekg`]. Collects concepts, synonyms, and `is-a` edges, then
/// validates the §2.2 structural requirements in [`EkgBuilder::build`].
#[derive(Debug, Default)]
pub struct EkgBuilder {
    names: StringInterner<ExtConceptId>,
    synonyms: Vec<Vec<String>>,
    edges: Vec<(ExtConceptId, ExtConceptId)>,
}

impl EkgBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a concept by its unique primary name.
    pub fn concept(&mut self, name: &str) -> ExtConceptId {
        let id = self.names.intern(name);
        if id.as_usize() == self.synonyms.len() {
            self.synonyms.push(Vec::new());
        }
        id
    }

    /// Attach an additional synonym to `concept`.
    pub fn synonym(&mut self, concept: ExtConceptId, synonym: &str) {
        self.synonyms[concept.as_usize()].push(synonym.to_string());
    }

    /// Record `child ⊑ parent` (child *specializes* parent).
    pub fn is_a(&mut self, child: ExtConceptId, parent: ExtConceptId) {
        self.edges.push((child, parent));
    }

    /// Convenience: register both concepts by name and the edge between them.
    pub fn is_a_named(&mut self, child: &str, parent: &str) -> (ExtConceptId, ExtConceptId) {
        let c = self.concept(child);
        let p = self.concept(parent);
        self.is_a(c, p);
        (c, p)
    }

    /// Number of registered concepts.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no concept has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Validate and freeze the graph.
    ///
    /// # Errors
    /// * [`MedKbError::CycleDetected`] if the subsumption relation has a
    ///   cycle.
    /// * [`MedKbError::InvalidRoot`] unless exactly one concept has no
    ///   parent.
    /// * [`MedKbError::InvalidArgument`] if some concept is not a descendant
    ///   of the root, or a duplicate edge was recorded.
    pub fn build(self) -> Result<Ekg> {
        let n = self.names.len();
        let mut up_edges = Vec::with_capacity(self.edges.len());
        let mut down_edges = Vec::with_capacity(self.edges.len());
        let mut seen: HashSet<(ExtConceptId, ExtConceptId)> = HashSet::new();
        for &(child, parent) in &self.edges {
            if child == parent {
                return Err(MedKbError::invalid(format!(
                    "self subsumption on {:?}",
                    self.names.resolve(child)
                )));
            }
            if !seen.insert((child, parent)) {
                return Err(MedKbError::invalid(format!(
                    "duplicate edge {:?} -> {:?}",
                    self.names.resolve(child),
                    self.names.resolve(parent)
                )));
            }
            up_edges.push((child, native(parent)));
            down_edges.push((parent, native(child)));
        }
        let up = EdgeColumns::empty(n).appended(&up_edges);
        let down = EdgeColumns::empty(n).appended(&down_edges);

        // Root: exactly one concept without parents.
        let roots: Vec<ExtConceptId> =
            (0..n).map(ExtConceptId::from_usize).filter(|&c| up.range(c).is_empty()).collect();
        if roots.len() != 1 {
            return Err(MedKbError::InvalidRoot { roots: roots.len() });
        }

        let counts = self.synonyms.iter().scan(0, |total, syns| {
            *total += syns.len() as u32;
            Some(*total)
        });
        let mut parts = EkgParts {
            names: self.names.iter().map(|(_, s)| s).collect(),
            synonym_offsets: std::iter::once(0).chain(counts).collect(),
            synonyms: self.synonyms.iter().flatten().collect(),
            lookup_keys: StringColumn::default(),
            lookup_offsets: vec![0],
            lookup_ids: Vec::new(),
            up,
            down,
            root: roots[0],
            topo: Vec::new(),
            depth: Vec::new(),
        };
        parts.derive()?;
        Ok(Ekg::from_parts(parts))
    }
}

/// The flat arrays an [`Ekg`] is made of, in the store's `ekg` section
/// layout (DESIGN.md §14.2). [`Ekg::parts`] lends them to the encoder and
/// [`Ekg::from_parts`] adopts decoded ones without a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EkgParts {
    /// Primary names in concept-id order.
    pub names: StringColumn,
    /// Per-concept positions into `synonyms`: `n + 1`, ascending from 0.
    pub synonym_offsets: Vec<u32>,
    /// Every concept's synonyms, concatenated in concept-id order.
    pub synonyms: StringColumn,
    /// Normalized names and synonyms, strictly ascending bytewise.
    pub lookup_keys: StringColumn,
    /// `lookup_keys.len() + 1` ascending positions into `lookup_ids`.
    pub lookup_offsets: Vec<u32>,
    /// Each key's concepts: primary-name carriers, then synonym-only ones.
    pub lookup_ids: Vec<ExtConceptId>,
    /// Upward edge lists (native + shortcut) in concept-id order.
    pub up: EdgeColumns,
    /// Downward edge lists, mirroring `up`.
    pub down: EdgeColumns,
    /// The single root.
    pub root: ExtConceptId,
    /// Children-first topological order.
    pub topo: Vec<ExtConceptId>,
    /// Native hop depth below the root, in concept-id order.
    pub depth: Vec<u32>,
}

impl EkgParts {
    /// Derive `topo`, `depth` and the lookup from the edges and names:
    /// Kahn's algorithm over child → parent edges seeded in id order (a
    /// children-first order, Algorithm 1 line 12), BFS hop depth down from
    /// the root, and every normalized name and synonym sorted by key.
    /// Nothing changes on error.
    fn derive(&mut self) -> Result<()> {
        let n = self.names.len();
        let mut indegree = vec![0u32; n];
        for &p in &self.up.targets {
            indegree[p.as_usize()] += 1;
        }
        let mut queue: VecDeque<ExtConceptId> =
            (0..n).filter(|&i| indegree[i] == 0).map(ExtConceptId::from_usize).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(c) = queue.pop_front() {
            topo.push(c);
            for &p in self.up.targets_of(c) {
                indegree[p.as_usize()] -= 1;
                if indegree[p.as_usize()] == 0 {
                    queue.push_back(p);
                }
            }
        }
        if topo.len() != n {
            let stuck: Vec<&str> =
                (0..n).filter(|&i| indegree[i] > 0).map(|i| self.names.get(i)).take(4).collect();
            return Err(MedKbError::CycleDetected { detail: format!("involving {stuck:?}") });
        }

        let mut depth = vec![u32::MAX; n];
        depth[self.root.as_usize()] = 0;
        let mut bfs = VecDeque::from([self.root]);
        let mut reached = 1usize;
        while let Some(c) = bfs.pop_front() {
            for &d in self.down.targets_of(c) {
                if depth[d.as_usize()] == u32::MAX {
                    depth[d.as_usize()] = depth[c.as_usize()] + 1;
                    reached += 1;
                    bfs.push_back(d);
                }
            }
        }
        if reached != n {
            return Err(MedKbError::invalid(format!(
                "{} concept(s) unreachable from root {:?}",
                n - reached,
                self.names.get(self.root.as_usize())
            )));
        }
        self.topo = topo;
        self.depth = depth;
        self.derive_lookup();
        Ok(())
    }

    fn derive_lookup(&mut self) {
        // (key range in `keys`, rank, concept): rank 0 for a primary name,
        // 1 for a synonym, so each key's primary carriers sort first.
        let mut keys = String::new();
        let mut entries: Vec<(Range<usize>, u8, ExtConceptId)> = Vec::new();
        let mut add = |s: &str, rank: u8, c: usize| {
            let start = keys.len();
            keys.push_str(&normalize(s));
            entries.push((start..keys.len(), rank, ExtConceptId::from_usize(c)));
        };
        for c in 0..self.names.len() {
            add(self.names.get(c), 0, c);
        }
        for c in 0..self.names.len() {
            for s in self.synonym_offsets[c] as usize..self.synonym_offsets[c + 1] as usize {
                add(self.synonyms.get(s), 1, c);
            }
        }
        entries.sort_unstable_by(|a, b| {
            keys[a.0.clone()].cmp(&keys[b.0.clone()]).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        });
        let mut lookup_keys = StringColumn::default();
        let mut lookup_offsets: Vec<u32> = Vec::new();
        let mut lookup_ids: Vec<ExtConceptId> = Vec::new();
        for (range, _, c) in entries {
            let key = &keys[range];
            if lookup_keys.is_empty() || lookup_keys.get(lookup_keys.len() - 1) != key {
                lookup_keys.push(key);
                lookup_offsets.push(lookup_ids.len() as u32);
            }
            let group = *lookup_offsets.last().expect("a key is open") as usize;
            if !lookup_ids[group..].contains(&c) {
                lookup_ids.push(c);
            }
        }
        lookup_offsets.push(lookup_ids.len() as u32);
        self.lookup_keys = lookup_keys;
        self.lookup_offsets = lookup_offsets;
        self.lookup_ids = lookup_ids;
    }
}

/// The frozen external knowledge source graph.
///
/// Construct through [`EkgBuilder`] (or [`Ekg::from_parts`]). Ingestion
/// adds the §5.1 shortcut edges in one batch ([`Ekg::add_shortcuts`]:
/// adding descendant → ancestor edges never breaks acyclicity or the
/// topological order); delta ingestion edits the native graph through the
/// mutation API below.
#[derive(Debug, Clone)]
pub struct Ekg {
    parts: EkgParts,
    key_slots: KeySlots,
}

/// Graphs are equal when their arrays are; `key_slots` is a per-process
/// hash layout over the same keys.
impl PartialEq for Ekg {
    fn eq(&self, other: &Self) -> bool {
        self.parts == other.parts
    }
}

impl Eq for Ekg {}

/// Hash slots over the lookup keys: each holds a key's index + 1 (0 when
/// empty), placed by linear probing from the key's hash. A probe costs a
/// cache miss or two where a binary search of 589k keys costs ~20.
/// Rebuilt from `lookup_keys` whenever they are derived or adopted.
#[derive(Debug, Clone)]
struct KeySlots {
    hasher: RandomState,
    slots: Vec<u32>,
}

impl KeySlots {
    fn build(keys: &StringColumn) -> Self {
        let hasher = RandomState::new();
        // At most two thirds full, so every probe sequence meets an empty
        // slot.
        let mut slots = vec![0u32; (keys.len() * 3 / 2 + 1).next_power_of_two()];
        let mask = slots.len() - 1;
        for k in 0..keys.len() {
            let mut i = hasher.hash_one(keys.get(k)) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = k as u32 + 1;
        }
        Self { hasher, slots }
    }

    fn find(&self, keys: &StringColumn, key: &str) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[i] as usize {
                0 => return None,
                s if keys.get(s - 1) == key => return Some(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }
}

impl Ekg {
    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.parts.names.len()
    }

    /// Whether the graph is empty (never true for a built graph, which has
    /// at least the root).
    pub fn is_empty(&self) -> bool {
        self.parts.names.is_empty()
    }

    /// The single top concept (`owl:Thing` in OWL terms).
    pub fn root(&self) -> ExtConceptId {
        self.parts.root
    }

    /// Primary name of `concept`.
    pub fn name(&self, concept: ExtConceptId) -> &str {
        self.parts.names.get(concept.as_usize())
    }

    fn synonym_range(&self, concept: ExtConceptId) -> Range<usize> {
        let offsets = &self.parts.synonym_offsets;
        offsets[concept.as_usize()] as usize..offsets[concept.as_usize() + 1] as usize
    }

    /// Synonyms of `concept` (primary name not included).
    pub fn synonyms(&self, concept: ExtConceptId) -> impl Iterator<Item = &str> + '_ {
        self.synonym_range(concept).map(|s| self.parts.synonyms.get(s))
    }

    /// Resolve a name or synonym (normalized) to concepts carrying it.
    pub fn lookup_name(&self, name: &str) -> &[ExtConceptId] {
        let p = &self.parts;
        match self.key_slots.find(&p.lookup_keys, &normalize(name)) {
            Some(k) => &p.lookup_ids[p.lookup_offsets[k] as usize..p.lookup_offsets[k + 1] as usize],
            None => &[],
        }
    }

    /// Hop depth of `concept` below the root (root = 0), over native edges.
    pub fn depth(&self, concept: ExtConceptId) -> u32 {
        self.parts.depth[concept.as_usize()]
    }

    /// Outgoing subsumption edges (towards parents / more general).
    pub fn parents(&self, concept: ExtConceptId) -> EdgeList<'_> {
        self.parts.up.row(concept)
    }

    /// Incoming subsumption edges (towards children / more specific).
    pub fn children(&self, concept: ExtConceptId) -> EdgeList<'_> {
        self.parts.down.row(concept)
    }

    /// Direct (native, non-shortcut) parents.
    pub fn native_parents(&self, concept: ExtConceptId) -> impl Iterator<Item = ExtConceptId> + '_ {
        self.parents(concept).iter().filter(|e| !e.shortcut).map(|e| e.to)
    }

    /// Direct (native, non-shortcut) children.
    pub fn native_children(
        &self,
        concept: ExtConceptId,
    ) -> impl Iterator<Item = ExtConceptId> + '_ {
        self.children(concept).iter().filter(|e| !e.shortcut).map(|e| e.to)
    }

    /// Topological order with children before parents (root last).
    pub fn topo_children_first(&self) -> &[ExtConceptId] {
        &self.parts.topo
    }

    /// All concept ids.
    pub fn concepts(&self) -> impl Iterator<Item = ExtConceptId> {
        (0..self.len()).map(ExtConceptId::from_usize)
    }

    /// All strict ancestors of `concept` (excluding itself), via native and
    /// shortcut edges.
    pub fn ancestors(&self, concept: ExtConceptId) -> HashSet<ExtConceptId> {
        Self::closure(&self.parts.up, concept)
    }

    /// All strict descendants of `concept` (excluding itself).
    pub fn descendants(&self, concept: ExtConceptId) -> HashSet<ExtConceptId> {
        Self::closure(&self.parts.down, concept)
    }

    fn closure(edges: &EdgeColumns, concept: ExtConceptId) -> HashSet<ExtConceptId> {
        let mut out = HashSet::new();
        let mut stack: Vec<ExtConceptId> = edges.targets_of(concept).to_vec();
        while let Some(c) = stack.pop() {
            if out.insert(c) {
                stack.extend_from_slice(edges.targets_of(c));
            }
        }
        out
    }

    /// Whether `anc` is a strict ancestor of `desc`.
    pub fn is_ancestor(&self, anc: ExtConceptId, desc: ExtConceptId) -> bool {
        if anc == desc {
            return false;
        }
        if anc == self.parts.root {
            return true;
        }
        let mut visited = HashSet::new();
        let mut stack: Vec<ExtConceptId> = self.parts.up.targets_of(desc).to_vec();
        while let Some(c) = stack.pop() {
            if c == anc {
                return true;
            }
            if visited.insert(c) {
                stack.extend_from_slice(self.parts.up.targets_of(c));
            }
        }
        false
    }

    /// Weighted shortest upward distances from `concept` to every ancestor
    /// (weights are original hop distances, so shortcut edges do not change
    /// the result relative to the native graph).
    pub fn upward_distances(&self, concept: ExtConceptId) -> HashMap<ExtConceptId, u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist: HashMap<ExtConceptId, u32> = HashMap::new();
        let mut heap: BinaryHeap<(Reverse<u32>, ExtConceptId)> = BinaryHeap::new();
        dist.insert(concept, 0);
        heap.push((Reverse(0), concept));
        while let Some((Reverse(d), c)) = heap.pop() {
            if dist.get(&c).copied() != Some(d) {
                continue;
            }
            for (to, weight) in self.parents(c).weighted() {
                let nd = d + weight;
                if dist.get(&to).is_none_or(|&old| nd < old) {
                    dist.insert(to, nd);
                    heap.push((Reverse(nd), to));
                }
            }
        }
        dist.remove(&concept);
        dist
    }

    /// [`Ekg::upward_distances`] into a dense, reusable [`UpwardDistances`]
    /// table — one `O(V)` allocation amortized over every probe instead of
    /// a fresh `HashMap` per call. The source itself is present at
    /// distance 0 (the convention LCS computation wants).
    pub fn upward_distances_from(&self, concept: ExtConceptId) -> UpwardDistances {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist: IdVec<ExtConceptId, u32> = IdVec::filled(u32::MAX, self.len());
        let mut reached: Vec<ExtConceptId> = Vec::new();
        let mut heap: BinaryHeap<(Reverse<u32>, ExtConceptId)> = BinaryHeap::new();
        dist[concept] = 0;
        heap.push((Reverse(0), concept));
        while let Some((Reverse(d), c)) = heap.pop() {
            if dist[c] != d {
                continue;
            }
            if c != concept {
                reached.push(c);
            }
            for (to, weight) in self.parents(c).weighted() {
                let nd = d + weight;
                if nd < dist[to] {
                    dist[to] = nd;
                    heap.push((Reverse(nd), to));
                }
            }
        }
        UpwardDistances { source: concept, dist, reached }
    }

    /// [`Ekg::upward_distances_from`] into caller-owned scratch storage.
    ///
    /// The hot loop of the query-scoped scoring engine runs one Dijkstra
    /// per candidate; with a [`UpwardScratch`] reused across candidates the
    /// per-run cost is proportional to the ancestors actually reached —
    /// no `O(V)` table allocation or clearing (stale entries are
    /// invalidated by epoch stamping). Distances computed are identical to
    /// [`Ekg::upward_distances`].
    pub fn upward_distances_into(&self, concept: ExtConceptId, scratch: &mut UpwardScratch) {
        self.parts.up.dijkstra_into(concept, scratch);
    }

    /// [`Ekg::upward_distances_into`] specialized for a graph whose upward
    /// edges all carry weight 1 (the native graph before customization
    /// adds shortcuts): a frontier BFS that settles whole distance levels
    /// at once instead of paying heap traffic per node.
    ///
    /// Settle order is identical to the Dijkstra form — ascending
    /// distance, descending id within a distance — because that order is
    /// fully determined by the final distances; each level is sorted
    /// descending before being appended to `reached`.
    ///
    /// # Panics
    /// Debug-asserts that every upward edge it crosses has weight 1.
    pub fn upward_unit_distances_into(&self, concept: ExtConceptId, scratch: &mut UpwardScratch) {
        scratch.begin(concept, self.len());
        scratch.set(concept, 0);
        let mut frontier: Vec<ExtConceptId> = vec![concept];
        let mut next: Vec<ExtConceptId> = Vec::new();
        let mut d = 0u32;
        while !frontier.is_empty() {
            let nd = d + 1;
            for &c in &frontier {
                for (to, weight) in self.parents(c).weighted() {
                    debug_assert_eq!(weight, 1, "unit-distance BFS on a weighted graph");
                    if scratch.distance(to).is_none() {
                        scratch.set(to, nd);
                        next.push(to);
                    }
                }
            }
            next.sort_unstable_by(|a, b| b.cmp(a));
            scratch.reached.extend(next.iter().copied());
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            d = nd;
        }
    }

    /// Weighted shortest *downward* distances from `concept` to every
    /// descendant, into caller-owned scratch. Since the down-graph mirrors
    /// the up-graph edge for edge (same weights), `scratch.distance(d)`
    /// afterwards equals the upward distance `d → concept` — one run
    /// answers "how far below `concept`" for every descendant, which is
    /// what path reconstruction probes repeatedly.
    pub fn downward_distances_into(&self, concept: ExtConceptId, scratch: &mut UpwardScratch) {
        self.parts.down.dijkstra_into(concept, scratch);
    }

    /// Weighted shortest upward distance from `desc` to `anc`, if `anc`
    /// subsumes `desc`.
    pub fn distance_to_ancestor(&self, desc: ExtConceptId, anc: ExtConceptId) -> Option<u32> {
        if desc == anc {
            return Some(0);
        }
        self.upward_distances(desc).get(&anc).copied()
    }

    /// Concepts within `radius` hops of `concept` over the *customized*
    /// graph: every edge — native or shortcut — counts as one hop, which is
    /// exactly why ingestion adds shortcuts (§5.1). Returns `(concept, hops)`
    /// pairs excluding the start, in BFS order (parents before children,
    /// each in edge-list order).
    ///
    /// A one-shot FIFO BFS over the edge lists. The relaxer's hot path uses
    /// [`NeighborhoodScan`] over an [`Adjacency`] instead; this is the
    /// oracle that scan is pinned against.
    pub fn neighborhood(&self, concept: ExtConceptId, radius: u32) -> Vec<(ExtConceptId, u32)> {
        let mut seen = vec![false; self.len()];
        seen[concept.as_usize()] = true;
        let mut frontier = VecDeque::from([(concept, 0u32)]);
        let mut discovered = Vec::new();
        while let Some((c, h)) = frontier.pop_front() {
            if h >= radius {
                break;
            }
            for &to in self.parts.up.targets_of(c).iter().chain(self.parts.down.targets_of(c)) {
                let seen = &mut seen[to.as_usize()];
                if !*seen {
                    *seen = true;
                    discovered.push((to, h + 1));
                    frontier.push_back((to, h + 1));
                }
            }
        }
        discovered
    }

    /// Add an application-specific shortcut edge `desc → anc` carrying the
    /// original distance between the two (§5.1, Figure 5).
    ///
    /// # Errors
    /// As [`Ekg::add_shortcuts`].
    pub fn add_shortcut(
        &mut self,
        desc: ExtConceptId,
        anc: ExtConceptId,
        original_distance: u32,
    ) -> Result<()> {
        let ok = self.is_ancestor(anc, desc);
        self.add_shortcuts_validated(&[(desc, anc, original_distance)], |_, _| ok)
    }

    /// Add a batch of `(desc, anc, original distance)` shortcut edges, with
    /// each ancestry check answered by a prebuilt
    /// [`crate::reach::ReachabilityIndex`] — a single bit probe instead of
    /// a per-edge upward BFS. The index must have been built over this
    /// graph; shortcut edges never change the closure, so it stays valid.
    ///
    /// Each edge lands at the end of its endpoints' lists in batch order,
    /// exactly where one-at-a-time insertion would put it, but both edge
    /// columns are rebuilt once for the whole batch.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] if some `anc` is not a strict
    /// ancestor of its `desc` (which would break acyclicity), an edge
    /// already exists or repeats within the batch, or a distance is below
    /// 2. The graph is unchanged on error.
    pub fn add_shortcuts(
        &mut self,
        batch: &[(ExtConceptId, ExtConceptId, u32)],
        reach: &crate::reach::ReachabilityIndex,
    ) -> Result<()> {
        self.add_shortcuts_validated(batch, |anc, desc| reach.is_ancestor(anc, desc))
    }

    fn add_shortcuts_validated(
        &mut self,
        batch: &[(ExtConceptId, ExtConceptId, u32)],
        is_ancestor: impl Fn(ExtConceptId, ExtConceptId) -> bool,
    ) -> Result<()> {
        let exists = |desc: ExtConceptId, anc: ExtConceptId| {
            MedKbError::invalid(format!(
                "edge {:?} -> {:?} already exists",
                self.name(desc),
                self.name(anc)
            ))
        };
        for &(desc, anc, original_distance) in batch {
            if !is_ancestor(anc, desc) {
                return Err(MedKbError::invalid(format!(
                    "shortcut target {:?} is not an ancestor of {:?}",
                    self.name(anc),
                    self.name(desc)
                )));
            }
            if original_distance < 2 {
                return Err(MedKbError::invalid(
                    "shortcut must span a path of at least 2 hops".to_string(),
                ));
            }
        }
        let edge = |to, weight| Edge { to, weight, shortcut: true };
        let up: Vec<_> = batch.iter().map(|&(d, a, w)| (d, edge(a, w))).collect();
        let up = self.parts.up.appended(&up);
        // Each appended edge must be new to the list it joined: neither an
        // edge the list already had nor an earlier edge of the batch.
        for desc in self.concepts() {
            let (old, row) = (self.parts.up.range(desc).len(), up.targets_of(desc));
            if let Some(j) = (old..row.len()).find(|&j| row[..j].contains(&row[j])) {
                return Err(exists(desc, row[j]));
            }
        }
        let down: Vec<_> = batch.iter().map(|&(d, a, w)| (a, edge(d, w))).collect();
        self.parts.down = self.parts.down.appended(&down);
        self.parts.up = up;
        Ok(())
    }

    /// Number of edges (native + shortcut), counted once per edge.
    pub fn edge_count(&self) -> usize {
        self.parts.up.targets.len()
    }

    /// Number of shortcut edges.
    pub fn shortcut_count(&self) -> usize {
        self.parts.up.shortcut.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The graph's arrays, for the store's encoder.
    pub fn parts(&self) -> &EkgParts {
        &self.parts
    }

    /// Adopt a graph's arrays as they are — no builder validation, name
    /// normalization or derivation; only the lookup's hash slots are built.
    /// The store's decoder checks what it hands over (DESIGN.md §14.2).
    pub fn from_parts(parts: EkgParts) -> Self {
        Self { key_slots: KeySlots::build(&parts.lookup_keys), parts }
    }

    // —— Delta mutation API (incremental ingestion, DESIGN.md §15) ——
    //
    // These methods edit the *native* graph (no shortcut edges present;
    // the delta engine keeps the customized graph as derived output) by
    // splicing its columns, at O(edges) or O(name bytes) per call. Edge and
    // synonym mutations are positional so every removal is exactly
    // invertible. The derived tables — `topo`, `depth` and the name lookup
    // — go stale after any mutation: callers batch mutations and then run
    // [`Ekg::rebuild_derived`] once.

    /// Number of native (non-shortcut) parents of `concept`.
    pub fn native_parent_count(&self, concept: ExtConceptId) -> usize {
        self.native_parents(concept).count()
    }

    /// Add a native `child is-a parent` edge at the end of both edge lists.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] on a self edge, an out-of-range
    /// endpoint, a duplicate native edge, an edge out of the root, or an
    /// edge that would create a cycle.
    pub fn add_is_a(&mut self, child: ExtConceptId, parent: ExtConceptId) -> Result<()> {
        self.check_endpoints(child, parent)?;
        self.add_is_a_at(child, parent, self.parents(child).len(), self.children(parent).len())
    }

    fn check_endpoints(&self, child: ExtConceptId, parent: ExtConceptId) -> Result<()> {
        let n = self.len();
        if child.as_usize() >= n || parent.as_usize() >= n {
            return Err(MedKbError::invalid(format!("is_a endpoint out of range ({n} concepts)")));
        }
        Ok(())
    }

    /// [`Ekg::add_is_a`] inserting at explicit edge-list positions — the
    /// inverse of [`Ekg::remove_is_a`], restoring the exact list order the
    /// removal disturbed (traversal and serialization order depend on it).
    pub fn add_is_a_at(
        &mut self,
        child: ExtConceptId,
        parent: ExtConceptId,
        up_pos: usize,
        down_pos: usize,
    ) -> Result<()> {
        self.check_endpoints(child, parent)?;
        if child == parent {
            return Err(MedKbError::invalid(format!(
                "self subsumption on {:?}",
                self.name(child)
            )));
        }
        if child == self.parts.root {
            return Err(MedKbError::invalid(
                "the root cannot be given a parent".to_string(),
            ));
        }
        if self.native_parents(child).any(|p| p == parent) {
            return Err(MedKbError::invalid(format!(
                "duplicate edge {:?} -> {:?}",
                self.name(child),
                self.name(parent)
            )));
        }
        // Cycle: the new edge closes a loop iff `child` already subsumes
        // `parent` (checked on the current graph, which is acyclic by
        // induction).
        if self.is_ancestor(child, parent) {
            return Err(MedKbError::CycleDetected {
                detail: format!(
                    "edge {:?} -> {:?} would close a cycle",
                    self.name(child),
                    self.name(parent)
                ),
            });
        }
        if up_pos > self.parents(child).len() || down_pos > self.children(parent).len() {
            return Err(MedKbError::invalid("edge insert position out of range".to_string()));
        }
        let (p, c, q) = (&mut self.parts, child.as_usize(), parent.as_usize());
        p.up = p.up.rebuilt(|i, row| if i == c { row.insert(up_pos, native(parent)) });
        p.down = p.down.rebuilt(|i, row| if i == q { row.insert(down_pos, native(child)) });
        Ok(())
    }

    /// Remove the native `child is-a parent` edge, returning the positions
    /// it occupied in `(up[child], down[parent])` so [`Ekg::add_is_a_at`]
    /// can restore it exactly.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] if the edge does not exist or it is
    /// `child`'s last native parent edge (removing it would disconnect
    /// `child` from the root).
    pub fn remove_is_a(
        &mut self,
        child: ExtConceptId,
        parent: ExtConceptId,
    ) -> Result<(usize, usize)> {
        self.check_endpoints(child, parent)?;
        let Some(up_pos) = self.parents(child).iter().position(|e| !e.shortcut && e.to == parent)
        else {
            return Err(MedKbError::invalid(format!(
                "no native edge {:?} -> {:?}",
                self.name(child),
                self.name(parent)
            )));
        };
        if self.native_parent_count(child) < 2 {
            return Err(MedKbError::invalid(format!(
                "removing the last parent of {:?} would disconnect it",
                self.name(child)
            )));
        }
        let down_pos = self
            .children(parent)
            .iter()
            .position(|e| !e.shortcut && e.to == child)
            .expect("edge stored in both directions");
        let (p, c, q) = (&mut self.parts, child.as_usize(), parent.as_usize());
        p.up = p.up.rebuilt(|i, row| if i == c { row.remove(up_pos); });
        p.down = p.down.rebuilt(|i, row| if i == q { row.remove(down_pos); });
        Ok((up_pos, down_pos))
    }

    /// Register a new concept with a unique primary name, optional
    /// synonyms, and at least one parent. The new id is always
    /// `self.len()` before the call (ids are append-only).
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] on a duplicate primary name, an
    /// empty parent list, a repeated or out-of-range parent.
    pub fn add_concept(
        &mut self,
        name: &str,
        synonyms: &[String],
        parents: &[ExtConceptId],
    ) -> Result<ExtConceptId> {
        // Every primary name has a lookup entry under its normalized form,
        // except those registered since the lookup was last derived (with
        // `topo`, which therefore covers exactly the same concepts).
        let derived = self.parts.topo.len();
        if self.lookup_name(name).iter().any(|&c| self.name(c) == name)
            || (derived..self.len()).any(|c| self.parts.names.get(c) == name)
        {
            return Err(MedKbError::invalid(format!(
                "concept name {name:?} already registered"
            )));
        }
        if parents.is_empty() {
            return Err(MedKbError::invalid(format!(
                "new concept {name:?} must have at least one parent"
            )));
        }
        let n = self.len();
        for (i, &p) in parents.iter().enumerate() {
            if p.as_usize() >= n {
                return Err(MedKbError::invalid(format!(
                    "parent of {name:?} out of range ({n} concepts)"
                )));
            }
            if parents[..i].contains(&p) {
                return Err(MedKbError::invalid(format!(
                    "repeated parent {:?} for {name:?}",
                    self.name(p)
                )));
            }
        }
        let id = ExtConceptId::from_usize(n);
        let p = &mut self.parts;
        p.names.push(name);
        for syn in synonyms {
            p.synonyms.push(syn);
        }
        p.synonym_offsets.push(p.synonyms.len() as u32);
        p.up.offsets.push(p.up.targets.len() as u32);
        p.down.offsets.push(p.down.targets.len() as u32);
        p.up = p.up.appended(&parents.iter().map(|&q| (id, native(q))).collect::<Vec<_>>());
        p.down = p.down.appended(&parents.iter().map(|&q| (q, native(id))).collect::<Vec<_>>());
        Ok(id)
    }

    /// Attach `synonym` at the end of `concept`'s synonym list, returning
    /// its index (the handle [`Ekg::remove_synonym`] takes).
    pub fn add_synonym(&mut self, concept: ExtConceptId, synonym: &str) -> Result<usize> {
        self.insert_synonym_at(concept, self.synonym_slots(concept)?.len(), synonym)
    }

    fn synonym_slots(&self, concept: ExtConceptId) -> Result<Range<usize>> {
        if concept.as_usize() >= self.len() {
            let n = self.len();
            return Err(MedKbError::invalid(format!("synonym target out of range ({n} concepts)")));
        }
        Ok(self.synonym_range(concept))
    }

    /// Insert `synonym` at `index` in `concept`'s synonym list — the
    /// inverse of [`Ekg::remove_synonym`]. Returns the index.
    pub fn insert_synonym_at(
        &mut self,
        concept: ExtConceptId,
        index: usize,
        synonym: &str,
    ) -> Result<usize> {
        let range = self.synonym_slots(concept)?;
        if index > range.len() {
            return Err(MedKbError::invalid(format!(
                "synonym index {index} out of range for {:?}",
                self.name(concept)
            )));
        }
        self.parts.synonyms.insert(range.start + index, synonym);
        for o in &mut self.parts.synonym_offsets[concept.as_usize() + 1..] {
            *o += 1;
        }
        Ok(index)
    }

    /// Remove the synonym at `index` of `concept`, returning the raw
    /// string (so the inverse [`Ekg::insert_synonym_at`] can restore it).
    pub fn remove_synonym(&mut self, concept: ExtConceptId, index: usize) -> Result<String> {
        let range = self.synonym_slots(concept)?;
        if index >= range.len() {
            return Err(MedKbError::invalid(format!(
                "synonym index {index} out of range for {:?}",
                self.name(concept)
            )));
        }
        let raw = self.parts.synonyms.remove(range.start + index);
        for o in &mut self.parts.synonym_offsets[concept.as_usize() + 1..] {
            *o -= 1;
        }
        Ok(raw)
    }

    /// Recompute the derived tables — `topo`, `depth` and the name lookup
    /// — after a batch of mutations, with the derivation
    /// [`EkgBuilder::build`] runs, so a mutated graph carries the same
    /// derived state a freshly built twin would.
    ///
    /// # Errors
    /// [`MedKbError::CycleDetected`] / [`MedKbError::InvalidArgument`] if
    /// the mutated graph is cyclic or disconnected — cannot happen through
    /// the validated mutation methods, but kept as a hard backstop.
    pub fn rebuild_derived(&mut self) -> Result<()> {
        debug_assert_eq!(self.shortcut_count(), 0, "rebuild_derived expects a native graph");
        self.parts.derive()?;
        self.key_slots = KeySlots::build(&self.parts.lookup_keys);
        Ok(())
    }
}

/// Dense weighted upward-distance table from one source concept.
///
/// Produced by [`Ekg::upward_distances_from`]; the query-scoped scoring
/// engine computes this once per query and probes it for every candidate
/// LCS, replacing a per-pair `HashMap` Dijkstra. Probes are `O(1)` array
/// reads; [`UpwardDistances::iter`] walks only the reached ancestors.
#[derive(Debug, Clone)]
pub struct UpwardDistances {
    source: ExtConceptId,
    /// `u32::MAX` marks unreachable (the source is at 0).
    dist: IdVec<ExtConceptId, u32>,
    /// Reached ancestors (source excluded), in settle order.
    reached: Vec<ExtConceptId>,
}

impl UpwardDistances {
    /// The concept the distances start from.
    pub fn source(&self) -> ExtConceptId {
        self.source
    }

    /// Weighted upward distance to `ancestor`; `Some(0)` for the source
    /// itself, `None` when `ancestor` does not subsume the source.
    pub fn get(&self, ancestor: ExtConceptId) -> Option<u32> {
        match self.dist[ancestor] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// `(ancestor, distance)` pairs excluding the source.
    pub fn iter(&self) -> impl Iterator<Item = (ExtConceptId, u32)> + '_ {
        self.reached.iter().map(move |&c| (c, self.dist[c]))
    }

    /// Number of reached strict ancestors.
    pub fn len(&self) -> usize {
        self.reached.len()
    }

    /// Whether the source has no ancestors (i.e. it is the root).
    pub fn is_empty(&self) -> bool {
        self.reached.is_empty()
    }
}

/// Reusable storage for repeated [`Ekg::upward_distances_into`] runs.
///
/// Entries are validated by epoch stamping: starting a new run bumps the
/// epoch instead of clearing the distance table, so back-to-back runs cost
/// only the ancestors they actually touch. One scratch serves one source at
/// a time; probes refer to the most recent run.
#[derive(Debug, Clone, Default)]
pub struct UpwardScratch {
    dist: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    reached: Vec<ExtConceptId>,
    heap: std::collections::BinaryHeap<(std::cmp::Reverse<u32>, ExtConceptId)>,
    source: Option<ExtConceptId>,
}

impl UpwardScratch {
    /// An empty scratch; storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, source: ExtConceptId, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: every stale stamp would read as valid.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.reached.clear();
        self.heap.clear();
        self.source = Some(source);
    }

    fn set(&mut self, c: ExtConceptId, d: u32) {
        self.dist[c.as_usize()] = d;
        self.stamp[c.as_usize()] = self.epoch;
    }

    /// The source of the most recent run, if any.
    pub fn source(&self) -> Option<ExtConceptId> {
        self.source
    }

    /// Weighted upward distance to `ancestor` per the most recent run;
    /// `Some(0)` for the source itself, `None` when unreachable.
    pub fn distance(&self, ancestor: ExtConceptId) -> Option<u32> {
        let i = ancestor.as_usize();
        if self.stamp[i] == self.epoch {
            Some(self.dist[i])
        } else {
            None
        }
    }

    /// Strict ancestors reached by the most recent run, in settle order.
    pub fn reached(&self) -> &[ExtConceptId] {
        &self.reached
    }
}

/// The customized graph's hop adjacency as one contiguous table (CSR):
/// each concept's parents, then its children, in edge-list order.
///
/// The graph's up and down columns hold the same targets, but a scan that
/// reads both touches two offset tables and two target arrays per concept;
/// at 350k concepts that made candidate enumeration ~20% slower than this
/// one table (1.4 M ids, 7.1 MB). It is a snapshot of the graph it was
/// built from; edges added afterwards are not in it.
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<u32>,
    neighbors: Vec<ExtConceptId>,
}

impl Adjacency {
    /// Build the table over every edge of `ekg`, native and shortcut.
    ///
    /// # Panics
    /// If the graph has `u32::MAX` or more edge endpoints.
    pub fn build(ekg: &Ekg) -> Self {
        let mut offsets = Vec::with_capacity(ekg.len() + 1);
        offsets.push(0u32);
        let mut neighbors = Vec::with_capacity(2 * ekg.edge_count());
        for c in ekg.concepts() {
            neighbors.extend_from_slice(ekg.parts.up.targets_of(c));
            neighbors.extend_from_slice(ekg.parts.down.targets_of(c));
            offsets.push(u32::try_from(neighbors.len()).expect("adjacency exceeds u32 offsets"));
        }
        Self { offsets, neighbors }
    }

    /// Number of concepts the table covers.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `concept`'s parents, then its children, in edge-list order.
    pub(crate) fn neighbors(&self, concept: ExtConceptId) -> &[ExtConceptId] {
        let i = concept.as_usize();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Incremental ring-by-ring BFS over an [`Adjacency`].
///
/// Algorithm 2's dynamic radius growth asks for radius `r`, then `r+1`, …
/// until enough flagged instances are reachable. The scan keeps its
/// discovery list alive between calls, and that list is also its queue:
/// each ring is expanded from the slice the previous ring appended, so an
/// increment pays only for the newly reached ring. Discovery order is
/// identical to a fresh [`Ekg::neighborhood`] call at the same radius.
#[derive(Debug)]
pub struct NeighborhoodScan<'a> {
    adjacency: &'a Adjacency,
    seen: Vec<bool>,
    /// Discovery order with the start first; `order[ring..]` is the
    /// outermost ring (hop == `radius`), the next one to expand.
    order: Vec<(ExtConceptId, u32)>,
    ring: usize,
    radius: u32,
}

impl<'a> NeighborhoodScan<'a> {
    /// A scan rooted at `start`, with nothing expanded yet (radius 0).
    pub fn new(adjacency: &'a Adjacency, start: ExtConceptId) -> Self {
        let mut seen = vec![false; adjacency.len()];
        seen[start.as_usize()] = true;
        Self { adjacency, seen, order: vec![(start, 0)], ring: 0, radius: 0 }
    }

    /// Largest radius expanded so far.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Grow the scan until every concept within `radius` hops has been
    /// discovered, returning the full discovery list. No-op when `radius`
    /// does not exceed the current radius.
    pub fn expand_to(&mut self, radius: u32) -> &[(ExtConceptId, u32)] {
        self.expand_with(radius, |_, _| {});
        self.discovered()
    }

    /// [`NeighborhoodScan::expand_to`], handing each newly discovered
    /// concept and its hop count to `visit` as it is discovered, in
    /// discovery order. The relaxer's flag check runs here, in the same
    /// pass as the `seen` probe.
    pub fn expand_with(&mut self, radius: u32, mut visit: impl FnMut(ExtConceptId, u32)) {
        let adjacency = self.adjacency;
        while self.radius < radius && self.ring < self.order.len() {
            let (lo, hi) = (self.ring, self.order.len());
            let h = self.radius + 1;
            for at in lo..hi {
                for &n in adjacency.neighbors(self.order[at].0) {
                    let seen = &mut self.seen[n.as_usize()];
                    if !*seen {
                        *seen = true;
                        self.order.push((n, h));
                        visit(n, h);
                    }
                }
            }
            self.ring = hi;
            self.radius = h;
        }
        self.radius = self.radius.max(radius);
    }

    /// Everything discovered so far (start excluded), in BFS order.
    pub fn discovered(&self) -> &[(ExtConceptId, u32)] {
        &self.order[1..]
    }
}

#[cfg(test)]
pub(crate) fn diamond() -> Ekg {
    // root -> a -> c, root -> b -> c (diamond), plus leaf d under c.
    let mut b = EkgBuilder::new();
    let root = b.concept("root");
    let a = b.concept("a");
    let bb = b.concept("b");
    let c = b.concept("c");
    let d = b.concept("d");
    b.is_a(a, root);
    b.is_a(bb, root);
    b.is_a(c, a);
    b.is_a(c, bb);
    b.is_a(d, c);
    b.build().expect("diamond is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id_of(g: &Ekg, name: &str) -> ExtConceptId {
        g.lookup_name(name)[0]
    }

    #[test]
    fn unit_bfs_matches_dijkstra_scratch() {
        // Same distances AND the same settle order, on a multi-parent
        // graph large enough to produce distance ties.
        let mut b = EkgBuilder::new();
        let mut ids = vec![b.concept("c0")];
        for i in 1..120usize {
            let c = b.concept(&format!("c{i}"));
            let p1 = ids[(i * 7 + 3) % i];
            b.is_a(c, p1);
            if i > 2 {
                let p2 = ids[(i * 13 + 1) % (i - 2)];
                if p2 != p1 {
                    b.is_a(c, p2);
                }
            }
            ids.push(c);
        }
        let g = b.build().expect("valid");
        let mut dij = UpwardScratch::new();
        let mut bfs = UpwardScratch::new();
        for &c in &ids {
            g.upward_distances_into(c, &mut dij);
            g.upward_unit_distances_into(c, &mut bfs);
            assert_eq!(dij.reached(), bfs.reached(), "settle order for {c:?}");
            for &r in dij.reached() {
                assert_eq!(dij.distance(r), bfs.distance(r), "distance to {r:?} from {c:?}");
            }
        }
    }

    #[test]
    fn build_rejects_cycle() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let x = b.concept("x");
        let y = b.concept("y");
        b.is_a(x, root);
        b.is_a(x, y);
        b.is_a(y, x);
        match b.build() {
            Err(MedKbError::CycleDetected { .. }) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_multiple_roots() {
        let mut b = EkgBuilder::new();
        let r1 = b.concept("r1");
        let _r2 = b.concept("r2");
        let x = b.concept("x");
        b.is_a(x, r1);
        match b.build() {
            Err(MedKbError::InvalidRoot { roots: 2 }) => {}
            other => panic!("expected 2-root error, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_self_edge_and_duplicates() {
        let mut b = EkgBuilder::new();
        let r = b.concept("r");
        b.is_a(r, r);
        assert!(b.build().is_err());

        let mut b = EkgBuilder::new();
        let r = b.concept("r");
        let x = b.concept("x");
        b.is_a(x, r);
        b.is_a(x, r);
        assert!(b.build().is_err());
    }

    #[test]
    fn topo_puts_children_before_parents() {
        let g = diamond();
        let pos: HashMap<ExtConceptId, usize> =
            g.topo_children_first().iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for c in g.concepts() {
            for e in g.parents(c).iter() {
                assert!(pos[&c] < pos[&e.to], "{c:?} should precede parent {:?}", e.to);
            }
        }
        assert_eq!(*g.topo_children_first().last().unwrap(), g.root());
    }

    #[test]
    fn depth_is_min_hops_from_root() {
        let g = diamond();
        assert_eq!(g.depth(g.root()), 0);
        assert_eq!(g.depth(id_of(&g, "a")), 1);
        assert_eq!(g.depth(id_of(&g, "c")), 2);
        assert_eq!(g.depth(id_of(&g, "d")), 3);
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = diamond();
        let c = id_of(&g, "c");
        let anc = g.ancestors(c);
        assert_eq!(anc.len(), 3); // a, b, root
        assert!(anc.contains(&g.root()));
        let desc = g.descendants(g.root());
        assert_eq!(desc.len(), 4);
        assert!(g.descendants(id_of(&g, "d")).is_empty());
    }

    #[test]
    fn is_ancestor_basic() {
        let g = diamond();
        assert!(g.is_ancestor(g.root(), id_of(&g, "d")));
        assert!(g.is_ancestor(id_of(&g, "a"), id_of(&g, "c")));
        assert!(!g.is_ancestor(id_of(&g, "c"), id_of(&g, "a")));
        assert!(!g.is_ancestor(id_of(&g, "a"), id_of(&g, "a")));
        assert!(!g.is_ancestor(id_of(&g, "a"), id_of(&g, "b")));
    }

    #[test]
    fn upward_distances_take_min_over_paths() {
        let g = diamond();
        let d = id_of(&g, "d");
        let dist = g.upward_distances(d);
        assert_eq!(dist[&id_of(&g, "c")], 1);
        assert_eq!(dist[&id_of(&g, "a")], 2);
        assert_eq!(dist[&g.root()], 3);
        assert_eq!(g.distance_to_ancestor(d, d), Some(0));
        assert_eq!(g.distance_to_ancestor(id_of(&g, "a"), d), None);
    }

    #[test]
    fn neighborhood_respects_radius() {
        let g = diamond();
        let d = id_of(&g, "d");
        let n1: Vec<_> = g.neighborhood(d, 1).iter().map(|&(c, _)| c).collect();
        assert_eq!(n1, vec![id_of(&g, "c")]);
        let n2 = g.neighborhood(d, 2);
        assert_eq!(n2.len(), 3); // c, a, b
        let all = g.neighborhood(d, 10);
        assert_eq!(all.len(), 4); // everything but d itself
    }

    #[test]
    fn adjacency_lists_parents_then_children_with_shortcuts() {
        let mut g = diamond();
        let d = id_of(&g, "d");
        g.add_shortcut(d, g.root(), 3).unwrap();
        let adj = Adjacency::build(&g);
        assert_eq!(adj.len(), g.len());
        for c in g.concepts() {
            let want: Vec<ExtConceptId> =
                g.parents(c).targets().iter().chain(g.children(c).targets()).copied().collect();
            assert_eq!(adj.neighbors(c), &want[..], "{c:?}");
        }
        // The scan reaches the shortcut's far end in one hop, discovers in
        // the oracle's order, and a scan that has run out of graph still
        // reports the radius it was asked.
        let mut scan = NeighborhoodScan::new(&adj, d);
        assert!(scan.expand_to(1).contains(&(g.root(), 1)));
        assert_eq!(scan.expand_to(9), &g.neighborhood(d, 9)[..]);
        assert_eq!(scan.radius(), 9);
        let root_children: Vec<Edge> = g.children(g.root()).iter().collect();
        assert_eq!(root_children.last(), Some(&Edge { to: d, weight: 3, shortcut: true }));
        assert_eq!(g.children(g.root()).targets().len(), 3);
    }

    /// Rebuilding an edge column with edges spliced in and out keeps the
    /// shortcut bitset in step with the targets, across word boundaries.
    #[test]
    fn edge_column_splices_shift_the_shortcut_bits() {
        let n = 3;
        let model: Vec<(ExtConceptId, Edge)> = (0..150u32)
            .map(|i| {
                let e = Edge { to: ExtConceptId::new(i), weight: i, shortcut: i % 3 == 0 };
                (ExtConceptId::from_usize(i as usize % n), e)
            })
            .collect();
        let rows = |cols: &EdgeColumns| -> Vec<Vec<Edge>> {
            (0..n).map(|c| cols.row(ExtConceptId::from_usize(c)).iter().collect()).collect()
        };
        let mut cols = EdgeColumns::empty(n).appended(&model);
        let mut want = rows(&cols);
        for (pos, shortcut) in [(0, true), (7, false), (30, true), (52, true)] {
            let e = Edge { to: ExtConceptId::new(999), weight: 9, shortcut };
            cols = cols.rebuilt(|c, row| if c == 1 { row.insert(pos, e) });
            want[1].insert(pos, e);
            assert_eq!(rows(&cols), want);
            assert_eq!(cols.shortcut.len(), cols.targets.len().div_ceil(64));
        }
        for pos in [52, 0, 13, 13, 40] {
            cols = cols.rebuilt(|c, row| if c == 1 { row.remove(pos); });
            want[1].remove(pos);
            assert_eq!(rows(&cols), want);
            assert_eq!(cols.shortcut.len(), cols.targets.len().div_ceil(64));
        }
    }

    #[test]
    fn batch_shortcuts_match_one_at_a_time_and_reject_repeats() {
        let mut one = diamond();
        let (a, c, d) = (id_of(&one, "a"), id_of(&one, "c"), id_of(&one, "d"));
        let root = one.root();
        let batch = [(d, root, 3), (c, root, 2), (d, a, 2)];
        let mut batched = one.clone();
        for &(desc, anc, dist) in &batch {
            one.add_shortcut(desc, anc, dist).unwrap();
        }
        let reach = crate::reach::ReachabilityIndex::build(&batched);
        batched.add_shortcuts(&batch, &reach).unwrap();
        assert_eq!(batched, one);
        let before = batched.clone();
        let repeated = [(id_of(&before, "b"), root, 2), (id_of(&before, "b"), root, 2)];
        assert!(batched.add_shortcuts(&repeated, &reach).is_err());
        assert!(batched.add_shortcuts(&[(d, root, 3)], &reach).is_err());
        assert_eq!(batched, before, "a rejected batch changes nothing");
    }

    #[test]
    fn shortcut_shrinks_hops_but_keeps_weight() {
        let mut g = diamond();
        let d = id_of(&g, "d");
        let root = g.root();
        assert_eq!(g.neighborhood(d, 1).len(), 1);
        g.add_shortcut(d, root, 3).unwrap();
        let n1: HashSet<_> = g.neighborhood(d, 1).iter().map(|&(c, _)| c).collect();
        assert!(n1.contains(&root));
        // Semantic (weighted) distance is unchanged by the shortcut.
        assert_eq!(g.distance_to_ancestor(d, root), Some(3));
        assert_eq!(g.shortcut_count(), 1);
    }

    #[test]
    fn shortcut_rejects_non_ancestor_and_duplicates() {
        let mut g = diamond();
        let a = id_of(&g, "a");
        let b = id_of(&g, "b");
        let d = id_of(&g, "d");
        assert!(g.add_shortcut(a, b, 2).is_err()); // siblings
        assert!(g.add_shortcut(g.root(), d, 2).is_err()); // wrong direction
        g.add_shortcut(d, g.root(), 3).unwrap();
        assert!(g.add_shortcut(d, g.root(), 3).is_err()); // duplicate
        assert!(g.add_shortcut(d, a, 1).is_err()); // must span >= 2 hops
    }

    #[test]
    fn lookup_resolves_names_and_synonyms() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let f = b.concept("Hyperpyrexia");
        b.synonym(f, "high fever");
        b.is_a(f, root);
        let g = b.build().unwrap();
        assert_eq!(g.lookup_name("hyperpyrexia"), &[f]);
        assert_eq!(g.lookup_name("HIGH  FEVER"), &[f]);
        assert!(g.lookup_name("absent").is_empty());
        assert_eq!(g.synonyms(f).collect::<Vec<_>>(), vec!["high fever"]);
    }

    /// The delta-mutation contract: mutating a graph and rebuilding its
    /// derived tables must land on exactly the parts a fresh builder run
    /// over the same final inputs would produce.
    #[test]
    fn mutations_match_fresh_build() {
        let mut g = diamond();
        let b_id = id_of(&g, "b");
        let d = id_of(&g, "d");
        // Grow: new concept "e" (synonym "ee") under b, new edge d -> b.
        let e = g.add_concept("e", &["ee".to_string()], &[b_id]).unwrap();
        assert_eq!(e.as_usize(), 5);
        g.add_is_a(d, b_id).unwrap();
        g.add_synonym(id_of(&g, "a"), "alpha").unwrap();
        g.rebuild_derived().unwrap();

        // The twin built from scratch with the same declaration order.
        let mut tb = EkgBuilder::new();
        let root = tb.concept("root");
        let a = tb.concept("a");
        let bb = tb.concept("b");
        let c = tb.concept("c");
        let dd = tb.concept("d");
        let ee = tb.concept("e");
        tb.synonym(a, "alpha");
        tb.synonym(ee, "ee");
        tb.is_a(a, root);
        tb.is_a(bb, root);
        tb.is_a(c, a);
        tb.is_a(c, bb);
        tb.is_a(dd, c);
        tb.is_a(ee, bb);
        tb.is_a(dd, bb);
        let twin = tb.build().unwrap();
        assert_eq!(g, twin);
    }

    #[test]
    fn edge_remove_then_positional_add_restores_parts() {
        let mut g = diamond();
        let c = id_of(&g, "c");
        let a = id_of(&g, "a");
        let before = g.clone();
        let (up_pos, down_pos) = g.remove_is_a(c, a).unwrap();
        assert_eq!((up_pos, down_pos), (0, 0));
        g.rebuild_derived().unwrap();
        assert_ne!(g, before);
        g.add_is_a_at(c, a, up_pos, down_pos).unwrap();
        g.rebuild_derived().unwrap();
        assert_eq!(g, before);
    }

    #[test]
    fn mutation_validation_errors() {
        let mut g = diamond();
        let a = id_of(&g, "a");
        let c = id_of(&g, "c");
        let d = id_of(&g, "d");
        // Cycle: a -> c while c -> a exists transitively.
        assert!(g.add_is_a(a, c).is_err());
        // Duplicate edge.
        assert!(g.add_is_a(c, a).is_err());
        // Root cannot gain a parent.
        assert!(g.add_is_a(g.root(), a).is_err());
        // Self edge.
        assert!(g.add_is_a(a, a).is_err());
        // d's only parent edge cannot go.
        assert!(g.remove_is_a(d, c).is_err());
        // Nonexistent edge.
        assert!(g.remove_is_a(d, a).is_err());
        // Duplicate primary name / empty parents.
        assert!(g.add_concept("a", &[], &[g.root()]).is_err());
        assert!(g.add_concept("fresh", &[], &[]).is_err());
        // Synonym index bounds.
        assert!(g.remove_synonym(a, 0).is_err());
    }

    #[test]
    fn synonym_removal_keeps_justified_lookup_entries() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let f = b.concept("fever");
        b.is_a(f, root);
        let mut g = b.build().unwrap();
        // Two synonyms normalizing to the same key, plus one matching the
        // primary name. The lookup is derived, so each step re-derives it.
        g.add_synonym(f, "high fever").unwrap();
        g.add_synonym(f, "HIGH  FEVER").unwrap();
        g.add_synonym(f, "Fever").unwrap();
        g.rebuild_derived().unwrap();
        assert_eq!(g.lookup_name("high fever"), &[f]);
        // Removing one carrier keeps the entry (the other justifies it).
        let raw = g.remove_synonym(f, 0).unwrap();
        assert_eq!(raw, "high fever");
        g.rebuild_derived().unwrap();
        assert_eq!(g.lookup_name("high fever"), &[f]);
        // Removing the last carrier drops the entry.
        g.remove_synonym(f, 0).unwrap();
        g.rebuild_derived().unwrap();
        assert!(g.lookup_name("high fever").is_empty());
        // The primary name keeps its entry even when the twin synonym goes.
        g.remove_synonym(f, 0).unwrap();
        g.rebuild_derived().unwrap();
        assert_eq!(g.lookup_name("fever"), &[f]);
        assert_eq!(g.synonyms(f).count(), 0);
    }

    #[test]
    fn lookup_lists_primary_carriers_before_synonym_carriers() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let x = b.concept("x");
        let cold = b.concept("Cold");
        let y = b.concept("cold ");
        b.synonym(x, "COLD");
        b.synonym(cold, "cold");
        b.synonym(root, "zzz");
        for c in [x, cold, y] {
            b.is_a(c, root);
        }
        let g = b.build().unwrap();
        assert_eq!(g.lookup_name("cold"), &[cold, y, x]);
        assert_eq!(g.lookup_name("zzz"), &[root]);
        let keys: Vec<&str> = g.parts().lookup_keys.iter().collect();
        assert_eq!(keys, ["cold", "root", "x", "zzz"]);
    }

    #[test]
    fn lookup_misses_terminate_at_every_small_size() {
        for n in 1..40 {
            let mut b = EkgBuilder::new();
            let ids: Vec<ExtConceptId> = (0..n).map(|i| b.concept(&format!("c{i}"))).collect();
            for &c in &ids[1..] {
                b.is_a(c, ids[0]);
            }
            let g = b.build().unwrap();
            assert!(g.lookup_name("absent").is_empty(), "{n} keys");
            assert_eq!(g.lookup_name(&format!("c{}", n - 1)), &[ids[n - 1]]);
        }
    }

    #[test]
    fn add_concept_sees_names_added_since_the_last_derivation() {
        let mut g = diamond();
        let root = g.root();
        g.add_concept("fresh", &[], &[root]).unwrap();
        assert!(g.add_concept("fresh", &[], &[root]).is_err(), "added this batch");
        assert!(g.add_concept("c", &[], &[root]).is_err(), "in the lookup");
        g.add_synonym(id_of(&g, "a"), "novel").unwrap();
        g.add_concept("novel", &[], &[root]).unwrap();
        g.rebuild_derived().unwrap();
        assert!(g.add_concept("fresh", &[], &[root]).is_err(), "now in the lookup");
        assert_eq!(g.lookup_name("novel").len(), 2);
    }

    #[test]
    fn unreachable_concept_rejected() {
        // x -> r2 is a second component; r2 is a second root, so the root
        // check fires first — make a graph with one root but an island by
        // giving the island a cycle... not possible (cycle check fires).
        // Instead: single root, concept with parent edge to itself removed —
        // actually any parentless concept is a root, so unreachability from
        // the root implies multiple roots in a DAG. Verify that reasoning:
        let mut b = EkgBuilder::new();
        let r = b.concept("r");
        let x = b.concept("x");
        let y = b.concept("y");
        b.is_a(x, r);
        b.is_a(y, x);
        let g = b.build().unwrap();
        assert_eq!(g.len(), 3);
    }
}
