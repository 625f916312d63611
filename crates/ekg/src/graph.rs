//! The external knowledge source graph: storage, construction, validation,
//! and traversal.

use std::collections::{HashMap, HashSet, VecDeque};

use medkb_text::normalize;
use medkb_types::{ExtConceptId, Id, IdVec, MedKbError, Result, StringInterner};

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
        let mut up: IdVec<ExtConceptId, Vec<Edge>> = IdVec::filled(Vec::new(), n);
        let mut down: IdVec<ExtConceptId, Vec<Edge>> = IdVec::filled(Vec::new(), n);
        let mut seen: HashSet<(ExtConceptId, ExtConceptId)> = HashSet::new();
        for (child, parent) in &self.edges {
            if child == parent {
                return Err(MedKbError::invalid(format!(
                    "self subsumption on {:?}",
                    self.names.resolve(*child)
                )));
            }
            if !seen.insert((*child, *parent)) {
                return Err(MedKbError::invalid(format!(
                    "duplicate edge {:?} -> {:?}",
                    self.names.resolve(*child),
                    self.names.resolve(*parent)
                )));
            }
            up[*child].push(Edge { to: *parent, weight: 1, shortcut: false });
            down[*parent].push(Edge { to: *child, weight: 1, shortcut: false });
        }

        // Root: exactly one concept without parents.
        let roots: Vec<ExtConceptId> =
            up.iter().filter(|(_, es)| es.is_empty()).map(|(id, _)| id).collect();
        if roots.len() != 1 {
            return Err(MedKbError::InvalidRoot { roots: roots.len() });
        }
        let root = roots[0];

        // Kahn's algorithm over child -> parent edges gives a topological
        // order with children strictly before parents (Algorithm 1 line 12).
        let mut indegree: IdVec<ExtConceptId, u32> = IdVec::filled(0, n);
        for (_, es) in up.iter() {
            for e in es {
                indegree[e.to] += 1;
            }
        }
        let mut queue: VecDeque<ExtConceptId> =
            indegree.iter().filter(|(_, &d)| d == 0).map(|(id, _)| id).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(c) = queue.pop_front() {
            topo.push(c);
            for e in &up[c] {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    queue.push_back(e.to);
                }
            }
        }
        if topo.len() != n {
            let stuck: Vec<&str> = indegree
                .iter()
                .filter(|(_, &d)| d > 0)
                .map(|(id, _)| self.names.resolve(id))
                .take(4)
                .collect();
            return Err(MedKbError::CycleDetected { detail: format!("involving {stuck:?}") });
        }

        // Reachability + depth: BFS down from the root.
        let mut depth: IdVec<ExtConceptId, u32> = IdVec::filled(u32::MAX, n);
        depth[root] = 0;
        let mut bfs = VecDeque::from([root]);
        let mut reached = 1usize;
        while let Some(c) = bfs.pop_front() {
            for e in &down[c] {
                if depth[e.to] == u32::MAX {
                    depth[e.to] = depth[c] + 1;
                    reached += 1;
                    bfs.push_back(e.to);
                }
            }
        }
        if reached != n {
            return Err(MedKbError::invalid(format!(
                "{} concept(s) unreachable from root {:?}",
                n - reached,
                self.names.resolve(root)
            )));
        }

        // Name lookup: normalized primary names and synonyms.
        let mut lookup: HashMap<Box<str>, Vec<ExtConceptId>> = HashMap::new();
        for (id, name) in self.names.iter() {
            lookup.entry(normalize(name).into()).or_default().push(id);
        }
        let mut synonyms: IdVec<ExtConceptId, Vec<Box<str>>> = IdVec::filled(Vec::new(), n);
        for (idx, syns) in self.synonyms.iter().enumerate() {
            let id = ExtConceptId::from_usize(idx);
            for syn in syns {
                let norm = normalize(syn);
                let entry = lookup.entry(norm.clone().into()).or_default();
                if !entry.contains(&id) {
                    entry.push(id);
                }
                synonyms[id].push(syn.as_str().into());
            }
        }

        Ok(Ekg { names: self.names, synonyms, lookup, up, down, root, topo, depth })
    }
}

/// The frozen external knowledge source graph.
///
/// Construct through [`EkgBuilder`]. After construction the only permitted
/// mutation is [`Ekg::add_shortcut`], which ingestion uses for the §5.1
/// sparsity customization (adding a descendant → ancestor edge never breaks
/// acyclicity or the topological order).
#[derive(Debug, Clone)]
pub struct Ekg {
    names: StringInterner<ExtConceptId>,
    synonyms: IdVec<ExtConceptId, Vec<Box<str>>>,
    lookup: HashMap<Box<str>, Vec<ExtConceptId>>,
    up: IdVec<ExtConceptId, Vec<Edge>>,
    down: IdVec<ExtConceptId, Vec<Edge>>,
    root: ExtConceptId,
    topo: Vec<ExtConceptId>,
    depth: IdVec<ExtConceptId, u32>,
}

impl Ekg {
    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph is empty (never true for a built graph, which has
    /// at least the root).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The single top concept (`owl:Thing` in OWL terms).
    pub fn root(&self) -> ExtConceptId {
        self.root
    }

    /// Primary name of `concept`.
    pub fn name(&self, concept: ExtConceptId) -> &str {
        self.names.resolve(concept)
    }

    /// Synonyms of `concept` (primary name not included).
    pub fn synonyms(&self, concept: ExtConceptId) -> impl Iterator<Item = &str> {
        self.synonyms[concept].iter().map(|s| &**s)
    }

    /// Resolve a name or synonym (normalized) to concepts carrying it.
    pub fn lookup_name(&self, name: &str) -> &[ExtConceptId] {
        self.lookup.get(normalize(name).as_str()).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Hop depth of `concept` below the root (root = 0), over native edges.
    pub fn depth(&self, concept: ExtConceptId) -> u32 {
        self.depth[concept]
    }

    /// Outgoing subsumption edges (towards parents / more general).
    pub fn parents(&self, concept: ExtConceptId) -> &[Edge] {
        &self.up[concept]
    }

    /// Incoming subsumption edges (towards children / more specific).
    pub fn children(&self, concept: ExtConceptId) -> &[Edge] {
        &self.down[concept]
    }

    /// Direct (native, non-shortcut) parents.
    pub fn native_parents(&self, concept: ExtConceptId) -> impl Iterator<Item = ExtConceptId> + '_ {
        self.up[concept].iter().filter(|e| !e.shortcut).map(|e| e.to)
    }

    /// Direct (native, non-shortcut) children.
    pub fn native_children(
        &self,
        concept: ExtConceptId,
    ) -> impl Iterator<Item = ExtConceptId> + '_ {
        self.down[concept].iter().filter(|e| !e.shortcut).map(|e| e.to)
    }

    /// Topological order with children before parents (root last).
    pub fn topo_children_first(&self) -> &[ExtConceptId] {
        &self.topo
    }

    /// All concept ids.
    pub fn concepts(&self) -> impl Iterator<Item = ExtConceptId> {
        (0..self.len()).map(ExtConceptId::from_usize)
    }

    /// All strict ancestors of `concept` (excluding itself), via native and
    /// shortcut edges.
    pub fn ancestors(&self, concept: ExtConceptId) -> HashSet<ExtConceptId> {
        let mut out = HashSet::new();
        let mut stack: Vec<ExtConceptId> = self.up[concept].iter().map(|e| e.to).collect();
        while let Some(c) = stack.pop() {
            if out.insert(c) {
                stack.extend(self.up[c].iter().map(|e| e.to));
            }
        }
        out
    }

    /// All strict descendants of `concept` (excluding itself).
    pub fn descendants(&self, concept: ExtConceptId) -> HashSet<ExtConceptId> {
        let mut out = HashSet::new();
        let mut stack: Vec<ExtConceptId> = self.down[concept].iter().map(|e| e.to).collect();
        while let Some(c) = stack.pop() {
            if out.insert(c) {
                stack.extend(self.down[c].iter().map(|e| e.to));
            }
        }
        out
    }

    /// Whether `anc` is a strict ancestor of `desc`.
    pub fn is_ancestor(&self, anc: ExtConceptId, desc: ExtConceptId) -> bool {
        if anc == desc {
            return false;
        }
        if anc == self.root {
            return true;
        }
        let mut visited = HashSet::new();
        let mut stack: Vec<ExtConceptId> = self.up[desc].iter().map(|e| e.to).collect();
        while let Some(c) = stack.pop() {
            if c == anc {
                return true;
            }
            if visited.insert(c) {
                stack.extend(self.up[c].iter().map(|e| e.to));
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
            for e in &self.up[c] {
                let nd = d + e.weight;
                if dist.get(&e.to).is_none_or(|&old| nd < old) {
                    dist.insert(e.to, nd);
                    heap.push((Reverse(nd), e.to));
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
            for e in &self.up[c] {
                let nd = d + e.weight;
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    heap.push((Reverse(nd), e.to));
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
        use std::cmp::Reverse;
        scratch.begin(concept, self.len());
        scratch.set(concept, 0);
        scratch.heap.push((Reverse(0), concept));
        while let Some((Reverse(d), c)) = scratch.heap.pop() {
            if scratch.distance(c) != Some(d) {
                continue;
            }
            if c != concept {
                scratch.reached.push(c);
            }
            for e in &self.up[c] {
                let nd = d + e.weight;
                if scratch.distance(e.to).is_none_or(|old| nd < old) {
                    scratch.set(e.to, nd);
                    scratch.heap.push((Reverse(nd), e.to));
                }
            }
        }
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
                for e in &self.up[c] {
                    debug_assert_eq!(e.weight, 1, "unit-distance BFS on a weighted graph");
                    if scratch.distance(e.to).is_none() {
                        scratch.set(e.to, nd);
                        next.push(e.to);
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
        use std::cmp::Reverse;
        scratch.begin(concept, self.len());
        scratch.set(concept, 0);
        scratch.heap.push((Reverse(0), concept));
        while let Some((Reverse(d), c)) = scratch.heap.pop() {
            if scratch.distance(c) != Some(d) {
                continue;
            }
            if c != concept {
                scratch.reached.push(c);
            }
            for e in &self.down[c] {
                let nd = d + e.weight;
                if scratch.distance(e.to).is_none_or(|old| nd < old) {
                    scratch.set(e.to, nd);
                    scratch.heap.push((Reverse(nd), e.to));
                }
            }
        }
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
            for e in self.up[c].iter().chain(&self.down[c]) {
                let seen = &mut seen[e.to.as_usize()];
                if !*seen {
                    *seen = true;
                    discovered.push((e.to, h + 1));
                    frontier.push_back((e.to, h + 1));
                }
            }
        }
        discovered
    }

    /// Add an application-specific shortcut edge `desc → anc` carrying the
    /// original distance between the two (§5.1, Figure 5).
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] if `anc` is not a strict ancestor of
    /// `desc` (which would break acyclicity) or an edge already exists.
    pub fn add_shortcut(
        &mut self,
        desc: ExtConceptId,
        anc: ExtConceptId,
        original_distance: u32,
    ) -> Result<()> {
        let ok = self.is_ancestor(anc, desc);
        self.add_shortcut_validated(desc, anc, original_distance, ok)
    }

    /// [`Ekg::add_shortcut`] with the ancestry check answered by a
    /// prebuilt [`crate::reach::ReachabilityIndex`] — a single bit probe
    /// instead of a per-edge upward BFS, which is what makes the §5.1
    /// customization loop cheap at ingestion time. The index must have been
    /// built over this graph; shortcut edges never change the closure, so
    /// it stays valid across repeated insertions.
    pub fn add_shortcut_with(
        &mut self,
        desc: ExtConceptId,
        anc: ExtConceptId,
        original_distance: u32,
        reach: &crate::reach::ReachabilityIndex,
    ) -> Result<()> {
        let ok = reach.is_ancestor(anc, desc);
        self.add_shortcut_validated(desc, anc, original_distance, ok)
    }

    fn add_shortcut_validated(
        &mut self,
        desc: ExtConceptId,
        anc: ExtConceptId,
        original_distance: u32,
        is_ancestor: bool,
    ) -> Result<()> {
        if !is_ancestor {
            return Err(MedKbError::invalid(format!(
                "shortcut target {:?} is not an ancestor of {:?}",
                self.name(anc),
                self.name(desc)
            )));
        }
        if self.up[desc].iter().any(|e| e.to == anc) {
            return Err(MedKbError::invalid(format!(
                "edge {:?} -> {:?} already exists",
                self.name(desc),
                self.name(anc)
            )));
        }
        if original_distance < 2 {
            return Err(MedKbError::invalid(
                "shortcut must span a path of at least 2 hops".to_string(),
            ));
        }
        self.up[desc].push(Edge { to: anc, weight: original_distance, shortcut: true });
        self.down[anc].push(Edge { to: desc, weight: original_distance, shortcut: true });
        Ok(())
    }

    /// Number of edges (native + shortcut), counted once per edge.
    pub fn edge_count(&self) -> usize {
        self.up.iter().map(|(_, es)| es.len()).sum()
    }

    /// Number of shortcut edges.
    pub fn shortcut_count(&self) -> usize {
        self.up.iter().map(|(_, es)| es.iter().filter(|e| e.shortcut).count()).sum()
    }

    /// Decompose into the flat parts `medkb-store` serializes.
    ///
    /// Everything is emitted in a canonical order: names/synonyms/edges in
    /// id order, the normalized-lookup table sorted by key (its `HashMap`
    /// iteration order is not stable). Edge lists keep their in-memory
    /// order — it encodes the shortcut insertion sequence BFS/Dijkstra
    /// traversals observe, so a rebuilt graph answers identically.
    pub fn to_parts(&self) -> EkgParts {
        let mut lookup: Vec<(Box<str>, Vec<ExtConceptId>)> =
            self.lookup.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        lookup.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        EkgParts {
            names: self.names.iter().map(|(_, s)| s.into()).collect(),
            synonyms: self.synonyms.iter().map(|(_, v)| v.clone()).collect(),
            lookup,
            up: self.up.iter().map(|(_, v)| v.clone()).collect(),
            down: self.down.iter().map(|(_, v)| v.clone()).collect(),
            root: self.root,
            topo: self.topo.clone(),
            depth: self.depth.iter().map(|(_, &d)| d).collect(),
        }
    }

    /// Reassemble a graph from [`Ekg::to_parts`] output without re-running
    /// builder validation or name normalization (the parts came from a
    /// validated graph; the store's checksums guard the bytes in between).
    pub fn from_parts(parts: EkgParts) -> Self {
        let mut names = StringInterner::new();
        for name in &parts.names {
            names.intern(name);
        }
        Self {
            names,
            synonyms: parts.synonyms.into_iter().collect(),
            lookup: parts.lookup.into_iter().collect(),
            up: parts.up.into_iter().collect(),
            down: parts.down.into_iter().collect(),
            root: parts.root,
            topo: parts.topo,
            depth: parts.depth.into_iter().collect(),
        }
    }

    // —— Delta mutation API (incremental ingestion, DESIGN.md §15) ——
    //
    // These methods mutate the *native* graph (no shortcut edges present;
    // the delta engine keeps the customized graph as derived output). Edge
    // and synonym mutations are positional so every removal is exactly
    // invertible; lookup-table maintenance preserves the canonical entry
    // form the builder produces: `[primary-name ids ascending] ++
    // [synonym-only ids ascending]`. `topo`/`depth` go stale after edge or
    // concept mutations — callers batch mutations and then run
    // [`Ekg::rebuild_derived`] once.

    /// Number of native (non-shortcut) parents of `concept`.
    pub fn native_parent_count(&self, concept: ExtConceptId) -> usize {
        self.up[concept].iter().filter(|e| !e.shortcut).count()
    }

    /// Add a native `child is-a parent` edge at the end of both edge lists.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] on a self edge, an out-of-range
    /// endpoint, a duplicate native edge, an edge out of the root, or an
    /// edge that would create a cycle.
    pub fn add_is_a(&mut self, child: ExtConceptId, parent: ExtConceptId) -> Result<()> {
        let up_pos = self.up[child].len();
        let down_pos = self.down[parent].len();
        self.add_is_a_at(child, parent, up_pos, down_pos)
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
        let n = self.len();
        if child.as_usize() >= n || parent.as_usize() >= n {
            return Err(MedKbError::invalid(format!(
                "is_a endpoint out of range ({} concepts)",
                n
            )));
        }
        if child == parent {
            return Err(MedKbError::invalid(format!(
                "self subsumption on {:?}",
                self.name(child)
            )));
        }
        if child == self.root {
            return Err(MedKbError::invalid(
                "the root cannot be given a parent".to_string(),
            ));
        }
        if self.up[child].iter().any(|e| !e.shortcut && e.to == parent) {
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
        if up_pos > self.up[child].len() || down_pos > self.down[parent].len() {
            return Err(MedKbError::invalid("edge insert position out of range".to_string()));
        }
        self.up[child].insert(up_pos, Edge { to: parent, weight: 1, shortcut: false });
        self.down[parent].insert(down_pos, Edge { to: child, weight: 1, shortcut: false });
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
        let n = self.len();
        if child.as_usize() >= n || parent.as_usize() >= n {
            return Err(MedKbError::invalid(format!(
                "is_a endpoint out of range ({} concepts)",
                n
            )));
        }
        let Some(up_pos) =
            self.up[child].iter().position(|e| !e.shortcut && e.to == parent)
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
        let down_pos = self.down[parent]
            .iter()
            .position(|e| !e.shortcut && e.to == child)
            .expect("edge stored in both directions");
        self.up[child].remove(up_pos);
        self.down[parent].remove(down_pos);
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
        if self.names.get(name).is_some() {
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
        let id = self.names.intern(name);
        self.synonyms.push(Vec::new());
        self.up.push(Vec::new());
        self.down.push(Vec::new());
        // Fresh leaf: depth = 1 + min parent depth (its true BFS depth,
        // since all paths to it end in one of its parents); topo gets the
        // leaf prepended — children-first order admits any position before
        // its parents, and the engine rebuilds canonically afterwards.
        let d = parents.iter().map(|&p| self.depth[p]).min().unwrap_or(0) + 1;
        self.depth.push(d);
        self.topo.insert(0, id);
        for &p in parents {
            self.up[id].push(Edge { to: p, weight: 1, shortcut: false });
            self.down[p].push(Edge { to: id, weight: 1, shortcut: false });
        }
        self.lookup_insert(&normalize(name), id, true);
        for syn in synonyms {
            self.synonyms[id].push(syn.as_str().into());
            self.lookup_insert(&normalize(syn), id, false);
        }
        Ok(id)
    }

    /// Attach `synonym` at the end of `concept`'s synonym list, returning
    /// its index (the handle [`Ekg::remove_synonym`] takes).
    pub fn add_synonym(&mut self, concept: ExtConceptId, synonym: &str) -> Result<usize> {
        self.insert_synonym_at(concept, self.synonyms.get(concept).map_or(0, Vec::len), synonym)
    }

    /// Insert `synonym` at `index` in `concept`'s synonym list — the
    /// inverse of [`Ekg::remove_synonym`]. Returns the index.
    pub fn insert_synonym_at(
        &mut self,
        concept: ExtConceptId,
        index: usize,
        synonym: &str,
    ) -> Result<usize> {
        if concept.as_usize() >= self.len() {
            return Err(MedKbError::invalid(format!(
                "synonym target out of range ({} concepts)",
                self.len()
            )));
        }
        if index > self.synonyms[concept].len() {
            return Err(MedKbError::invalid(format!(
                "synonym index {index} out of range for {:?}",
                self.name(concept)
            )));
        }
        self.synonyms[concept].insert(index, synonym.into());
        self.lookup_insert(&normalize(synonym), concept, false);
        Ok(index)
    }

    /// Remove the synonym at `index` of `concept`, returning the raw
    /// string (so the inverse [`Ekg::insert_synonym_at`] can restore it).
    pub fn remove_synonym(&mut self, concept: ExtConceptId, index: usize) -> Result<String> {
        if concept.as_usize() >= self.len() {
            return Err(MedKbError::invalid(format!(
                "synonym target out of range ({} concepts)",
                self.len()
            )));
        }
        if index >= self.synonyms[concept].len() {
            return Err(MedKbError::invalid(format!(
                "synonym index {index} out of range for {:?}",
                self.name(concept)
            )));
        }
        let raw: String = self.synonyms[concept].remove(index).into();
        self.lookup_remove_if_unjustified(&normalize(&raw), concept);
        Ok(raw)
    }

    /// Insert `id` into the lookup entry for normalized `key`, preserving
    /// the builder's canonical entry order: primary-name carriers in
    /// ascending id order, then synonym-only carriers in ascending id
    /// order (first-carrier dedup means each id appears at most once).
    fn lookup_insert(&mut self, key: &str, id: ExtConceptId, primary: bool) {
        let names = &self.names;
        let entry = self.lookup.entry(key.into()).or_default();
        if entry.contains(&id) {
            return;
        }
        let is_primary_member = |m: ExtConceptId| normalize(names.resolve(m)) == key;
        let pos = if primary {
            entry.iter().position(|&m| !is_primary_member(m) || m > id)
        } else {
            entry.iter().position(|&m| !is_primary_member(m) && m > id)
        };
        entry.insert(pos.unwrap_or(entry.len()), id);
    }

    /// Drop `id` from the lookup entry for normalized `key` unless its
    /// primary name or a remaining synonym still justifies the membership.
    /// Entries left empty are removed entirely (a fresh build would not
    /// have the key).
    fn lookup_remove_if_unjustified(&mut self, key: &str, id: ExtConceptId) {
        let justified = normalize(self.names.resolve(id)) == key
            || self.synonyms[id].iter().any(|s| normalize(s) == key);
        if justified {
            return;
        }
        if let Some(entry) = self.lookup.get_mut(key) {
            entry.retain(|&m| m != id);
            if entry.is_empty() {
                self.lookup.remove(key);
            }
        }
    }

    /// Recompute the derived `topo` and `depth` tables after a batch of
    /// edge/concept mutations, with the exact algorithms
    /// [`EkgBuilder::build`] uses (Kahn children-first topological order
    /// seeded in id order; BFS hop depth from the root) — so a mutated
    /// graph carries the same derived state a freshly built twin would.
    ///
    /// # Errors
    /// [`MedKbError::CycleDetected`] / [`MedKbError::InvalidArgument`] if
    /// the mutated graph is cyclic or disconnected — cannot happen through
    /// the validated mutation methods, but kept as a hard backstop.
    pub fn rebuild_derived(&mut self) -> Result<()> {
        debug_assert_eq!(self.shortcut_count(), 0, "rebuild_derived expects a native graph");
        let n = self.len();
        let mut indegree: IdVec<ExtConceptId, u32> = IdVec::filled(0, n);
        for (_, es) in self.up.iter() {
            for e in es {
                indegree[e.to] += 1;
            }
        }
        let mut queue: VecDeque<ExtConceptId> =
            indegree.iter().filter(|(_, &d)| d == 0).map(|(id, _)| id).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(c) = queue.pop_front() {
            topo.push(c);
            for e in &self.up[c] {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    queue.push_back(e.to);
                }
            }
        }
        if topo.len() != n {
            let stuck: Vec<&str> = indegree
                .iter()
                .filter(|(_, &d)| d > 0)
                .map(|(id, _)| self.names.resolve(id))
                .take(4)
                .collect();
            return Err(MedKbError::CycleDetected { detail: format!("involving {stuck:?}") });
        }

        let mut depth: IdVec<ExtConceptId, u32> = IdVec::filled(u32::MAX, n);
        depth[self.root] = 0;
        let mut bfs = VecDeque::from([self.root]);
        let mut reached = 1usize;
        while let Some(c) = bfs.pop_front() {
            for e in &self.down[c] {
                if depth[e.to] == u32::MAX {
                    depth[e.to] = depth[c] + 1;
                    reached += 1;
                    bfs.push_back(e.to);
                }
            }
        }
        if reached != n {
            return Err(MedKbError::invalid(format!(
                "{} concept(s) unreachable from root {:?}",
                n - reached,
                self.names.resolve(self.root)
            )));
        }
        self.topo = topo;
        self.depth = depth;
        Ok(())
    }
}

/// Flat serialization parts of an [`Ekg`] ([`Ekg::to_parts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EkgParts {
    /// Primary names in concept-id order.
    pub names: Vec<Box<str>>,
    /// Synonym lists in concept-id order.
    pub synonyms: Vec<Vec<Box<str>>>,
    /// Normalized name/synonym → concepts, sorted by key.
    pub lookup: Vec<(Box<str>, Vec<ExtConceptId>)>,
    /// Upward edge lists (native + shortcut) in concept-id order.
    pub up: Vec<Vec<Edge>>,
    /// Downward edge lists in concept-id order.
    pub down: Vec<Vec<Edge>>,
    /// The single root.
    pub root: ExtConceptId,
    /// Children-first topological order.
    pub topo: Vec<ExtConceptId>,
    /// Native hop depth below the root, in concept-id order.
    pub depth: Vec<u32>,
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
/// [`Ekg`]'s per-concept edge lists stay the storage that ingestion,
/// delta updates and the Dijkstra/LCS code mutate and read. This table is
/// the traversal-shaped copy [`NeighborhoodScan`] walks: plain `u32` ids
/// with no edge weights, one slice per concept instead of two heap
/// allocations. It is a snapshot of the graph it was built from; edges
/// added afterwards are not in it.
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
            neighbors.extend(ekg.up[c].iter().chain(&ekg.down[c]).map(|e| e.to));
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
            for e in g.parents(c) {
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
                g.parents(c).iter().chain(g.children(c)).map(|e| e.to).collect();
            assert_eq!(adj.neighbors(c), &want[..], "{c:?}");
        }
        // The scan reaches the shortcut's far end in one hop, and a scan
        // that has run out of graph still reports the radius it was asked.
        let mut scan = NeighborhoodScan::new(&adj, d);
        assert!(scan.expand_to(1).contains(&(g.root(), 1)));
        assert_eq!(scan.expand_to(9), &g.neighborhood(d, 9)[..]);
        assert_eq!(scan.radius(), 9);
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
        assert_eq!(g.to_parts(), twin.to_parts());
    }

    #[test]
    fn edge_remove_then_positional_add_restores_parts() {
        let mut g = diamond();
        let c = id_of(&g, "c");
        let a = id_of(&g, "a");
        let before = g.to_parts();
        let (up_pos, down_pos) = g.remove_is_a(c, a).unwrap();
        assert_eq!((up_pos, down_pos), (0, 0));
        g.rebuild_derived().unwrap();
        assert_ne!(g.to_parts(), before);
        g.add_is_a_at(c, a, up_pos, down_pos).unwrap();
        g.rebuild_derived().unwrap();
        assert_eq!(g.to_parts(), before);
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
        // primary name.
        g.add_synonym(f, "high fever").unwrap();
        g.add_synonym(f, "HIGH  FEVER").unwrap();
        g.add_synonym(f, "Fever").unwrap();
        assert_eq!(g.lookup_name("high fever"), &[f]);
        // Removing one carrier keeps the entry (the other justifies it).
        let raw = g.remove_synonym(f, 0).unwrap();
        assert_eq!(raw, "high fever");
        assert_eq!(g.lookup_name("high fever"), &[f]);
        // Removing the last carrier drops the entry.
        g.remove_synonym(f, 0).unwrap();
        assert!(g.lookup_name("high fever").is_empty());
        // The primary name keeps its entry even when the twin synonym goes.
        g.remove_synonym(f, 0).unwrap();
        assert_eq!(g.lookup_name("fever"), &[f]);
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
