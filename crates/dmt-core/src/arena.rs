//! Arena storage for the Dynamic Model Tree: a flat struct-of-arrays node
//! pool with id-based links instead of a recursive `Box` tree.
//!
//! # Why an arena
//!
//! The per-instance cost of a streaming tree is dominated by descent, not by
//! the leaf math: every prediction walks from the root to a leaf, and a
//! pointer-chasing `Box<Node>` layout turns each step into a dependent cache
//! miss. [`NodeArena`] stores all nodes of a tree in parallel `Vec`s indexed
//! by [`NodeId`], so the fields descent actually touches — split feature,
//! split value, split kind and the two child ids — live in four dense arrays
//! (a struct-of-arrays "SoA" layout). A batch of instances routed
//! level-by-level then streams through those arrays instead of scattering
//! across the heap, which is the standard layout in high-throughput tree
//! learners (VFDT/MOA-style systems).
//!
//! # Free-list reuse and canonical order
//!
//! The DMT retires structure all the time (prune and replace, paper §III):
//! collapsed subtrees push their slots onto an internal free list and the
//! next split pops from it, so long drifting streams do not fragment or grow
//! the arena without bound. The free list is kept in **canonical order** —
//! sorted descending, so allocation pops the lowest free slot first. The
//! canonical order makes slot assignment a pure function of the structural
//! edit history (not of the push order inside one edit), keeps reuse biased
//! towards the dense low end of the arrays, and lets the snapshot codec
//! treat the free list as a set: any two arenas in the same logical state
//! serialise to the same bytes.
//!
//! Even with reuse, a tree that once grew large holds its peak-size columns
//! forever; [`NodeArena::compact`] rewrites the arena into a dense,
//! hole-free layout (preorder slot order, empty free list, capacities
//! shrunk) so the memory-budget ladder can actually return bytes to the
//! allocator. Compaction moves payloads without touching their values, so
//! predictions and future learning are bit-identical across it.
//!
//! # Iteration by id
//!
//! Export, explanation and test helpers iterate the tree *by id* through
//! [`NodeArena::children`] / [`NodeArena::split_key`] / [`NodeArena::stats`]
//! rather than through node references: ids are `Copy`, never dangle across
//! structural edits of *other* subtrees.

use dmt_models::linalg::MatRef;
use dmt_models::memory::{slice_deep_bytes, vec_bytes};
use dmt_models::{argmax, MemoryUsage, Rows, SimpleModel as _};

use crate::candidate::CandidateKey;
use crate::node::NodeStats;
use crate::scratch::PredictScratch;

/// Sentinel child index marking a leaf.
const NONE: u32 = u32::MAX;

/// Identifier of a node inside a [`NodeArena`].
///
/// A `NodeId` is a plain index into the arena's parallel arrays; it stays
/// valid for as long as the node it names is live (structural edits of other
/// subtrees never move nodes). Ids of pruned nodes are recycled by later
/// splits via the arena's free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw slot index of this id (stable while the node is live).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a raw slot index (snapshot decoding). The caller
    /// is responsible for bounds-checking against the owning arena.
    pub(crate) fn from_raw(raw: u32) -> NodeId {
        NodeId(raw)
    }
}

/// Flat struct-of-arrays node pool of one Dynamic Model Tree.
///
/// Split keys are stored SoA — feature index, threshold/code and test kind in
/// parallel arrays next to the child ids — so batched descent touches only
/// the hot routing fields. The cold per-node payload ([`NodeStats`]: the GLM,
/// the loss/gradient window and the candidate pool) lives in its own array
/// and is only dereferenced once a batch *reaches* a node.
#[derive(Debug, Clone)]
pub struct NodeArena {
    /// Tested feature per slot (unused while the slot is a leaf).
    split_feature: Vec<u32>,
    /// Split threshold (numeric) or category code (nominal) per slot.
    split_value: Vec<f64>,
    /// Whether the slot's split is a nominal equality test.
    split_nominal: Vec<bool>,
    /// Left child per slot; [`NONE`] marks a leaf.
    left: Vec<u32>,
    /// Right child per slot; [`NONE`] marks a leaf.
    right: Vec<u32>,
    /// Cold per-node payload, aligned with the arrays above.
    stats: Vec<NodeStats>,
    /// Recycled slots in canonical (descending) order, so the next
    /// allocation pops the lowest free slot. Bulk-free operations restore
    /// the order via [`NodeArena::canonicalise_free`].
    free: Vec<u32>,
}

impl NodeArena {
    /// Create an empty arena with no nodes (a tree arena starts via
    /// [`NodeArena::with_root`]).
    fn new_empty() -> Self {
        Self {
            split_feature: Vec::new(),
            split_value: Vec::new(),
            split_nominal: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            stats: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Create an arena holding a single root leaf and return `(arena, root)`.
    pub fn with_root(stats: NodeStats) -> (Self, NodeId) {
        let mut arena = Self::new_empty();
        let root = arena.alloc_leaf(stats);
        (arena, root)
    }

    /// Allocate a fresh leaf, reusing a free-listed slot when available.
    pub fn alloc_leaf(&mut self, stats: NodeStats) -> NodeId {
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.split_feature[i] = 0;
            self.split_value[i] = 0.0;
            self.split_nominal[i] = false;
            self.left[i] = NONE;
            self.right[i] = NONE;
            self.stats[i] = stats;
            NodeId(slot)
        } else {
            let slot = u32::try_from(self.stats.len()).expect("arena exceeds u32 slots");
            self.split_feature.push(0);
            self.split_value.push(0.0);
            self.split_nominal.push(false);
            self.left.push(NONE);
            self.right.push(NONE);
            self.stats.push(stats);
            NodeId(slot)
        }
    }

    /// Turn `id` into an inner node splitting on `key`, with two freshly
    /// allocated leaf children. Returns `(left, right)`.
    ///
    /// `id` must currently be a leaf (split a `Replace` through
    /// [`NodeArena::collapse_to_leaf`] first so the old subtree is recycled).
    pub fn install_split(
        &mut self,
        id: NodeId,
        key: CandidateKey,
        left_stats: NodeStats,
        right_stats: NodeStats,
    ) -> (NodeId, NodeId) {
        debug_assert!(self.is_leaf(id), "install_split target must be a leaf");
        let left = self.alloc_leaf(left_stats);
        let right = self.alloc_leaf(right_stats);
        let i = id.index();
        self.split_feature[i] = u32::try_from(key.feature).expect("feature index fits u32");
        self.split_value[i] = key.value;
        self.split_nominal[i] = key.is_nominal;
        self.left[i] = left.0;
        self.right[i] = right.0;
        (left, right)
    }

    /// Collapse the inner node `id` back into a leaf, pushing every
    /// descendant slot onto the free list (the node's own [`NodeStats`] stay
    /// in place — pruning keeps the parent model, paper §III).
    pub fn collapse_to_leaf(&mut self, id: NodeId) {
        let i = id.index();
        let (l, r) = (self.left[i], self.right[i]);
        self.left[i] = NONE;
        self.right[i] = NONE;
        if l != NONE {
            self.free_subtree(l);
        }
        if r != NONE {
            self.free_subtree(r);
        }
        self.canonicalise_free();
    }

    /// Restore the canonical (descending) free-list order after a bulk free,
    /// so slot reuse depends only on *which* slots are free, never on the
    /// traversal order that freed them.
    fn canonicalise_free(&mut self) {
        self.free.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Push `slot` and all its descendants onto the free list.
    fn free_subtree(&mut self, slot: u32) {
        let i = slot as usize;
        let (l, r) = (self.left[i], self.right[i]);
        self.left[i] = NONE;
        self.right[i] = NONE;
        self.free.push(slot);
        if l != NONE {
            self.free_subtree(l);
        }
        if r != NONE {
            self.free_subtree(r);
        }
    }

    /// Whether `id` currently is a leaf.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.left[id.index()] == NONE
    }

    /// The children `(left, right)` of an inner node, `None` for a leaf.
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        let i = id.index();
        if self.left[i] == NONE {
            None
        } else {
            Some((NodeId(self.left[i]), NodeId(self.right[i])))
        }
    }

    /// The split key installed at an inner node (reconstructed from the SoA
    /// arrays; meaningless for leaves).
    pub fn split_key(&self, id: NodeId) -> CandidateKey {
        let i = id.index();
        CandidateKey {
            feature: self.split_feature[i] as usize,
            value: self.split_value[i],
            is_nominal: self.split_nominal[i],
        }
    }

    /// Shared borrow of a node's statistics.
    pub fn stats(&self, id: NodeId) -> &NodeStats {
        &self.stats[id.index()]
    }

    /// Mutable borrow of a node's statistics.
    pub fn stats_mut(&mut self, id: NodeId) -> &mut NodeStats {
        &mut self.stats[id.index()]
    }

    /// The leaf responsible for `x` under the subtree rooted at `root`
    /// (allocation-free descent over the SoA arrays).
    pub fn leaf_for(&self, root: NodeId, x: &[f64]) -> NodeId {
        let mut i = root.0 as usize;
        while self.left[i] != NONE {
            let v = x[self.split_feature[i] as usize];
            let goes_left = if self.split_nominal[i] {
                (v - self.split_value[i]).abs() < 1e-9
            } else {
                v <= self.split_value[i]
            };
            i = if goes_left {
                self.left[i]
            } else {
                self.right[i]
            } as usize;
        }
        NodeId(i as u32)
    }

    /// `(inner nodes, leaves)` of the subtree rooted at `id`.
    pub fn count_nodes(&self, id: NodeId) -> (u64, u64) {
        match self.children(id) {
            None => (0, 1),
            Some((l, r)) => {
                let (il, ll) = self.count_nodes(l);
                let (ir, lr) = self.count_nodes(r);
                (1 + il + ir, ll + lr)
            }
        }
    }

    /// Depth of the subtree rooted at `id` (a single leaf has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        match self.children(id) {
            None => 0,
            Some((l, r)) => 1 + self.depth(l).max(self.depth(r)),
        }
    }

    /// Sum of the leaf losses `Σ_{J_t ⊆ I_t} L(Θ_Jt, Y_Jt, X_Jt)` and the
    /// number of leaves of the subtree rooted at `id`.
    pub fn subtree_leaf_loss(&self, id: NodeId) -> (f64, u64) {
        match self.children(id) {
            None => (self.stats(id).loss_sum, 1),
            Some((l, r)) => {
                let (ll, lc) = self.subtree_leaf_loss(l);
                let (rl, rc) = self.subtree_leaf_loss(r);
                (ll + rl, lc + rc)
            }
        }
    }

    /// Total number of slots ever allocated (live + free-listed).
    pub fn num_slots(&self) -> usize {
        self.stats.len()
    }

    /// Number of currently recycled slots on the free list.
    pub fn num_free(&self) -> usize {
        self.free.len()
    }

    /// The raw SoA columns `(split_feature, split_value, split_nominal,
    /// left, right, free)` for snapshot encoding (`crate::snapshot`).
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot_columns(&self) -> (&[u32], &[f64], &[bool], &[u32], &[u32], &[u32]) {
        (
            &self.split_feature,
            &self.split_value,
            &self.split_nominal,
            &self.left,
            &self.right,
            &self.free,
        )
    }

    /// The per-slot payload column, aligned with the SoA arrays (snapshot
    /// encoding).
    pub(crate) fn stats_column(&self) -> &[NodeStats] {
        &self.stats
    }

    /// Rebuild an arena from decoded snapshot columns, enforcing the local
    /// invariants a hostile file could violate: all columns must have the
    /// same length, child links must be in bounds and paired (a slot has
    /// either two children or none), and every free-listed slot must be an
    /// unlinked leaf listed exactly once. The free list is canonicalised
    /// (descending order) regardless of the order it arrived in, so a loaded
    /// arena re-serialises to stable bytes. Global invariants (every slot
    /// reachable exactly once *or* free-listed, no reachable free slot) are
    /// the caller's job via [`NodeArena::validate`] — they need the root id,
    /// which the arena does not store.
    pub(crate) fn from_columns(
        split_feature: Vec<u32>,
        split_value: Vec<f64>,
        split_nominal: Vec<bool>,
        left: Vec<u32>,
        right: Vec<u32>,
        stats: Vec<NodeStats>,
        free: Vec<u32>,
    ) -> Result<Self, String> {
        let slots = stats.len();
        if split_feature.len() != slots
            || split_value.len() != slots
            || split_nominal.len() != slots
            || left.len() != slots
            || right.len() != slots
        {
            return Err(format!(
                "column lengths disagree: {} split features, {} split values, {} split kinds, \
                 {} left links, {} right links, {slots} payloads",
                split_feature.len(),
                split_value.len(),
                split_nominal.len(),
                left.len(),
                right.len(),
            ));
        }
        for i in 0..slots {
            let (l, r) = (left[i], right[i]);
            if (l == NONE) != (r == NONE) {
                return Err(format!("slot {i} has exactly one child"));
            }
            if l != NONE && (l as usize >= slots || r as usize >= slots) {
                return Err(format!("slot {i} links to an out-of-bounds child"));
            }
        }
        let mut freed = vec![false; slots];
        for &slot in &free {
            let i = slot as usize;
            if i >= slots {
                return Err(format!("free slot {slot} out of bounds ({slots} slots)"));
            }
            if left[i] != NONE || right[i] != NONE {
                return Err(format!("free slot {slot} still has children"));
            }
            if freed[i] {
                return Err(format!("slot {slot} free-listed more than once"));
            }
            freed[i] = true;
        }
        let mut arena = Self {
            split_feature,
            split_value,
            split_nominal,
            left,
            right,
            stats,
            free,
        };
        // Canonicalise rather than trust the decoded order: a snapshot whose
        // free list was reordered (by hand or by an older writer) loads into
        // the same in-memory state as the canonically-written one, so
        // re-serialising is stable and future slot reuse cannot depend on
        // wire-level byte order.
        arena.canonicalise_free();
        Ok(arena)
    }

    /// Number of live nodes reachable from `root`.
    pub fn live_count(&self, root: NodeId) -> usize {
        let (inner, leaves) = self.count_nodes(root);
        (inner + leaves) as usize
    }

    /// Append every node of the subtree rooted at `root` to `out` in
    /// preorder (node, left subtree, right subtree) — the deterministic
    /// iteration order the budget ladder and [`NodeArena::compact`] share.
    pub fn preorder_ids(&self, root: NodeId, out: &mut Vec<NodeId>) {
        let mut stack = vec![root.0];
        while let Some(slot) = stack.pop() {
            out.push(NodeId(slot));
            let i = slot as usize;
            if self.left[i] != NONE {
                stack.push(self.right[i]);
                stack.push(self.left[i]);
            }
        }
    }

    /// Rewrite the arena into a dense, hole-free layout and return the new
    /// root id (always [`NodeId`] 0).
    ///
    /// Live nodes are renumbered into preorder, free-listed holes disappear,
    /// and every column is reallocated at exactly the live size — this is
    /// the only operation that *returns* memory to the allocator, so the
    /// budget ladder runs it before resorting to structural degradation. All
    /// node payloads are moved, never recomputed: predictions, parameters
    /// and future learning are bit-identical across a compaction. Only slot
    /// *numbering* changes, which is invisible everywhere except snapshot
    /// bytes (a snapshot taken after compacting is the dense encoding of the
    /// same tree).
    ///
    /// Every [`NodeId`] previously handed out is invalidated; the tree
    /// (which owns the only long-lived id, its root) re-roots on the return
    /// value.
    pub fn compact(&mut self, root: NodeId) -> NodeId {
        let mut order = Vec::with_capacity(self.num_slots() - self.free.len());
        self.preorder_ids(root, &mut order);
        let live = order.len();
        let mut remap = vec![NONE; self.num_slots()];
        for (new, id) in order.iter().enumerate() {
            remap[id.index()] = new as u32;
        }
        let mut split_feature = Vec::with_capacity(live);
        let mut split_value = Vec::with_capacity(live);
        let mut split_nominal = Vec::with_capacity(live);
        let mut left = Vec::with_capacity(live);
        let mut right = Vec::with_capacity(live);
        let mut stats = Vec::with_capacity(live);
        for id in &order {
            let i = id.index();
            split_feature.push(self.split_feature[i]);
            split_value.push(self.split_value[i]);
            split_nominal.push(self.split_nominal[i]);
            left.push(if self.left[i] == NONE {
                NONE
            } else {
                remap[self.left[i] as usize]
            });
            right.push(if self.right[i] == NONE {
                NONE
            } else {
                remap[self.right[i] as usize]
            });
            stats.push(std::mem::replace(
                &mut self.stats[i],
                NodeStats::placeholder(),
            ));
        }
        self.split_feature = split_feature;
        self.split_value = split_value;
        self.split_nominal = split_nominal;
        self.left = left;
        self.right = right;
        self.stats = stats;
        self.free = Vec::new();
        let new_root = NodeId(remap[root.index()]);
        debug_assert_eq!(new_root, NodeId(0));
        debug_assert!(self.validate(new_root).is_ok());
        new_root
    }

    /// Check the arena's structural invariants for the tree rooted at
    /// `root`: every slot is either reachable exactly once or free-listed
    /// exactly once, free slots are marked as leaves, and no free slot is
    /// reachable. Returns a description of the first violation.
    ///
    /// Intended for tests and debugging — it walks the whole arena.
    pub fn validate(&self, root: NodeId) -> Result<(), String> {
        let slots = self.num_slots();
        let mut seen = vec![0u32; slots];
        let mut stack = vec![root.0];
        while let Some(slot) = stack.pop() {
            let i = slot as usize;
            if i >= slots {
                return Err(format!("child id {slot} out of bounds ({slots} slots)"));
            }
            seen[i] += 1;
            if seen[i] > 1 {
                return Err(format!("slot {slot} reachable more than once"));
            }
            if self.left[i] != NONE {
                if self.right[i] == NONE {
                    return Err(format!("slot {slot} has a left child but no right child"));
                }
                stack.push(self.left[i]);
                stack.push(self.right[i]);
            } else if self.right[i] != NONE {
                return Err(format!("slot {slot} has a right child but no left child"));
            }
        }
        for &slot in &self.free {
            let i = slot as usize;
            if i >= slots {
                return Err(format!("free slot {slot} out of bounds"));
            }
            if seen[i] > 0 {
                return Err(format!("free slot {slot} is reachable from the root"));
            }
            if self.left[i] != NONE || self.right[i] != NONE {
                return Err(format!("free slot {slot} still has children"));
            }
            seen[i] += 1;
            if seen[i] > 1 {
                return Err(format!("slot {slot} free-listed more than once"));
            }
        }
        if let Some(orphan) = seen.iter().position(|&s| s == 0) {
            return Err(format!(
                "slot {orphan} is neither reachable nor on the free list"
            ));
        }
        Ok(())
    }

    /// Single-pass batched descent: predict the most probable class of every
    /// row of `xs` into `out` (`out.len() == xs.len()`).
    ///
    /// The whole batch is routed level-by-level with the same stable in-place
    /// index partition the learn path uses (left-routed indices keep their
    /// relative order as the prefix, right-routed as the suffix), so each
    /// leaf receives its routed sub-batch as one contiguous index range. The
    /// group's rows are gathered once and handed to a single
    /// [`dmt_models::SimpleModel::predict_proba_batch_into`] call — one model
    /// dispatch per *reached leaf* instead of one descent plus dispatch per
    /// instance. Per-row results are bit-identical to per-instance descent
    /// (the batched GLM kernels are pinned to the scalar path).
    ///
    /// `scratch` buffers are resized on demand and reused across calls; in
    /// steady state the routing pass performs no heap allocation.
    pub fn predict_batch_into(
        &self,
        root: NodeId,
        xs: Rows<'_>,
        out: &mut [usize],
        scratch: &mut PredictScratch,
    ) {
        assert_eq!(xs.len(), out.len(), "xs and out must have the same length");
        let n = xs.len();
        if n == 0 {
            return;
        }
        let m = xs[0].len();
        let PredictScratch {
            indices,
            pen,
            stack,
            xbuf,
            probs,
        } = scratch;
        indices.clear();
        indices.extend(0..n);
        stack.clear();
        stack.push((root.0, 0u32, n as u32));
        while let Some((slot, lo, hi)) = stack.pop() {
            let (lo, hi) = (lo as usize, hi as usize);
            if lo == hi {
                continue;
            }
            let i = slot as usize;
            if self.left[i] == NONE {
                // Leaf group: gather the routed rows into one contiguous
                // matrix and run a single batched prediction kernel.
                let group = &indices[lo..hi];
                let g = hi - lo;
                let model = &self.stats[i].model;
                let c = model.num_classes();
                xbuf.clear();
                for &row in group {
                    xbuf.extend_from_slice(xs[row]);
                }
                probs.resize(g * c, 0.0);
                model.predict_proba_batch_into(MatRef::new(xbuf, g, m), probs);
                for (pos, &row) in group.iter().enumerate() {
                    out[row] = argmax(&probs[pos * c..(pos + 1) * c]);
                }
            } else {
                // Inner node: stable in-place partition of the group's index
                // range, exactly like the learn path's routing.
                let key = self.split_key(NodeId(slot));
                pen.clear();
                let mut write = lo;
                for pos in lo..hi {
                    let row = indices[pos];
                    if key.test_value(xs[row][key.feature]) {
                        indices[write] = row;
                        write += 1;
                    } else {
                        pen.push(row);
                    }
                }
                indices[write..hi].copy_from_slice(pen);
                stack.push((self.right[i], write as u32, hi as u32));
                stack.push((self.left[i], lo as u32, write as u32));
            }
        }
    }
}

impl MemoryUsage for NodeArena {
    /// Heap bytes of all seven SoA columns plus every slot's payload
    /// (leaf model parameters, loss window, candidate pools). Free slots
    /// still count whatever their placeholder stats retain — the point of
    /// the accounting is resident bytes, not live bytes, which is exactly
    /// what [`NodeArena::compact`] reclaims.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.split_feature)
            + vec_bytes(&self.split_value)
            + vec_bytes(&self.split_nominal)
            + vec_bytes(&self.left)
            + vec_bytes(&self.right)
            + vec_bytes(&self.free)
            + vec_bytes(&self.stats)
            + slice_deep_bytes(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_models::Glm;

    fn leaf_stats() -> NodeStats {
        NodeStats::new(Glm::new_random(2, 2, 7))
    }

    fn numeric_key(feature: usize, value: f64) -> CandidateKey {
        CandidateKey {
            feature,
            value,
            is_nominal: false,
        }
    }

    #[test]
    fn fresh_arena_is_a_single_root_leaf() {
        let (arena, root) = NodeArena::with_root(leaf_stats());
        assert!(arena.is_leaf(root));
        assert_eq!(arena.count_nodes(root), (0, 1));
        assert_eq!(arena.depth(root), 0);
        assert_eq!(arena.num_slots(), 1);
        assert_eq!(arena.num_free(), 0);
        arena.validate(root).unwrap();
    }

    #[test]
    fn split_and_collapse_recycle_slots() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, _r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        arena.install_split(l, numeric_key(1, 0.25), leaf_stats(), leaf_stats());
        assert_eq!(arena.count_nodes(root), (2, 3));
        assert_eq!(arena.depth(root), 2);
        assert_eq!(arena.num_slots(), 5);
        arena.validate(root).unwrap();

        arena.collapse_to_leaf(root);
        assert!(arena.is_leaf(root));
        assert_eq!(arena.num_free(), 4);
        assert_eq!(arena.num_slots(), 5);
        arena.validate(root).unwrap();

        // A re-split reuses free-listed slots instead of growing the arena.
        arena.install_split(root, numeric_key(0, 0.75), leaf_stats(), leaf_stats());
        assert_eq!(arena.num_slots(), 5);
        assert_eq!(arena.num_free(), 2);
        arena.validate(root).unwrap();
    }

    #[test]
    fn leaf_for_follows_split_keys() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        assert_eq!(arena.leaf_for(root, &[0.4, 0.0]), l);
        assert_eq!(arena.leaf_for(root, &[0.5, 0.0]), l); // <= goes left
        assert_eq!(arena.leaf_for(root, &[0.6, 0.0]), r);
        let nominal = CandidateKey {
            feature: 1,
            value: 2.0,
            is_nominal: true,
        };
        let (rl, rr) = arena.install_split(r, nominal, leaf_stats(), leaf_stats());
        assert_eq!(arena.leaf_for(root, &[0.9, 2.0]), rl);
        assert_eq!(arena.leaf_for(root, &[0.9, 1.0]), rr);
    }

    #[test]
    fn batched_descent_matches_per_instance_descent() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, _r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        arena.install_split(l, numeric_key(1, 0.3), leaf_stats(), leaf_stats());
        let xs: Vec<Vec<f64>> = (0..57)
            .map(|i| vec![(i % 10) as f64 / 10.0, ((i * 7) % 13) as f64 / 13.0])
            .collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0usize; rows.len()];
        let mut scratch = PredictScratch::new();
        arena.predict_batch_into(root, &rows, &mut out, &mut scratch);
        for (x, &predicted) in rows.iter().zip(out.iter()) {
            let leaf = arena.leaf_for(root, x);
            let expected = argmax(&arena.stats(leaf).model.predict_proba(x));
            assert_eq!(predicted, expected);
        }
    }

    #[test]
    fn validate_catches_a_shared_child() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, _r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        // Corrupt: point the right child at the left child.
        arena.right[root.index()] = l.0;
        assert!(arena.validate(root).is_err());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (arena, root) = NodeArena::with_root(leaf_stats());
        let mut scratch = PredictScratch::new();
        arena.predict_batch_into(root, &[], &mut [], &mut scratch);
    }

    #[test]
    fn free_list_is_canonical_after_collapse() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        arena.install_split(l, numeric_key(1, 0.25), leaf_stats(), leaf_stats());
        arena.install_split(r, numeric_key(1, 0.75), leaf_stats(), leaf_stats());
        arena.collapse_to_leaf(root);
        assert_eq!(arena.num_free(), 6);
        let free = arena.snapshot_columns().5;
        assert!(
            free.windows(2).all(|w| w[0] > w[1]),
            "free list must be strictly descending, got {free:?}"
        );
        // Allocation drains the free list lowest-slot-first.
        let a = arena.alloc_leaf(leaf_stats());
        let b = arena.alloc_leaf(leaf_stats());
        assert!(a.0 < b.0);
        assert_eq!(a.0, 1);
    }

    #[test]
    fn compact_preserves_structure_and_predictions() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        arena.install_split(l, numeric_key(1, 0.25), leaf_stats(), leaf_stats());
        let (rl, _rr) = arena.install_split(r, numeric_key(1, 0.75), leaf_stats(), leaf_stats());
        arena.install_split(rl, numeric_key(0, 0.9), leaf_stats(), leaf_stats());
        // Punch holes: collapse the left inner node back to a leaf.
        arena.collapse_to_leaf(l);
        assert!(arena.num_free() > 0);
        let live = arena.live_count(root);

        let xs: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i % 11) as f64 / 10.0, ((i * 5) % 13) as f64 / 12.0])
            .collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut before = vec![0usize; rows.len()];
        let mut scratch = PredictScratch::new();
        arena.predict_batch_into(root, &rows, &mut before, &mut scratch);
        let probs_before: Vec<u64> = rows
            .iter()
            .map(|x| arena.leaf_for(root, x))
            .flat_map(|leaf| arena.stats(leaf).model.predict_proba(&xs[0]))
            .map(|p| p.to_bits())
            .collect();

        let new_root = arena.compact(root);
        assert_eq!(new_root, NodeId(0));
        arena.validate(new_root).unwrap();
        assert_eq!(arena.num_free(), 0);
        assert_eq!(arena.num_slots(), live);
        assert_eq!(arena.live_count(new_root), live);
        // Columns are allocated at exactly the live size.
        assert_eq!(arena.stats.capacity(), live);
        assert_eq!(arena.left.capacity(), live);

        let mut after = vec![0usize; rows.len()];
        arena.predict_batch_into(new_root, &rows, &mut after, &mut scratch);
        assert_eq!(before, after, "compaction must not change predictions");
        let probs_after: Vec<u64> = rows
            .iter()
            .map(|x| arena.leaf_for(new_root, x))
            .flat_map(|leaf| arena.stats(leaf).model.predict_proba(&xs[0]))
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(
            probs_before, probs_after,
            "leaf models moved bit-identically"
        );
    }

    #[test]
    fn compact_renumbers_into_preorder() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        arena.install_split(r, numeric_key(1, 0.75), leaf_stats(), leaf_stats());
        arena.collapse_to_leaf(l);
        let new_root = arena.compact(root);
        let mut order = Vec::new();
        arena.preorder_ids(new_root, &mut order);
        let slots: Vec<u32> = order.iter().map(|id| id.0).collect();
        assert_eq!(
            slots,
            (0..arena.num_slots() as u32).collect::<Vec<_>>(),
            "compacted ids are dense preorder"
        );
        // Compacting an already-dense arena is a fixed point.
        let again = arena.compact(new_root);
        assert_eq!(again, new_root);
        assert_eq!(arena.num_slots(), slots.len());
    }

    #[test]
    fn compact_single_leaf_is_identity() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        arena.stats_mut(root).loss_sum = 2.5;
        let new_root = arena.compact(root);
        assert_eq!(new_root, NodeId(0));
        assert_eq!(arena.num_slots(), 1);
        assert_eq!(arena.stats(new_root).loss_sum, 2.5);
    }

    #[test]
    fn arena_memory_bytes_shrink_after_compaction() {
        let (mut arena, root) = NodeArena::with_root(leaf_stats());
        let (l, _r) = arena.install_split(root, numeric_key(0, 0.5), leaf_stats(), leaf_stats());
        arena.install_split(l, numeric_key(1, 0.25), leaf_stats(), leaf_stats());
        arena.collapse_to_leaf(root);
        let before = arena.memory_bytes();
        assert!(before > 0);
        let new_root = arena.compact(root);
        let after = arena.memory_bytes();
        assert!(
            after < before,
            "compaction must release bytes ({after} >= {before})"
        );
        arena.validate(new_root).unwrap();
    }
}
