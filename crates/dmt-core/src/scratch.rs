//! Reusable scratch buffers for the Dynamic Model Tree update and predict
//! loops.
//!
//! The per-instance cost of a streaming learner must stay constant and small
//! (the paper reports test/train runtime as a headline result, Table V).
//! Allocating per instance — or per node per batch — makes the allocator the
//! dominant cost of the hot loop, so all intermediate storage the update path
//! needs lives in one [`UpdateScratch`] owned by the tree and reused across
//! batches, and the batched prediction routing pass keeps its buffers in a
//! [`PredictScratch`]. In steady state (buffers grown to their high-water
//! mark) the learn/predict path performs **no** per-instance heap
//! allocations.

use dmt_models::memory::vec_bytes;
use dmt_models::MemoryUsage;

use crate::candidate::SplitCandidate;

/// Scratch buffers threaded through `DynamicModelTree::learn_batch` →
/// `node::learn_at` → `NodeStats::update_with_batch` → the GLM `*_into`
/// methods.
///
/// All buffers are resized on demand and retain their capacity, so after the
/// first few batches the hot path stops touching the allocator entirely.
#[derive(Debug, Default)]
pub struct UpdateScratch {
    /// Per-instance losses of the node currently being updated, indexed by
    /// position within the node's index slice.
    pub(crate) losses: Vec<f64>,
    /// Flattened per-instance gradients of the node currently being updated
    /// (row-major, stride = number of model parameters).
    pub(crate) grads: Vec<f64>,
    /// Gradient accumulator handed to the per-instance SGD steps.
    pub(crate) grad_buf: Vec<f64>,
    /// Per-class scratch handed to the GLM `*_into` methods (softmax
    /// probabilities / logits).
    pub(crate) class_buf: Vec<f64>,
    /// Instance indices of the current batch; inner nodes partition this
    /// in place to route instances to their children.
    pub(crate) indices: Vec<usize>,
    /// Holding pen for right-routed indices during the stable partition.
    pub(crate) partition_buf: Vec<usize>,
    /// Sort buffer for per-feature values during candidate proposal.
    pub(crate) values_buf: Vec<f64>,
    /// The node's routed sub-batch gathered into one contiguous row-major
    /// matrix (`instances × features`); every batched kernel of the update
    /// loop runs over this buffer instead of chasing scattered row pointers.
    pub(crate) xbuf: Vec<f64>,
    /// Labels of the gathered sub-batch, aligned with `xbuf` rows.
    pub(crate) ybuf: Vec<usize>,
    /// The batch's presorted numeric columns and dictionary-coded nominal
    /// columns, prepared once per batch and inherited down the tree.
    pub(crate) columns: BatchColumns,
    /// `(prefix length, candidate)` boundaries of the numeric sweep, sorted
    /// by prefix length.
    pub(crate) boundaries: Vec<(u32, u32)>,
    /// Running gradient accumulator of the numeric sweep (`num_params`).
    pub(crate) acc_buf: Vec<f64>,
    /// Freshly proposed candidates of the current node update; admitted
    /// ones are copied into the node's pool.
    pub(crate) proposals: Vec<SplitCandidate>,
    /// Left-child gradient sums of the proposals, row-major with
    /// `num_params` columns: row `i` belongs to `proposals[i]`.
    pub(crate) proposal_grads: Vec<f64>,
    /// Proposal indices ranked by descending gain for pool management.
    pub(crate) ranking: Vec<u32>,
    /// Per-category accumulators of the nominal feature currently being
    /// accumulated.
    pub(crate) buckets: Buckets,
}

impl MemoryUsage for UpdateScratch {
    /// Heap bytes retained by every reusable buffer.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.losses)
            + vec_bytes(&self.grads)
            + vec_bytes(&self.grad_buf)
            + vec_bytes(&self.class_buf)
            + vec_bytes(&self.indices)
            + vec_bytes(&self.partition_buf)
            + vec_bytes(&self.values_buf)
            + vec_bytes(&self.xbuf)
            + vec_bytes(&self.ybuf)
            + self.columns.memory_bytes()
            + vec_bytes(&self.boundaries)
            + vec_bytes(&self.acc_buf)
            + vec_bytes(&self.proposals)
            + vec_bytes(&self.proposal_grads)
            + vec_bytes(&self.ranking)
            + self.buckets.memory_bytes()
    }
}

impl UpdateScratch {
    /// Create an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepare the per-node buffers for `instances` rows of `num_params`
    /// gradient entries and `num_classes` classes.
    ///
    /// The buffers are only re-sized, not re-zeroed: the batched model pass
    /// fully overwrites `losses` and `grads`, and the SGD/`class_buf` scratch
    /// is cleared by its consumers, so zero-filling here would add one
    /// `instances × num_params` memory sweep per node per batch for nothing.
    pub(crate) fn prepare_node(&mut self, instances: usize, num_params: usize, num_classes: usize) {
        self.losses.resize(instances, 0.0);
        self.grads.resize(instances * num_params, 0.0);
        self.grad_buf.resize(num_params, 0.0);
        self.class_buf.resize(num_classes, 0.0);
    }

    /// Gather the sub-batch selected by `idx` into the contiguous `xbuf`
    /// (row-major) and `ybuf` buffers. Capacity is retained across batches,
    /// so in steady state this is a straight copy with no allocation.
    pub(crate) fn gather(&mut self, xs: &[&[f64]], ys: &[usize], idx: &[usize]) {
        self.xbuf.clear();
        self.ybuf.clear();
        for &i in idx {
            self.xbuf.extend_from_slice(xs[i]);
            self.ybuf.push(ys[i]);
        }
    }
}

/// Order-preserving `u64` key of an `f64` feature value: the sort over
/// these keys is a branchless integer sort with the same value order as
/// `partial_cmp` on finite floats. `-0.0` is normalised onto `+0.0`
/// (they compare equal as floats), and every NaN — regardless of sign
/// bit — maps to `u64::MAX`, past `+inf`. Split thresholds are always
/// finite (proposals drop non-finite values), so the boundary search
/// `t(v) <= t(threshold)` selects exactly the rows with `v <= threshold`
/// — the arithmetic of [`crate::CandidateKey::test_value`], which NaN rows
/// never pass.
#[inline]
pub(crate) fn numeric_sort_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 0x8000_0000_0000_0000
    }
}

/// Where a feature's column of the current batch lives in [`BatchColumns`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Column {
    /// Index of the feature's presorted column.
    Numeric(usize),
    /// Index of the feature's dictionary-id column.
    Nominal(usize),
}

/// Tag bit of a [`BatchColumns::route`] entry whose row goes right.
pub(crate) const ROUTE_RIGHT: u32 = 1 << 31;

/// The feature columns of one learn batch, built once at the root and
/// inherited down the tree.
///
/// Every column holds one entry per batch row. A node whose index slice
/// starts at offset `lo` of the root's index vector owns the segment
/// `lo..lo + b` of every column, where `b` is its row count, and refers to
/// its rows by *position* (`0..b`, the order of its index slice and of its
/// gathered matrix):
///
/// * a **numeric** column holds `(numeric_sort_key(value), position)` pairs
///   sorted ascending, so a node's segment is its rows sorted by value;
/// * a **nominal** column holds, per position, the row's id in the batch
///   dictionary, which maps every distinct category code (matched by exact
///   bit pattern) to one id.
///
/// When an inner node stably partitions its index slice, [`Self::partition`]
/// partitions every segment the same way, so both children receive sorted
/// segments without sorting. The root's positions are its batch rows and
/// every partition is stable, so a node's positions ascend with its batch
/// rows: sorting by `(key, position)` is sorting by `(key, batch row)`.
#[derive(Debug, Default)]
pub(crate) struct BatchColumns {
    /// The column of every feature, indexed by feature.
    pub(crate) kinds: Vec<Column>,
    /// Rows of the batch (the stride of `sorted` and `ids`).
    rows: usize,
    /// Numeric columns, column-major: column `c` is `c·rows..(c + 1)·rows`.
    sorted: Vec<(u64, u32)>,
    /// Nominal columns of dictionary ids, column-major like `sorted`.
    ids: Vec<u32>,
    /// The batch dictionary: category code of every id.
    pub(crate) codes: Vec<f64>,
    /// Routing of the node being partitioned, per position: the row's
    /// position in its child, tagged with [`ROUTE_RIGHT`] for the right
    /// child.
    pub(crate) route: Vec<u32>,
    /// Holding pen for right-routed entries (and the dictionary sort).
    sorted_pen: Vec<(u64, u32)>,
    /// Holding pen for right-routed ids.
    ids_pen: Vec<u32>,
}

impl MemoryUsage for BatchColumns {
    /// Heap bytes of the columns, the dictionary and the partition buffers.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.kinds)
            + vec_bytes(&self.sorted)
            + vec_bytes(&self.ids)
            + vec_bytes(&self.codes)
            + vec_bytes(&self.route)
            + vec_bytes(&self.sorted_pen)
            + vec_bytes(&self.ids_pen)
    }
}

impl BatchColumns {
    /// Build the columns of the batch selected by `idx` (position `p` is row
    /// `xs[idx[p]]`): sort every numeric column once by
    /// `(numeric_sort_key, position)` and code every nominal column against
    /// the batch dictionary. Buffers keep their capacity across batches.
    pub(crate) fn presort(&mut self, xs: &[&[f64]], idx: &[usize], nominal_features: &[bool]) {
        let n = idx.len();
        // Positions are stored as `u32` below the `ROUTE_RIGHT` tag bit.
        assert!(
            n < ROUTE_RIGHT as usize,
            "a learn batch holds under 2^31 rows"
        );
        self.rows = n;
        self.kinds.clear();
        self.codes.clear();
        let Some(&first) = idx.first() else {
            self.sorted.clear();
            self.ids.clear();
            return;
        };
        let (mut numeric, mut nominal) = (0, 0);
        for feature in 0..xs[first].len() {
            if nominal_features.get(feature).copied().unwrap_or(false) {
                self.kinds.push(Column::Nominal(nominal));
                nominal += 1;
            } else {
                self.kinds.push(Column::Numeric(numeric));
                numeric += 1;
            }
        }
        self.sorted.resize(numeric * n, (0, 0));
        self.ids.resize(nominal * n, 0);
        for (feature, &kind) in self.kinds.iter().enumerate() {
            match kind {
                Column::Numeric(c) => {
                    // Positions are unique, so the unstable integer sort
                    // has exactly one result.
                    let column = &mut self.sorted[c * n..(c + 1) * n];
                    for (p, (entry, &i)) in column.iter_mut().zip(idx).enumerate() {
                        *entry = (numeric_sort_key(xs[i][feature]), p as u32);
                    }
                    column.sort_unstable();
                }
                Column::Nominal(c) => {
                    // Sort `(bits, position)` and give each run of equal
                    // bits one dictionary id.
                    let pairs = &mut self.sorted_pen;
                    pairs.clear();
                    pairs.extend(
                        idx.iter()
                            .enumerate()
                            .map(|(p, &i)| (xs[i][feature].to_bits(), p as u32)),
                    );
                    pairs.sort_unstable();
                    let column = &mut self.ids[c * n..(c + 1) * n];
                    let mut previous = None;
                    for &(bits, p) in pairs.iter() {
                        if previous != Some(bits) {
                            self.codes.push(f64::from_bits(bits));
                            previous = Some(bits);
                        }
                        column[p as usize] = (self.codes.len() - 1) as u32;
                    }
                }
            }
        }
    }

    /// The segment of numeric column `c` owned by the node at offset `lo`
    /// with `b` rows: its `(key, position)` pairs in ascending order.
    pub(crate) fn numeric_segment(&self, c: usize, lo: usize, b: usize) -> &[(u64, u32)] {
        &self.sorted[c * self.rows + lo..][..b]
    }

    /// The segment of nominal column `c` owned by the node at offset `lo`
    /// with `b` rows: the dictionary id of every position.
    pub(crate) fn nominal_segment(&self, c: usize, lo: usize, b: usize) -> &[u32] {
        &self.ids[c * self.rows + lo..][..b]
    }

    /// Stably partition every segment of the node at offset `lo` with `b`
    /// rows by the routing in `route[..b]`: left-routed entries form the
    /// prefix, right-routed the suffix, each keeping its relative order, and
    /// numeric entries are renumbered to their child positions. This is the
    /// partition the node applied to its index slice, so each child's
    /// segments stay aligned with its slice (and numeric ones sorted).
    pub(crate) fn partition(&mut self, lo: usize, b: usize) {
        let Self {
            rows,
            sorted,
            ids,
            route,
            sorted_pen,
            ids_pen,
            ..
        } = self;
        if b == 0 {
            return;
        }
        for column in sorted.chunks_exact_mut(*rows) {
            stable_partition(&mut column[lo..lo + b], sorted_pen, |_, (key, p)| {
                let to = route[p as usize];
                ((key, to & !ROUTE_RIGHT), to & ROUTE_RIGHT != 0)
            });
        }
        for column in ids.chunks_exact_mut(*rows) {
            stable_partition(&mut column[lo..lo + b], ids_pen, |p, id| {
                (id, route[p] & ROUTE_RIGHT != 0)
            });
        }
    }

    /// Debug check of the invariant the inherited segments rest on, for the
    /// node at offset `lo` whose rows are `idx`: `idx` is strictly
    /// ascending, every numeric segment holds exactly the node's positions
    /// sorted by `(key, batch row)` with the key of the row's value, and
    /// every nominal segment holds the dictionary id of each row's code.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_segments(&self, xs: &[&[f64]], idx: &[usize], lo: usize) {
        assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "node rows are not strictly ascending"
        );
        let b = idx.len();
        for (feature, &kind) in self.kinds.iter().enumerate() {
            match kind {
                Column::Numeric(c) => {
                    let mut previous = None;
                    for &(key, p) in self.numeric_segment(c, lo, b) {
                        assert!(
                            (p as usize) < b,
                            "feature {feature}: position {p} outside a {b}-row node"
                        );
                        let row = idx[p as usize];
                        assert_eq!(
                            key,
                            numeric_sort_key(xs[row][feature]),
                            "feature {feature}: stale key for row {row}"
                        );
                        assert!(
                            previous < Some((key, row)),
                            "feature {feature}: segment not sorted by (key, row) at row {row}"
                        );
                        previous = Some((key, row));
                    }
                }
                Column::Nominal(c) => {
                    for (&id, &row) in self.nominal_segment(c, lo, b).iter().zip(idx) {
                        assert_eq!(
                            self.codes[id as usize].to_bits(),
                            xs[row][feature].to_bits(),
                            "feature {feature}: wrong dictionary id for row {row}"
                        );
                    }
                }
            }
        }
    }
}

/// Stable in-place partition of `segment`: `place(i, entry)` returns the
/// entry to keep for position `i` and whether it goes right. Left entries
/// compact into the prefix, right ones collect in `pen` (grown to the
/// segment length on demand) and then fill the suffix. Every step writes
/// both outputs and advances one cursor, so the routing costs no branch:
/// child routing is data-dependent and mispredicts a branch about half the
/// time. The prefix write never overtakes the read position.
fn stable_partition<T: Copy + Default>(
    segment: &mut [T],
    pen: &mut Vec<T>,
    mut place: impl FnMut(usize, T) -> (T, bool),
) {
    let b = segment.len();
    if pen.len() < b {
        pen.resize(b, T::default());
    }
    let (mut left, mut right) = (0, 0);
    for i in 0..b {
        let (entry, goes_right) = place(i, segment[i]);
        segment[left] = entry;
        pen[right] = entry;
        left += usize::from(!goes_right);
        right += usize::from(goes_right);
    }
    segment[left..].copy_from_slice(&pen[..right]);
}

/// Sentinel of an unused [`Buckets::slot_of_id`] entry.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Per-category accumulators of one nominal feature of one node: one bucket
/// per distinct dictionary id among the node's rows, in first-seen order.
#[derive(Debug, Default)]
pub(crate) struct Buckets {
    /// Dictionary id of every bucket.
    pub(crate) ids: Vec<u32>,
    /// Per-bucket loss sums.
    pub(crate) losses: Vec<f64>,
    /// Per-bucket observation counts.
    pub(crate) counts: Vec<u64>,
    /// Per-bucket gradient sums, row-major (`buckets × num_params`).
    pub(crate) grads: Vec<f64>,
    /// Bucket of every dictionary id, [`NO_SLOT`] for ids without one. Every
    /// entry is back at [`NO_SLOT`] after each bucket pass.
    pub(crate) slot_of_id: Vec<u32>,
}

impl MemoryUsage for Buckets {
    /// Heap bytes of the accumulators and the slot table.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.ids)
            + vec_bytes(&self.losses)
            + vec_bytes(&self.counts)
            + vec_bytes(&self.grads)
            + vec_bytes(&self.slot_of_id)
    }
}

/// Scratch buffers of the single-pass batched prediction routing
/// ([`crate::arena::NodeArena::predict_batch_into`]).
///
/// Pooled by the tree (behind a `Mutex`, since prediction is `&self`) and
/// reused across batches. `DynamicModelTree::learn_batch` pre-grows the
/// buffers to the observed batch dimensions, so a test-then-train loop's
/// predictions are allocation-free from the first call.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// Instance indices of the batch, partitioned in place level-by-level.
    pub(crate) indices: Vec<usize>,
    /// Holding pen for right-routed indices during the stable partition.
    pub(crate) pen: Vec<usize>,
    /// DFS work stack of `(node slot, range start, range end)` triples.
    pub(crate) stack: Vec<(u32, u32, u32)>,
    /// Contiguous row-major gather buffer for one leaf group.
    pub(crate) xbuf: Vec<f64>,
    /// Class probabilities of one leaf group (`group × num_classes`).
    pub(crate) probs: Vec<f64>,
}

impl MemoryUsage for PredictScratch {
    /// Heap bytes of the routing/gather buffers.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.indices)
            + vec_bytes(&self.pen)
            + vec_bytes(&self.stack)
            + vec_bytes(&self.xbuf)
            + vec_bytes(&self.probs)
    }
}

impl PredictScratch {
    /// Create an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve every buffer for a batch of `rows × features` instances over
    /// `classes` classes routed through a tree of at most `max_nodes` nodes,
    /// so a following [`crate::arena::NodeArena::predict_batch_into`] call
    /// performs no allocation.
    pub(crate) fn prepare(
        &mut self,
        rows: usize,
        features: usize,
        classes: usize,
        max_nodes: usize,
    ) {
        fn reserve_to<T>(v: &mut Vec<T>, cap: usize) {
            if v.capacity() < cap {
                v.reserve(cap - v.len());
            }
        }
        reserve_to(&mut self.indices, rows);
        reserve_to(&mut self.pen, rows);
        // The DFS stack holds at most one pending range per tree level plus
        // the current path; the node count is a safe upper bound.
        reserve_to(&mut self.stack, max_nodes + 1);
        reserve_to(&mut self.xbuf, rows * features);
        reserve_to(&mut self.probs, rows * classes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_node_sizes_buffers() {
        let mut scratch = UpdateScratch::new();
        scratch.prepare_node(10, 3, 2);
        assert_eq!(scratch.losses.len(), 10);
        assert_eq!(scratch.grads.len(), 30);
        assert_eq!(scratch.grad_buf.len(), 3);
        assert_eq!(scratch.class_buf.len(), 2);
    }

    #[test]
    fn gather_builds_contiguous_rows_in_index_order() {
        let mut scratch = UpdateScratch::new();
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let c = [5.0, 6.0];
        let xs: Vec<&[f64]> = vec![&a, &b, &c];
        let ys = vec![0usize, 1, 0];
        scratch.gather(&xs, &ys, &[2, 0]);
        assert_eq!(scratch.xbuf, vec![5.0, 6.0, 1.0, 2.0]);
        assert_eq!(scratch.ybuf, vec![0, 0]);
        // Re-gathering reuses the buffers.
        let capacity = scratch.xbuf.capacity();
        scratch.gather(&xs, &ys, &[1]);
        assert_eq!(scratch.xbuf, vec![3.0, 4.0]);
        assert_eq!(scratch.ybuf, vec![1]);
        assert_eq!(scratch.xbuf.capacity(), capacity);
    }

    #[test]
    fn prepare_node_reuses_capacity() {
        let mut scratch = UpdateScratch::new();
        scratch.prepare_node(100, 5, 3);
        let capacity = scratch.grads.capacity();
        scratch.prepare_node(10, 5, 3);
        scratch.prepare_node(100, 5, 3);
        assert_eq!(scratch.grads.capacity(), capacity);
    }

    #[test]
    fn predict_scratch_prepare_reserves_capacity() {
        let mut scratch = PredictScratch::new();
        scratch.prepare(100, 3, 2, 9);
        assert!(scratch.indices.capacity() >= 100);
        assert!(scratch.xbuf.capacity() >= 300);
        assert!(scratch.probs.capacity() >= 200);
        assert!(scratch.stack.capacity() >= 10);
        // Preparing for a smaller batch never shrinks.
        let xcap = scratch.xbuf.capacity();
        scratch.prepare(10, 3, 2, 1);
        assert_eq!(scratch.xbuf.capacity(), xcap);
    }
}
