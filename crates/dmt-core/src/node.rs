//! Node statistics, loss-based gains and the arena-based learning procedure
//! of the Dynamic Model Tree.
//!
//! The tree structure itself lives in [`crate::arena::NodeArena`]; this
//! module owns the per-node payload ([`NodeStats`]) and the crate-internal
//! recursive batch learning procedure (`learn_at`) that walks the arena by
//! [`NodeId`], routing each node's sub-batch with the same stable in-place
//! index partition the batched prediction pass uses and handing each child
//! its segments of the batch's presorted feature columns.

use dmt_models::linalg::{self, MatMut, MatRef};
use dmt_models::memory::vec_bytes;
use dmt_models::{Glm, MemoryUsage, SimpleModel as _};

use crate::arena::{NodeArena, NodeId};
use crate::candidate::{CandidateKey, SplitCandidate};
use crate::scratch::{
    numeric_sort_key, BatchColumns, Buckets, Column, UpdateScratch, NO_SLOT, ROUTE_RIGHT,
};
use crate::tree::DmtConfig;

/// The structural decision taken at a node after a batch (exposed for tests,
/// ablations and interpretability traces).
#[derive(Debug, Clone, PartialEq)]
pub enum GainDecision {
    /// No structural change.
    Keep,
    /// A leaf was split on the given candidate with the given gain.
    Split {
        /// The installed split.
        key: CandidateKey,
        /// The gain (eq. 3) that justified the split.
        gain: f64,
    },
    /// An inner node's subtree was replaced by a fresh split.
    Replace {
        /// The newly installed split.
        key: CandidateKey,
        /// The gain (eq. 4) that justified the replacement.
        gain: f64,
    },
    /// An inner node was collapsed back into a leaf.
    Prune {
        /// The gain (eq. 5) that justified the prune.
        gain: f64,
    },
}

/// Which value source feeds the inner-node routing test during learning.
///
/// Both variants select bit-identical row sets — the gathered matrix holds
/// exact copies of the instance rows — so the learned trees are pinned
/// bit-for-bit against each other by property tests. The per-instance form
/// exists purely as the reference the hot path is validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routing {
    /// Read the tested feature out of the contiguous matrix the node update
    /// just gathered (hot path: no pointer chase per instance).
    Gathered,
    /// Re-read the tested feature through the original row pointer, exactly
    /// as a one-instance-at-a-time descent would (reference path).
    PerInstance,
}

/// Per-node accumulated statistics: the simple model, the loss/gradient sums
/// over the node's current time window and the stored split candidates.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node's simple model (logit / softmax GLM), §V-A.
    pub model: Glm,
    /// Accumulated negative log-likelihood `L(Θ_St, Y_St, X_St)`.
    pub loss_sum: f64,
    /// Accumulated gradient `∇ L(Θ_St, Y_St, X_St)`.
    pub grad_sum: Vec<f64>,
    /// Number of observations in the current window `|S_t|`.
    pub count: u64,
    /// Stored split candidates (at most `3·m` by default).
    pub candidates: Vec<SplitCandidate>,
    /// Left-child gradient sums of the stored candidates, row-major with
    /// [`NodeStats::k`] columns: row `i` belongs to `candidates[i]`.
    pub candidate_grads: Vec<f64>,
}

impl MemoryUsage for NodeStats {
    /// Heap bytes of the leaf model parameters, the gradient accumulator and
    /// the candidate pool (records and gradient matrix, capacity-based).
    fn memory_bytes(&self) -> usize {
        self.model.memory_bytes()
            + vec_bytes(&self.grad_sum)
            + vec_bytes(&self.candidates)
            + vec_bytes(&self.candidate_grads)
    }
}

impl NodeStats {
    /// Create statistics around an existing simple model.
    pub fn new(model: Glm) -> Self {
        let params = model.num_params();
        Self {
            model,
            loss_sum: 0.0,
            grad_sum: vec![0.0; params],
            count: 0,
            candidates: Vec::new(),
            candidate_grads: Vec::new(),
        }
    }

    /// A zero-parameter placeholder payload that performs no heap allocation
    /// (empty model, empty gradient buffer). Snapshot decoding and arena
    /// compaction fill dead or vacated slots with placeholders; a
    /// placeholder is never read before being overwritten.
    pub(crate) fn placeholder() -> Self {
        Self::new(Glm::placeholder())
    }

    /// Reset the accumulation window (after a structural change) while
    /// keeping the trained model parameters.
    pub fn reset_window(&mut self) {
        self.loss_sum = 0.0;
        self.grad_sum.iter_mut().for_each(|g| *g = 0.0);
        self.count = 0;
        self.candidates.clear();
        self.candidate_grads.clear();
    }

    /// Number of free parameters `k` of the node's simple model.
    pub fn k(&self) -> usize {
        self.model.num_params()
    }

    /// Drop the stored candidate pool and return its backing allocations
    /// to the allocator. First rung of the budget ladder: the pool is
    /// re-proposed from future batches, so this costs adaptation latency
    /// on the affected node but no model quality.
    pub(crate) fn shed_candidates(&mut self) {
        self.candidates = Vec::new();
        self.candidate_grads = Vec::new();
    }

    /// Left-child gradient sum of stored candidate `i`.
    pub fn candidate_grad(&self, i: usize) -> &[f64] {
        grad_row(&self.candidate_grads, i, self.k())
    }

    /// Store `candidate` with left-child gradient sum `grad` as the last
    /// candidate of the pool.
    fn push_candidate(&mut self, candidate: SplitCandidate, grad: &[f64]) {
        self.candidates.push(candidate);
        self.candidate_grads.extend_from_slice(grad);
    }

    /// Overwrite stored candidate `i` and its gradient row.
    fn replace_candidate(&mut self, i: usize, candidate: SplitCandidate, grad: &[f64]) {
        self.candidates[i] = candidate;
        let k = grad.len();
        self.candidate_grads[i * k..(i + 1) * k].copy_from_slice(grad);
    }

    /// First-order candidate-loss approximation of eq. (7):
    /// `L(Θ_C) ≈ L(Θ_S on C) − (λ/|C|)·‖∇L(Θ_S on C)‖²`.
    pub fn child_loss_approx(loss_sum: f64, grad_sum: &[f64], count: u64, lr: f64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        loss_sum - lr / count as f64 * linalg::norm_sq(grad_sum)
    }

    /// Gain (3) of splitting observations with statistics `(node_loss_sum,
    /// node_grad_sum, node_count)` on `candidate` with left gradient sum
    /// `grad`, measured against an arbitrary `reference_loss`. Free function
    /// form so callers can iterate the candidate pool mutably while
    /// borrowing the node accumulators.
    ///
    /// The right-child gradient norm is computed directly from the difference
    /// of the accumulators ([`linalg::sub_norm_sq`]), so no intermediate
    /// vector is materialised — this runs once per stored candidate per batch
    /// and must stay allocation-free.
    fn gain_against(
        node_loss_sum: f64,
        node_grad_sum: &[f64],
        node_count: u64,
        candidate: &SplitCandidate,
        grad: &[f64],
        reference_loss: f64,
        lr: f64,
    ) -> Option<f64> {
        if candidate.count == 0 || candidate.count >= node_count {
            return None;
        }
        let left_approx = Self::child_loss_approx(candidate.loss_sum, grad, candidate.count, lr);
        let right_loss = node_loss_sum - candidate.loss_sum;
        let right_count = node_count - candidate.count;
        let right_norm_sq = linalg::sub_norm_sq(node_grad_sum, grad);
        let right_approx = right_loss - lr / right_count as f64 * right_norm_sq;
        Some(reference_loss - left_approx - right_approx)
    }

    /// Gain (3) of splitting this node's observations on `candidate` with
    /// left gradient sum `grad`, measured against an arbitrary
    /// `reference_loss` (the node's own loss for leaf splits, the subtree
    /// leaf-loss sum for inner-node replacements).
    ///
    /// Returns `None` when the candidate routes everything to one side, in
    /// which case no meaningful split exists.
    pub fn candidate_gain(
        &self,
        candidate: &SplitCandidate,
        grad: &[f64],
        reference_loss: f64,
        lr: f64,
    ) -> Option<f64> {
        Self::gain_against(
            self.loss_sum,
            &self.grad_sum,
            self.count,
            candidate,
            grad,
            reference_loss,
            lr,
        )
    }

    /// Index and gain of the best stored candidate relative to
    /// `reference_loss`.
    pub fn best_candidate(&self, reference_loss: f64, lr: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, candidate) in self.candidates.iter().enumerate() {
            let grad = self.candidate_grad(i);
            if let Some(gain) = self.candidate_gain(candidate, grad, reference_loss, lr) {
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
        }
        best
    }

    /// Incorporate a batch into this node: accumulate the node and candidate
    /// statistics, manage the candidate pool, and finally take one SGD step
    /// on the node model (Algorithm 1 lines 1–10 plus §V-D).
    ///
    /// Convenience wrapper over [`NodeStats::update_with_batch_indexed`] that
    /// allocates its own scratch space; the tree's hot path goes through the
    /// indexed form with a shared [`UpdateScratch`] instead.
    pub fn update_with_batch(
        &mut self,
        xs: &[&[f64]],
        ys: &[usize],
        nominal_features: &[bool],
        config: &DmtConfig,
    ) {
        let indices: Vec<usize> = (0..xs.len()).collect();
        let mut scratch = UpdateScratch::new();
        self.update_with_batch_indexed(xs, ys, &indices, nominal_features, config, &mut scratch);
    }

    /// [`NodeStats::update_with_batch`] over the sub-batch selected by `idx`
    /// (indices into `xs`/`ys`), with all intermediates written into the
    /// reusable `scratch` buffers — the steady-state path performs no heap
    /// allocation per instance.
    ///
    /// Presorts the sub-batch's own feature columns (numeric columns sorted,
    /// nominal codes resolved to batch-dictionary ids) and runs the same node
    /// update the tree runs on the column segments its nodes inherit.
    pub fn update_with_batch_indexed(
        &mut self,
        xs: &[&[f64]],
        ys: &[usize],
        idx: &[usize],
        nominal_features: &[bool],
        config: &DmtConfig,
        scratch: &mut UpdateScratch,
    ) {
        scratch.columns.presort(xs, idx, nominal_features);
        self.update_presorted(xs, ys, idx, 0, config, scratch);
    }

    /// The node update over the rows `idx`, whose column segments start at
    /// offset `lo` of the batch columns presorted in `scratch`.
    ///
    /// The routed sub-batch is gathered into the scratch space's contiguous
    /// row-major matrix once; a single batched model pass then produces every
    /// per-row loss and gradient (one enum dispatch per node instead of one
    /// per instance), the node and candidate accumulators are fed from that
    /// shared gradient buffer, and the final SGD sweep runs through
    /// [`dmt_models::SimpleModel::learn_batch_into`] in the configured
    /// [`dmt_models::BatchMode`].
    fn update_presorted(
        &mut self,
        xs: &[&[f64]],
        ys: &[usize],
        idx: &[usize],
        lo: usize,
        config: &DmtConfig,
        scratch: &mut UpdateScratch,
    ) {
        if idx.is_empty() {
            return;
        }
        let k = self.model.num_params();
        let m = xs[idx[0]].len();
        let b = idx.len();
        scratch.prepare_node(b, k, self.model.num_classes());
        scratch.gather(xs, ys, idx);
        // Split the scratch space into disjoint borrows: the gathered batch
        // is read through matrix views while the per-row outputs are written.
        let UpdateScratch {
            losses,
            grads,
            grad_buf,
            class_buf,
            values_buf,
            xbuf,
            ybuf,
            columns,
            boundaries,
            acc_buf,
            proposals,
            proposal_grads,
            ranking,
            buckets,
            ..
        } = scratch;
        let xmat = MatRef::new(xbuf, b, m);

        // Per-instance loss and gradient at the *current* parameters
        // (lines 1–3), one batched kernel pass: row `row` of the gradient
        // matrix belongs to instance `idx[row]`.
        self.model.loss_and_gradient_batch_into(
            xmat,
            ybuf,
            losses,
            MatMut::new(grads, b, k),
            class_buf,
        );
        let gradmat = MatRef::new(grads, b, k);
        for (row, &loss) in losses.iter().enumerate() {
            self.loss_sum += loss;
            linalg::add_assign(&mut self.grad_sum, gradmat.row(row));
        }
        self.count += b as u64;

        // Candidate proposal (§V-D) and accumulation (lines 6–10) in ONE
        // combined pass per feature, fed from the batched gradient buffer of
        // the model pass above: numeric features read the node's presorted
        // column segment, which serves both the quantile proposals and a
        // boundary sweep that hands every candidate its left-prefix sums;
        // nominal features build per-category bucket accumulators from the
        // node's dictionary-id segment that serve both the distinct-code
        // proposals and the candidate sums. Proposals go to the scratch
        // space's record list and gradient matrix, whose capacity is reused,
        // so the whole pass is allocation-free in steady state.
        proposals.clear();
        proposal_grads.clear();
        let mut targets = Targets {
            candidates: &mut self.candidates,
            candidate_grads: &mut self.candidate_grads,
            proposals,
            proposal_grads,
            k,
        };
        targets.propose_and_accumulate(
            xmat, columns, lo, losses, gradmat, values_buf, boundaries, acc_buf, buckets,
        );

        // Refresh the stored candidates' gain estimates. Borrowing the
        // accumulator fields directly lets the pool be iterated mutably
        // without collecting the gains into a temporary vector.
        let reference_loss = self.loss_sum;
        let lr = config.learning_rate;
        let (loss_sum, grad_sum, count) = (self.loss_sum, &self.grad_sum, self.count);
        for (i, candidate) in self.candidates.iter_mut().enumerate() {
            let grad = grad_row(&self.candidate_grads, i, k);
            candidate.last_gain = Self::gain_against(
                loss_sum,
                grad_sum,
                count,
                candidate,
                grad,
                reference_loss,
                lr,
            )
            .unwrap_or(f64::NEG_INFINITY);
        }

        // Candidate pool management (§V-D): let the freshly proposed
        // candidates displace at most `replacement_rate` of the pool.
        self.manage_candidate_pool(m, config, proposals, proposal_grads, ranking);

        // Finally, train the simple model with constant-learning-rate SGD
        // over the gathered batch (§V-A); `config.batch_mode` selects the
        // per-instance reference sweep or the windowed batched kernel.
        self.model.learn_batch_into(
            xmat,
            ybuf,
            config.learning_rate,
            config.batch_mode,
            grad_buf,
            class_buf,
        );
    }

    /// Candidate pool management (§V-D): rank the freshly initialised
    /// proposals (gradient row `i` of `proposal_grads` belongs to
    /// `proposals[i]`) by descending gain with a stable sort, and let them
    /// fill the free slots and then displace at most `replacement_rate` of
    /// the stored pool. A proposal displaces the first of the worst stored
    /// candidates, and only with a strictly higher gain. `ranking` is the
    /// reusable buffer of the ranked proposal indices.
    fn manage_candidate_pool(
        &mut self,
        num_features: usize,
        config: &DmtConfig,
        proposals: &mut [SplitCandidate],
        proposal_grads: &[f64],
        ranking: &mut Vec<u32>,
    ) {
        let max_candidates = config.max_candidates(num_features);
        let max_replacements = ((max_candidates as f64) * config.replacement_rate).ceil() as usize;

        if proposals.is_empty() {
            return;
        }
        let k = self.k();
        for (i, proposal) in proposals.iter_mut().enumerate() {
            let grad = grad_row(proposal_grads, i, k);
            proposal.last_gain = self
                .candidate_gain(proposal, grad, self.loss_sum, config.learning_rate)
                .unwrap_or(f64::NEG_INFINITY);
        }
        ranking.clear();
        ranking.extend(0..proposals.len() as u32);
        ranking.sort_by(|&a, &b| {
            proposals[b as usize]
                .last_gain
                .partial_cmp(&proposals[a as usize].last_gain)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // The first `admitted_free` ranked proposals take the free slots;
        // the pool grows by exactly those rows instead of doubling.
        let admitted_free = max_candidates
            .saturating_sub(self.candidates.len())
            .min(proposals.len());
        self.candidates.reserve_exact(admitted_free);
        self.candidate_grads.reserve_exact(admitted_free * k);
        let mut replacements_used = 0usize;
        for &i in ranking.iter() {
            let proposal = proposals[i as usize];
            let grad = grad_row(proposal_grads, i as usize, k);
            if self.candidates.len() < max_candidates {
                self.push_candidate(proposal, grad);
                continue;
            }
            if replacements_used >= max_replacements {
                break;
            }
            // Find the currently worst stored candidate.
            let Some((worst_idx, worst_gain)) = self
                .candidates
                .iter()
                .map(|c| c.last_gain)
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            else {
                break;
            };
            if proposal.last_gain > worst_gain {
                self.replace_candidate(worst_idx, proposal, grad);
                replacements_used += 1;
            }
        }
    }
}

/// Row `i` of the row-major gradient matrix `grads` with `k` columns.
fn grad_row(grads: &[f64], i: usize, k: usize) -> &[f64] {
    &grads[i * k..(i + 1) * k]
}

/// The candidates one node update accumulates into: the node's stored pool
/// (targets `0..stored`) followed by the batch's fresh proposals (targets
/// `stored..`), each a record plus a row of its `k`-column gradient matrix.
struct Targets<'a> {
    candidates: &'a mut [SplitCandidate],
    candidate_grads: &'a mut [f64],
    proposals: &'a mut Vec<SplitCandidate>,
    proposal_grads: &'a mut Vec<f64>,
    k: usize,
}

impl Targets<'_> {
    /// Key of target `t`.
    fn key(&self, t: usize) -> CandidateKey {
        match t.checked_sub(self.candidates.len()) {
            None => self.candidates[t].key,
            Some(p) => self.proposals[p].key,
        }
    }

    /// The stored candidates followed by the proposals from `first` on.
    fn stored_and_proposed_from(&self, first: usize) -> impl Iterator<Item = usize> {
        let stored = self.candidates.len();
        (0..stored).chain(stored + first..stored + self.proposals.len())
    }

    /// Propose a split of `feature` at each of `values` with zeroed sums,
    /// skipping keys that already exist among the stored candidates or the
    /// proposals (within the [`CandidateKey::same_as`] tolerance). The
    /// proposal buffers grow by at most `values.len()` rows, exactly, so
    /// they settle at the largest proposal set instead of doubling past it.
    fn propose(&mut self, feature: usize, is_nominal: bool, values: &[f64]) {
        self.proposals.reserve_exact(values.len());
        self.proposal_grads.reserve_exact(values.len() * self.k);
        for &value in values {
            let key = CandidateKey {
                feature,
                value,
                is_nominal,
            };
            let mut known = self.candidates.iter().chain(self.proposals.iter());
            if !known.any(|c| c.key.same_as(&key)) {
                self.proposals.push(SplitCandidate::new(key));
                self.proposal_grads
                    .resize(self.proposal_grads.len() + self.k, 0.0);
            }
        }
    }

    /// Add left-subset statistics (`loss`, `count` rows, gradient `grad`)
    /// to target `t`.
    fn add(&mut self, t: usize, loss: f64, count: u64, grad: &[f64]) {
        let (record, grads, i) = match t.checked_sub(self.candidates.len()) {
            None => (&mut self.candidates[t], &mut *self.candidate_grads, t),
            Some(p) => (&mut self.proposals[p], &mut self.proposal_grads[..], p),
        };
        record.loss_sum += loss;
        record.count += count;
        linalg::add_assign(&mut grads[i * self.k..(i + 1) * self.k], grad);
    }

    /// Combined per-feature proposal + accumulation pass over the batched
    /// loss/gradient buffers, appending fresh proposals. The node's rows own
    /// the segments `lo..lo + b` of the batch `columns`:
    ///
    /// * **Numeric features**: the segment lists the node's rows sorted by
    ///   [`numeric_sort_key`] (sorted once per batch at the root and
    ///   inherited through every routing partition, never sorted per node);
    ///   the 25 %/50 %/75 % order statistics of that order become the
    ///   proposals (§V-D, same values a full sort or O(n) selection picks),
    ///   and one *boundary sweep* walks the sorted rows with a running
    ///   loss/gradient accumulator, handing every candidate its left-prefix
    ///   sums the moment the sweep crosses its threshold — no prefix arrays
    ///   are materialised and the sweep stops at the last boundary.
    /// * **Nominal features**: per-category bucket accumulators — one scan
    ///   over the segment's batch-dictionary ids assigns every row's
    ///   loss/gradient to its category's bucket through a first-seen slot
    ///   table (ids were resolved once per batch, by exact bit pattern), the
    ///   sorted distinct codes become the proposals, and each equality
    ///   candidate sums the buckets passing its [`CandidateKey::test_value`]
    ///   tolerance. O(rows + categories · candidates) per feature at any
    ///   cardinality.
    ///
    /// Both paths select the identical row set as a per-row scan with
    /// [`CandidateKey::goes_left`] (pinned by tests); only the floating-point
    /// summation order differs. The proposal buffers keep their capacity, so
    /// the steady-state pass performs no heap allocation.
    #[allow(clippy::too_many_arguments)] // threaded scratch buffers, not state
    fn propose_and_accumulate(
        &mut self,
        xs: MatRef<'_>,
        columns: &BatchColumns,
        lo: usize,
        losses: &[f64],
        grads: MatRef<'_>,
        values_buf: &mut Vec<f64>,
        boundaries: &mut Vec<(u32, u32)>,
        acc_buf: &mut Vec<f64>,
        buckets: &mut Buckets,
    ) {
        let k = self.k;
        let b = xs.rows();
        let m = xs.cols();
        let data = xs.as_slice();
        let cmp_f64 = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
        for (feature, &kind) in columns.kinds.iter().enumerate() {
            let proposal_start = self.proposals.len();
            match kind {
                Column::Nominal(c) => {
                    // Bucket pass: one accumulator per distinct category of
                    // the node, created at its first row and filled in row
                    // order (NaNs bucket by bit pattern and never pass a
                    // candidate's test), so a candidate owning a single
                    // category accumulates in the exact order of the per-row
                    // reference.
                    let Buckets {
                        ids,
                        losses: bucket_losses,
                        counts,
                        grads: bucket_grads,
                        slot_of_id,
                    } = &mut *buckets;
                    ids.clear();
                    bucket_losses.clear();
                    counts.clear();
                    bucket_grads.clear();
                    if slot_of_id.len() < columns.codes.len() {
                        slot_of_id.resize(columns.codes.len(), NO_SLOT);
                    }
                    for (r, &id) in columns.nominal_segment(c, lo, b).iter().enumerate() {
                        let slot = &mut slot_of_id[id as usize];
                        if *slot == NO_SLOT {
                            *slot = ids.len() as u32;
                            ids.push(id);
                            bucket_losses.push(0.0);
                            counts.push(0);
                            bucket_grads.resize(ids.len() * k, 0.0);
                        }
                        let j = *slot as usize;
                        bucket_losses[j] += losses[r];
                        counts[j] += 1;
                        linalg::add_assign(&mut bucket_grads[j * k..(j + 1) * k], grads.row(r));
                    }
                    for &id in ids.iter() {
                        slot_of_id[id as usize] = NO_SLOT;
                    }
                    // Proposals: every distinct finite category code seen in
                    // the batch (§V-D), sorted with the same tolerance dedup
                    // the full-sort path produced. Non-finite codes go before
                    // the sort: a NaN breaks `partial_cmp`'s total order, and
                    // an infinity is never proposed anyway. (`partial_cmp`
                    // rather than `total_cmp`: ±0.0 compare equal, so the
                    // stable sort keeps whichever the node saw first.)
                    values_buf.clear();
                    values_buf.extend(
                        ids.iter()
                            .map(|&id| columns.codes[id as usize])
                            .filter(|v| v.is_finite()),
                    );
                    values_buf.sort_by(cmp_f64);
                    values_buf.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
                    self.propose(feature, true, values_buf);
                    // Every candidate of this feature sums the buckets of
                    // the categories passing its test.
                    for t in self.stored_and_proposed_from(proposal_start) {
                        let key = self.key(t);
                        if key.feature != feature {
                            continue;
                        }
                        for (j, &id) in buckets.ids.iter().enumerate() {
                            if key.test_value(columns.codes[id as usize]) {
                                let grad = &buckets.grads[j * k..(j + 1) * k];
                                self.add(t, buckets.losses[j], buckets.counts[j], grad);
                            }
                        }
                    }
                }
                Column::Numeric(c) => {
                    // The node's rows sorted by this feature column (NaNs
                    // sort past +inf and are never proposed as split values).
                    let sorted = columns.numeric_segment(c, lo, b);
                    // Proposals: the 25 %/50 %/75 % order statistics of the
                    // batch (§V-D), with the quantile-path dedup tolerances.
                    let value_at = |i: usize| data[sorted[i].1 as usize * m + feature];
                    values_buf.clear();
                    values_buf.extend([
                        value_at(b / 4),
                        value_at(b / 2),
                        value_at((3 * b / 4).min(b - 1)),
                    ]);
                    values_buf.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
                    values_buf.retain(|v| v.is_finite());
                    self.propose(feature, false, values_buf);
                    // Boundary sweep: every candidate's left subset is the
                    // sorted prefix up to its threshold. Collect the prefix
                    // lengths, then walk the sorted rows once with a running
                    // accumulator up to each boundary in turn and emit there;
                    // the bound uses exactly the arithmetic of `test_value`,
                    // so the selected row set matches per-row routing
                    // bit-for-bit.
                    boundaries.clear();
                    for t in self.stored_and_proposed_from(proposal_start) {
                        let key = self.key(t);
                        if key.feature != feature {
                            continue;
                        }
                        let threshold = numeric_sort_key(key.value);
                        let hi = sorted.partition_point(|&(key, _)| key <= threshold);
                        if hi > 0 {
                            boundaries.push((hi as u32, t as u32));
                        }
                    }
                    boundaries.sort_unstable();
                    acc_buf.clear();
                    acc_buf.resize(k, 0.0);
                    let mut acc_loss = 0.0;
                    let mut swept = 0u32;
                    let mut rows = sorted.iter().map(|&(_, r)| r as usize);
                    for &(hi, t) in boundaries.iter() {
                        for r in rows.by_ref().take((hi - swept) as usize) {
                            acc_loss += losses[r];
                            linalg::add_assign(acc_buf, grads.row(r));
                        }
                        swept = hi;
                        self.add(t as usize, acc_loss, u64::from(hi), acc_buf);
                    }
                }
            }
        }
    }
}

/// Build the two warm-started child models for a split on stored candidate
/// `i` (eq. 6: a single gradient step from the parent parameters on each
/// child's subset). The right-child gradient is materialised into the
/// scratch gradient buffer (structural changes are rare, but there is no
/// reason to allocate here either).
fn warm_started_children(
    stats: &NodeStats,
    i: usize,
    lr: f64,
    scratch: &mut UpdateScratch,
) -> (Glm, Glm) {
    let count = stats.candidates[i].count;
    let grad = stats.candidate_grad(i);
    let left = Glm::warm_start_with_gradient(&stats.model, grad, count, lr);
    scratch.grad_buf.clear();
    scratch.grad_buf.resize(stats.grad_sum.len(), 0.0);
    linalg::sub_into(&stats.grad_sum, grad, &mut scratch.grad_buf);
    let right_count = stats.count - count;
    let right = Glm::warm_start_with_gradient(&stats.model, &scratch.grad_buf, right_count, lr);
    (left, right)
}

/// Stable in-place partition of `idx` by the split key of the inner node
/// whose sub-batch was just gathered into `scratch`: left-routed indices form
/// the prefix (returned length), right-routed the suffix, both keeping their
/// relative order. The node's column segments (offset `lo`) are partitioned
/// the same way, reusing the routing flag of every row. In
/// [`Routing::Gathered`] mode the tested feature is read out of the
/// contiguous matrix the node update just gathered (`xbuf` row `pos` is
/// `xs[idx[pos]]`), avoiding one pointer chase per instance; the
/// [`Routing::PerInstance`] reference re-reads the original row pointers.
fn partition_indices(
    key: &CandidateKey,
    xs: &[&[f64]],
    idx: &mut [usize],
    lo: usize,
    scratch: &mut UpdateScratch,
    routing: Routing,
    num_features: usize,
) -> usize {
    scratch.partition_buf.clear();
    scratch.columns.route.clear();
    let mut write = 0usize;
    for pos in 0..idx.len() {
        let i = idx[pos];
        let value = match routing {
            Routing::Gathered => scratch.xbuf[pos * num_features + key.feature],
            Routing::PerInstance => xs[i][key.feature],
        };
        if key.test_value(value) {
            scratch.columns.route.push(write as u32);
            idx[write] = i;
            write += 1;
        } else {
            let to = scratch.partition_buf.len() as u32 | ROUTE_RIGHT;
            scratch.columns.route.push(to);
            scratch.partition_buf.push(i);
        }
    }
    idx[write..].copy_from_slice(&scratch.partition_buf);
    scratch.columns.partition(lo, idx.len());
    write
}

/// The structural checks of Algorithm 1 for an *inner* node whose children
/// have already consumed the batch: prune (gain (5)) and replace (gain (4)),
/// thresholded by the AIC test. Returns the decision taken at `id`.
///
/// `allow_growth` is the budget ladder's hard floor (rung 4): when `false`,
/// replacements are suppressed (they re-allocate child payloads) while prunes
/// — which only ever release memory — still run. Unbudgeted trees always
/// pass `true`, so the flag is inert unless a memory budget is armed.
fn structural_check_inner(
    arena: &mut NodeArena,
    id: NodeId,
    config: &DmtConfig,
    scratch: &mut UpdateScratch,
    allow_growth: bool,
) -> GainDecision {
    if arena.stats(id).count < config.min_observations_split {
        return GainDecision::Keep;
    }
    let key = arena.split_key(id);
    let (left, right) = arena.children(id).expect("inner node has children");

    let (leaf_loss, num_leaves) = {
        let (ll, lc) = arena.subtree_leaf_loss(left);
        let (rl, rc) = arena.subtree_leaf_loss(right);
        (ll + rl, lc + rc)
    };
    let stats = arena.stats(id);
    let k = stats.k();
    let k_subtree = (num_leaves as usize) * k;

    // Gain (5): collapse the subtree into this node.
    let gain_prune = leaf_loss - stats.loss_sum;
    let prune_ok = config.accepts(gain_prune, k, k_subtree);

    // Gain (4): replace the subtree with a fresh split.
    let best_replacement = stats.best_candidate(leaf_loss, config.learning_rate);
    let (replace_ok, replace_gain, replace_idx) = match best_replacement {
        Some((idx, gain)) => (config.accepts(gain, 2 * k, k_subtree), gain, idx),
        None => (false, f64::NEG_INFINITY, 0),
    };

    if prune_ok && (!replace_ok || gain_prune >= replace_gain) {
        // Replace the inner node with a leaf (the smaller model); the
        // collapsed subtree's slots go onto the arena's free list.
        arena.stats_mut(id).reset_window();
        arena.collapse_to_leaf(id);
        return GainDecision::Prune { gain: gain_prune };
    }
    if replace_ok && allow_growth {
        let candidate = arena.stats(id).candidates[replace_idx];
        // Ignore a "replacement" that would re-install the very same
        // split — it would only discard the children's progress without
        // changing the model structure.
        if !candidate.key.same_as(&key) {
            let (left_model, right_model) =
                warm_started_children(arena.stats(id), replace_idx, config.learning_rate, scratch);
            arena.stats_mut(id).reset_window();
            // Retire the old subtree first so the fresh children reuse
            // its free-listed slots instead of growing the arena.
            arena.collapse_to_leaf(id);
            arena.install_split(
                id,
                candidate.key,
                NodeStats::new(left_model),
                NodeStats::new(right_model),
            );
            return GainDecision::Replace {
                key: candidate.key,
                gain: replace_gain,
            };
        }
    }
    GainDecision::Keep
}

/// Learn the sub-batch selected by `idx` at the arena node `id` and apply
/// the structural checks of Algorithm 1 to the subtree below it. Returns the
/// structural decision taken at `id` itself.
///
/// `idx` starts at offset `lo` of the index vector the batch columns in
/// `scratch` were presorted for (`BatchColumns::presort`), and the node
/// reads its segments `lo..lo + idx.len()` of those columns.
///
/// Inner nodes (which keep full statistics and keep training their model —
/// the key difference from FIMT-DD, §IV-D) route instances by stably
/// partitioning `idx` in place: left-routed indices form the prefix,
/// right-routed indices the suffix, so no per-node row batches are
/// materialised and the relative instance order every node observes is
/// identical to processing the original batch order one instance at a time.
/// `routing` selects where the split test reads its feature value from; see
/// [`Routing`].
///
/// `allow_growth` is the budget ladder's hard floor (rung 4): `false`
/// suppresses new splits and replacements — the only structural moves that
/// allocate — while statistics keep accumulating and prunes keep running, so
/// a tree pinned at its floor still learns and adapts. Unbudgeted trees
/// always pass `true`.
#[allow(clippy::too_many_arguments)] // one recursive hot path, threaded context
pub(crate) fn learn_at(
    arena: &mut NodeArena,
    id: NodeId,
    xs: &[&[f64]],
    ys: &[usize],
    idx: &mut [usize],
    lo: usize,
    config: &DmtConfig,
    scratch: &mut UpdateScratch,
    routing: Routing,
    allow_growth: bool,
) -> GainDecision {
    if idx.is_empty() {
        return GainDecision::Keep;
    }
    #[cfg(debug_assertions)]
    scratch.columns.assert_segments(xs, idx, lo);
    if arena.is_leaf(id) {
        let stats = arena.stats_mut(id);
        stats.update_presorted(xs, ys, idx, lo, config, scratch);
        // Split check (gain (3) against the AIC threshold).
        if stats.count < config.min_observations_split || !allow_growth {
            return GainDecision::Keep;
        }
        if let Some((best_idx, gain)) = stats.best_candidate(stats.loss_sum, config.learning_rate) {
            let k = stats.k();
            if config.accepts(gain, 2 * k, k) {
                let candidate = stats.candidates[best_idx];
                let (left_model, right_model) =
                    warm_started_children(stats, best_idx, config.learning_rate, scratch);
                arena.stats_mut(id).reset_window();
                arena.install_split(
                    id,
                    candidate.key,
                    NodeStats::new(left_model),
                    NodeStats::new(right_model),
                );
                return GainDecision::Split {
                    key: candidate.key,
                    gain,
                };
            }
        }
        GainDecision::Keep
    } else {
        // Update the inner node's own statistics and model with the full
        // sub-batch (DMT keeps training inner models, §IV-D). The node
        // update is independent of the children's, so doing it before
        // routing lets the children permute `idx` freely.
        arena
            .stats_mut(id)
            .update_presorted(xs, ys, idx, lo, config, scratch);

        // Route the sub-batch to the children: stable in-place partition of
        // the index slice and of the column segments (left prefix, right
        // suffix) using the reusable holding pens. The pens are drained
        // before the recursion, so child partitions can reuse them.
        let key = arena.split_key(id);
        let m = xs[idx[0]].len();
        let write = partition_indices(&key, xs, idx, lo, scratch, routing, m);

        let (left, right) = arena.children(id).expect("inner node has children");
        let (left_idx, right_idx) = idx.split_at_mut(write);
        learn_at(
            arena,
            left,
            xs,
            ys,
            left_idx,
            lo,
            config,
            scratch,
            routing,
            allow_growth,
        );
        learn_at(
            arena,
            right,
            xs,
            ys,
            right_idx,
            lo + write,
            config,
            scratch,
            routing,
            allow_growth,
        );

        structural_check_inner(arena, id, config, scratch, allow_growth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DmtConfig {
        DmtConfig::default()
    }

    fn separable_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 7) % n) as f64 / n as f64])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        (xs, ys)
    }

    #[test]
    fn child_loss_approx_subtracts_gradient_norm() {
        let approx = NodeStats::child_loss_approx(10.0, &[3.0, 4.0], 5, 0.1);
        // 10 - 0.1/5 * 25 = 9.5
        assert!((approx - 9.5).abs() < 1e-12);
        assert_eq!(NodeStats::child_loss_approx(10.0, &[3.0], 0, 0.1), 0.0);
    }

    #[test]
    fn update_with_batch_accumulates_counts_and_loss() {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let (xs, ys) = separable_batch(50);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[false, false], &config());
        assert_eq!(stats.count, 50);
        assert!(stats.loss_sum > 0.0);
        assert!(!stats.candidates.is_empty());
        assert!(stats.candidates.len() <= config().max_candidates(2));
    }

    #[test]
    fn candidate_pool_respects_the_maximum() {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let cfg = config();
        for round in 0..20 {
            let xs: Vec<Vec<f64>> = (0..30)
                .map(|i| vec![(i + round * 30) as f64 / 600.0, (i % 7) as f64 / 7.0])
                .collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
            assert!(stats.candidates.len() <= cfg.max_candidates(2));
        }
    }

    #[test]
    fn gain_of_informative_candidate_is_positive_after_training() {
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_zeros(1, 2));
        // A hard step function that a single linear model cannot fit well:
        // y = 1 exactly when x > 0.75 (a split at 0.75 separates perfectly).
        for _ in 0..60 {
            let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.75)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            stats.update_with_batch(&rows, &ys, &[false], &cfg);
        }
        let best = stats.best_candidate(stats.loss_sum, cfg.learning_rate);
        let (_, gain) = best.expect("a candidate must exist");
        assert!(gain > 0.0, "gain {gain}");
    }

    #[test]
    fn prefix_accumulation_matches_per_row_candidate_stats() {
        // One batch through a fresh node, then recompute every stored
        // candidate's statistics by scanning the batch per row with the
        // pre-update model. Counts and row sets must match exactly; the sums
        // may differ only by prefix-reassociation rounding.
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 7));
        let model_before = stats.model.clone();
        let (xs, ys) = separable_batch(80);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
        assert!(!stats.candidates.is_empty());
        for (i, candidate) in stats.candidates.iter().enumerate() {
            let mut count = 0u64;
            let mut loss_sum = 0.0;
            let mut grad_sum = vec![0.0; stats.k()];
            for (x, &y) in rows.iter().zip(ys.iter()) {
                if candidate.key.goes_left(x) {
                    let (loss, grad) = model_before.loss_and_gradient(&[x], &[y]);
                    count += 1;
                    loss_sum += loss;
                    linalg::add_assign(&mut grad_sum, &grad);
                }
            }
            assert_eq!(
                candidate.count, count,
                "row set diverged: {:?}",
                candidate.key
            );
            assert!(
                (candidate.loss_sum - loss_sum).abs() <= 1e-9 * loss_sum.abs().max(1.0),
                "loss sum diverged: {} vs {}",
                candidate.loss_sum,
                loss_sum
            );
            for (a, b) in stats.candidate_grad(i).iter().zip(grad_sum.iter()) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "gradient sum diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn bucket_accumulation_matches_per_row_candidate_stats_on_nominal_features() {
        // Mixed numeric + nominal batch: nominal candidates run through the
        // per-category bucket pass and must select the exact row set of the
        // per-row reference, with sums matching bit-for-bit when a candidate
        // owns a single category (the bucket is filled in row order).
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 11));
        let model_before = stats.model.clone();
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 5) as f64, ((i * 13) % 60) as f64 / 60.0])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[1] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[true, false], &cfg);
        let nominal_candidates = stats.candidates.iter().filter(|c| c.key.is_nominal).count();
        assert!(nominal_candidates > 0, "no nominal candidates proposed");
        for (i, candidate) in stats.candidates.iter().enumerate() {
            if !candidate.key.is_nominal {
                continue;
            }
            let mut count = 0u64;
            let mut loss_sum = 0.0;
            let mut grad_sum = vec![0.0; stats.k()];
            for (x, &y) in rows.iter().zip(ys.iter()) {
                if candidate.key.goes_left(x) {
                    let (loss, grad) = model_before.loss_and_gradient(&[x], &[y]);
                    count += 1;
                    loss_sum += loss;
                    linalg::add_assign(&mut grad_sum, &grad);
                }
            }
            assert_eq!(
                candidate.count, count,
                "row set diverged: {:?}",
                candidate.key
            );
            assert_eq!(
                candidate.loss_sum.to_bits(),
                loss_sum.to_bits(),
                "single-category bucket must accumulate in row order"
            );
            for (a, b) in stats.candidate_grad(i).iter().zip(grad_sum.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn high_cardinality_nominal_columns_bucket_through_the_batch_dictionary() {
        // An id-like nominal column (~n/2 distinct codes) resolves through
        // the batch dictionary: one id per distinct code, each node mapping
        // ids to buckets through its slot table. The accumulated candidate
        // statistics must stay bit-identical to the per-row reference (the
        // dictionary only changes *how* a row finds its bucket, never what
        // is accumulated or in which order).
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 23));
        let model_before = stats.model.clone();
        let n = 160;
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                // ~n/2 distinct codes plus a numeric column carrying the
                // label signal.
                vec![(i % (n / 2)) as f64, ((i * 13) % n) as f64 / n as f64]
            })
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[1] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let idx: Vec<usize> = (0..n).collect();
        let mut scratch = UpdateScratch::new();
        stats.update_with_batch_indexed(&rows, &ys, &idx, &[true, false], &cfg, &mut scratch);
        assert_eq!(
            scratch.columns.codes.len(),
            n / 2,
            "one dictionary id per code"
        );
        assert!(
            scratch
                .buckets
                .slot_of_id
                .iter()
                .all(|&slot| slot == NO_SLOT),
            "the slot table must be reset after the bucket pass"
        );
        let nominal_candidates = stats.candidates.iter().filter(|c| c.key.is_nominal).count();
        assert!(nominal_candidates > 0, "no nominal candidates proposed");
        for (i, candidate) in stats.candidates.iter().enumerate() {
            if !candidate.key.is_nominal {
                continue;
            }
            let mut count = 0u64;
            let mut loss_sum = 0.0;
            let mut grad_sum = vec![0.0; stats.k()];
            for (x, &y) in rows.iter().zip(ys.iter()) {
                if candidate.key.goes_left(x) {
                    let (loss, grad) = model_before.loss_and_gradient(&[x], &[y]);
                    count += 1;
                    loss_sum += loss;
                    linalg::add_assign(&mut grad_sum, &grad);
                }
            }
            assert_eq!(
                candidate.count, count,
                "row set diverged: {:?}",
                candidate.key
            );
            assert_eq!(
                candidate.loss_sum.to_bits(),
                loss_sum.to_bits(),
                "the dictionary lookup changed the accumulation: {:?}",
                candidate.key
            );
            for (a, b) in stats.candidate_grad(i).iter().zip(grad_sum.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batch_dictionary_buckets_match_per_row_counts_at_low_and_high_cardinality() {
        // Nodes fed batches whose nominal cardinality is low (15 codes) and
        // id-like (64 codes): both must reproduce the per-row candidate
        // counts exactly (the regression guard for the O(batch²) id-like
        // column case), with one dictionary id per distinct code.
        let cfg = config();
        for distinct in [15, 64] {
            let mut stats = NodeStats::new(Glm::new_random(1, 2, 31));
            let n = distinct * 3;
            let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % distinct) as f64]).collect();
            let ys: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            let idx: Vec<usize> = (0..n).collect();
            let mut scratch = UpdateScratch::new();
            stats.update_with_batch_indexed(&rows, &ys, &idx, &[true], &cfg, &mut scratch);
            assert_eq!(scratch.columns.codes.len(), distinct);
            for candidate in &stats.candidates {
                let expected = rows.iter().filter(|x| candidate.key.goes_left(x)).count() as u64;
                assert_eq!(
                    candidate.count, expected,
                    "cardinality {distinct}: {:?}",
                    candidate.key
                );
            }
        }
    }

    #[test]
    fn nan_rows_never_enter_candidate_statistics() {
        // NaN feature values (either sign bit) fail every split test, so no
        // candidate may absorb their loss/gradient — the sort-key boundary
        // must exclude them exactly like the per-row reference does.
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(1, 2, 3));
        let mut xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        xs.push(vec![f64::NAN]);
        xs.push(vec![f64::NAN.copysign(-1.0)]);
        let ys: Vec<usize> = (0..xs.len()).map(|i| i % 2).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        stats.update_with_batch(&rows, &ys, &[false], &cfg);
        assert!(!stats.candidates.is_empty());
        for candidate in &stats.candidates {
            let expected = rows.iter().filter(|x| candidate.key.goes_left(x)).count() as u64;
            assert_eq!(candidate.count, expected, "{:?}", candidate.key);
            assert!(
                candidate.loss_sum.is_finite(),
                "a NaN row leaked into candidate {:?}",
                candidate.key
            );
        }
        assert!(stats.candidate_grads.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn nan_codes_in_a_wide_nominal_column_are_never_proposed() {
        // 24 codes plus NaNs of both signs give 26 distinct values, past the
        // sort's insertion-sort cutoff, where a NaN among the proposals used
        // to break `partial_cmp`'s total order and panic. The first-seen code
        // order matters (the sort notices the broken order only for some
        // permutations), and `(7 i) mod 24` with NaNs in rows 0 and 5 trips it.
        use dmt_stream::schema::{FeatureSpec, StreamSchema};
        let batch = |round: usize, with_nans: bool| {
            let mut xs: Vec<Vec<f64>> = (0..96)
                .map(|i| {
                    let t = ((i * 31 + round * 17) % 101) as f64 / 101.0;
                    vec![((i * 7) % 24) as f64, t]
                })
                .collect();
            if with_nans {
                for (row, nan) in [(0, f64::NAN), (5, f64::NAN.copysign(-1.0))] {
                    xs[row][0] = nan;
                    xs[row + 48][0] = nan;
                }
            }
            let ys: Vec<usize> = xs
                .iter()
                .map(|x| usize::from((x[0] < 12.0) != (x[1] > 0.5)))
                .collect();
            (xs, ys)
        };
        let cfg = DmtConfig {
            use_aic_threshold: false,
            min_observations_split: 40,
            ..config()
        };

        let (xs, ys) = batch(0, true);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 7));
        stats.update_with_batch(&rows, &ys, &[true, false], &cfg);
        let nominal: Vec<_> = stats
            .candidates
            .iter()
            .filter(|c| c.key.is_nominal)
            .collect();
        assert!(!nominal.is_empty(), "no nominal candidate proposed");
        for candidate in nominal {
            assert!(candidate.key.value.is_finite(), "{:?}", candidate.key);
            let expected = rows.iter().filter(|x| candidate.key.goes_left(x)).count() as u64;
            assert_eq!(candidate.count, expected, "{:?}", candidate.key);
        }

        // The same NaN batch through a grown tree's unchecked learn path, so
        // the root and the inner nodes below it all propose from it.
        let schema = StreamSchema::new(
            "nan-codes",
            vec![FeatureSpec::nominal("code", 24), FeatureSpec::numeric("t")],
            2,
        );
        let mut tree = crate::tree::DynamicModelTree::new(schema, cfg);
        for round in 0..40 {
            let (xs, ys) = batch(round, false);
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            tree.learn_batch_traced(&rows, &ys);
        }
        assert!(tree.depth() >= 1, "the tree never split");
        tree.learn_batch_traced(&rows, &ys);
        assert_eq!(tree.observations(), 41 * 96);
    }

    #[test]
    fn combined_pass_proposes_the_same_keys_as_the_reference() {
        // First batch into a fresh node: the pool is empty and large enough,
        // so the stored candidates afterwards are exactly the batch's
        // proposals — which must match `propose_from_batch`, the standalone
        // reference implementation of the §V-D proposal rules.
        let cfg = config();
        let mut stats = NodeStats::new(Glm::new_random(2, 2, 5));
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 17) % 40) as f64 / 40.0, (i % 3) as f64])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let nominal = [false, true];
        let expected = crate::candidate::propose_from_batch(&rows, &nominal, &[]);
        assert!(expected.len() <= cfg.max_candidates(2));
        stats.update_with_batch(&rows, &ys, &nominal, &cfg);
        assert_eq!(stats.candidates.len(), expected.len());
        // Pool management reorders by gain, so compare as key sets.
        for key in &expected {
            assert!(
                stats.candidates.iter().any(|c| c.key.feature == key.feature
                    && c.key.is_nominal == key.is_nominal
                    && c.key.value.to_bits() == key.value.to_bits()),
                "missing proposal {key:?}"
            );
        }
    }

    /// A node over two features (so `max_candidates` is 6 and at most
    /// ⌈0.5 · 6⌉ = 3 candidates may be displaced per batch) whose window
    /// holds 10 observations with zero loss and gradient, storing one
    /// candidate `(value, last_gain)` per entry of `stored`.
    fn pool_node(stored: &[(f64, f64)]) -> NodeStats {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        stats.count = 10;
        for &(value, gain) in stored {
            let mut candidate = SplitCandidate::new(pool_key(value));
            candidate.last_gain = gain;
            stats.candidates.push(candidate);
            stats.candidate_grads.extend([0.0; 3]);
        }
        stats
    }

    fn pool_key(value: f64) -> CandidateKey {
        CandidateKey {
            feature: 0,
            value,
            is_nominal: false,
        }
    }

    /// Run pool management on `stats` with fresh proposals `(value, s)`.
    /// Each proposal owns 5 of the 10 rows with a left gradient `[s, 0, 0]`,
    /// so at learning rate 0.625 its gain is exactly `s² / 4`; `s = 0`
    /// proposes a candidate with no rows, whose gain is `-inf`.
    fn manage(stats: &mut NodeStats, proposals: &[(f64, f64)]) {
        let cfg = DmtConfig {
            learning_rate: 0.625,
            ..config()
        };
        let mut fresh = Vec::new();
        let mut grads = Vec::new();
        for &(value, s) in proposals {
            let mut candidate = SplitCandidate::new(pool_key(value));
            if s != 0.0 {
                candidate.count = 5;
            }
            fresh.push(candidate);
            grads.extend([s, 0.0, 0.0]);
        }
        stats.manage_candidate_pool(2, &cfg, &mut fresh, &grads, &mut Vec::new());
        // Every admitted proposal brought its own gradient row along.
        assert_eq!(stats.candidate_grads.len(), 3 * stats.candidates.len());
        for (i, candidate) in stats.candidates.iter().enumerate() {
            let value = candidate.key.value;
            let s = proposals.iter().find(|p| p.0 == value).map_or(0.0, |p| p.1);
            assert_eq!(stats.candidate_grad(i), [s, 0.0, 0.0], "row of {value}");
        }
    }

    fn pool_values(stats: &NodeStats) -> Vec<f64> {
        stats.candidates.iter().map(|c| c.key.value).collect()
    }

    #[test]
    fn pool_management_displaces_the_first_worst_candidate_within_the_cap() {
        // Proposal gains 1, 36 and 4 against a full pool whose worst gain,
        // 1, is shared by slots 1, 3 and 5. Ranked 36, 4, 1: the first two
        // displace the first of the remaining worst slots; the third only
        // ties the worst and must not displace it.
        let stored = [
            (1.0, 25.0),
            (2.0, 1.0),
            (3.0, 9.0),
            (4.0, 1.0),
            (5.0, 16.0),
            (6.0, 1.0),
        ];
        let mut stats = pool_node(&stored);
        manage(&mut stats, &[(11.0, 2.0), (12.0, 12.0), (13.0, 4.0)]);
        assert_eq!(pool_values(&stats), [1.0, 12.0, 3.0, 13.0, 5.0, 6.0]);
        let gains: Vec<f64> = stats.candidates.iter().map(|c| c.last_gain).collect();
        assert_eq!(gains, [25.0, 36.0, 9.0, 4.0, 16.0, 1.0]);

        // Five proposals that all beat every stored gain: only three may
        // displace, best first, and the rest are dropped although gain 16
        // still beats the remaining worst stored gain, 9.
        let mut stats = pool_node(&stored);
        manage(
            &mut stats,
            &[
                (21.0, 8.0),
                (22.0, 10.0),
                (23.0, 12.0),
                (24.0, 14.0),
                (25.0, 6.0),
            ],
        );
        assert_eq!(pool_values(&stats), [1.0, 24.0, 3.0, 23.0, 5.0, 22.0]);
    }

    #[test]
    fn pool_management_admits_proposals_in_gain_order() {
        // Four free slots and five proposals: the pool fills with the four
        // best in descending gain order (the row-less proposal, gain -inf,
        // last of them); the fifth then ties the worst stored gain, -inf,
        // and is dropped.
        let mut stats = pool_node(&[(1.0, 25.0), (2.0, 1.0)]);
        manage(
            &mut stats,
            &[
                (31.0, 2.0),
                (32.0, 6.0),
                (33.0, 0.0),
                (34.0, 4.0),
                (35.0, 0.0),
            ],
        );
        assert_eq!(pool_values(&stats), [1.0, 2.0, 32.0, 34.0, 31.0, 33.0]);
        let gains: Vec<f64> = stats.candidates.iter().map(|c| c.last_gain).collect();
        assert_eq!(gains, [25.0, 1.0, 9.0, 4.0, 1.0, f64::NEG_INFINITY]);
    }

    #[test]
    fn reset_window_clears_accumulators_but_keeps_model() {
        let mut stats = NodeStats::new(Glm::new_zeros(2, 2));
        let (xs, ys) = separable_batch(100);
        let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
        let cfg = config();
        for _ in 0..5 {
            stats.update_with_batch(&rows, &ys, &[false, false], &cfg);
        }
        let params_before = stats.model.params().to_vec();
        stats.reset_window();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.loss_sum, 0.0);
        assert!(stats.candidates.is_empty());
        assert!(stats.candidate_grads.is_empty());
        assert_eq!(stats.model.params(), params_before.as_slice());
    }

    #[test]
    fn candidate_gain_is_none_for_degenerate_candidates() {
        let stats = {
            let mut s = NodeStats::new(Glm::new_zeros(1, 2));
            s.count = 10;
            s.loss_sum = 5.0;
            s
        };
        let mut all_left = SplitCandidate::new(CandidateKey {
            feature: 0,
            value: 1e9,
            is_nominal: false,
        });
        all_left.count = 10;
        all_left.loss_sum = 5.0;
        let grad = [0.0; 2];
        assert!(stats
            .candidate_gain(&all_left, &grad, stats.loss_sum, 0.05)
            .is_none());
        let empty = SplitCandidate::new(CandidateKey {
            feature: 0,
            value: -1e9,
            is_nominal: false,
        });
        assert!(stats
            .candidate_gain(&empty, &grad, stats.loss_sum, 0.05)
            .is_none());
    }

    #[test]
    fn leaf_splits_on_a_step_concept_and_builds_an_inner_node() {
        let cfg = config();
        let mut scratch = UpdateScratch::new();
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_zeros(1, 2)));
        let mut split_seen = false;
        for _ in 0..300 {
            let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
            let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.75)).collect();
            let rows: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut idx: Vec<usize> = (0..rows.len()).collect();
            scratch.columns.presort(&rows, &idx, &[false]);
            if let GainDecision::Split { .. } = learn_at(
                &mut arena,
                root,
                &rows,
                &ys,
                &mut idx,
                0,
                &cfg,
                &mut scratch,
                Routing::Gathered,
                true,
            ) {
                split_seen = true;
                break;
            }
        }
        assert!(
            split_seen,
            "the leaf never split on an obviously splittable concept"
        );
        assert_eq!(arena.count_nodes(root), (1, 2));
        assert_eq!(arena.depth(root), 1);
        arena.validate(root).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let cfg = config();
        let mut scratch = UpdateScratch::new();
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_zeros(2, 2)));
        assert_eq!(
            learn_at(
                &mut arena,
                root,
                &[],
                &[],
                &mut [],
                0,
                &cfg,
                &mut scratch,
                Routing::Gathered,
                true,
            ),
            GainDecision::Keep
        );
        assert_eq!(arena.stats(root).count, 0);
    }

    #[test]
    fn subtree_leaf_loss_sums_only_leaves() {
        let (mut arena, root) = NodeArena::with_root(NodeStats::new(Glm::new_zeros(1, 2)));
        arena.stats_mut(root).loss_sum = 100.0;
        let key = CandidateKey {
            feature: 0,
            value: 0.5,
            is_nominal: false,
        };
        let (l, r) = arena.install_split(
            root,
            key,
            NodeStats::new(Glm::new_zeros(1, 2)),
            NodeStats::new(Glm::new_zeros(1, 2)),
        );
        arena.stats_mut(l).loss_sum = 2.0;
        arena.stats_mut(r).loss_sum = 3.0;
        let (loss, leaves) = arena.subtree_leaf_loss(root);
        assert!((loss - 5.0).abs() < 1e-12);
        assert_eq!(leaves, 2);
    }
}
