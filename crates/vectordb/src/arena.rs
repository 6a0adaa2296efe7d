//! Columnar (SoA) row storage backing the vector index.
//!
//! The original indexes stored `Vec<Record>` — every embedding its own
//! heap allocation, so a scan was pointer-chasing and branch-bound. The
//! [`RowPool`] packs all vectors into one contiguous `Vec<f32>` slab with
//! rows at a fixed [`ROW_ALIGN`]-float stride (rows start 64-byte aligned
//! relative to the slab base), with per-row norms precomputed by the same
//! kernel `Embedding::norm` uses, so a scan streams memory and skips the
//! two redundant norm computations the old per-row `cosine` paid.

use allhands_embed::{cosine_from_parts, dot_slices, norm_slice, Embedding};

use crate::{top_k, Record, SearchResult};

/// Row stride granularity in f32 lanes: 16 floats = 64 bytes, one cache
/// line, and a whole number of kernel lane-groups.
const ROW_ALIGN: usize = 16;

/// Columnar storage for one pool of records (one IVF partition). Slot
/// order is insertion order and is load-bearing for the caller's id → slot
/// map; `swap_remove` mirrors `Vec::swap_remove`.
#[derive(Debug, Clone)]
pub(crate) struct RowPool {
    dims: usize,
    /// f32 row stride (dims rounded up to [`ROW_ALIGN`]).
    stride: usize,
    ids: Vec<u64>,
    /// Contiguous vector slab; row `s` occupies `data[s*stride..][..dims]`,
    /// padding lanes stay zero.
    data: Vec<f32>,
    /// Per-row Euclidean norm, bit-identical to `Embedding::norm`.
    norms: Vec<f32>,
}

impl RowPool {
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        RowPool {
            dims,
            stride: dims.div_ceil(ROW_ALIGN) * ROW_ALIGN,
            ids: Vec::new(),
            data: Vec::new(),
            norms: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn id(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    /// The stored vector of row `slot`, exactly `dims` long (padding
    /// excluded, so kernels see the same values `Embedding` holds).
    pub fn row(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.stride..slot * self.stride + self.dims]
    }

    /// Reconstruct the owned record stored at `slot`.
    pub fn record(&self, slot: usize) -> Record {
        Record::new(self.ids[slot], Embedding::new(self.row(slot).to_vec()))
    }

    /// Append a record at slot `len()`; its padding lanes stay zero.
    pub fn push(&mut self, record: Record) {
        let vals = record.vector.as_slice();
        assert_eq!(vals.len(), self.dims, "dimension mismatch");
        self.ids.push(record.id);
        self.data.extend_from_slice(vals);
        self.data.resize(self.ids.len() * self.stride, 0.0);
        self.norms.push(norm_slice(vals));
    }

    /// Remove row `slot`, moving the last row into its place. Returns the
    /// id of the moved row (for the caller's id → slot map), if any.
    pub fn swap_remove(&mut self, slot: usize) -> Option<u64> {
        let last = self.len() - 1;
        if slot != last {
            self.data.copy_within(last * self.stride..(last + 1) * self.stride, slot * self.stride);
        }
        self.data.truncate(last * self.stride);
        self.ids.swap_remove(slot);
        self.norms.swap_remove(slot);
        if slot < self.len() {
            Some(self.ids[slot])
        } else {
            None
        }
    }

    /// Drain all rows into owned records (slot order), leaving the pool
    /// empty. Used by IVF retraining.
    pub fn take_records(&mut self) -> Vec<Record> {
        let out: Vec<Record> = (0..self.len()).map(|s| self.record(s)).collect();
        self.ids.clear();
        self.data.clear();
        self.norms.clear();
        out
    }

    /// Exact cosine of the query against row `slot`, bit-identical to
    /// `query.cosine(&record.vector)`: same dot kernel, same formula over
    /// the cached row norm.
    fn exact_score(&self, slot: usize, qvals: &[f32], qnorm: f32) -> f32 {
        cosine_from_parts(dot_slices(qvals, self.row(slot)), qnorm, self.norms[slot])
    }

    /// Score + top-k over the pool, in slot order.
    pub fn scan_top_k(&self, query: &Embedding, k: usize) -> Vec<SearchResult> {
        let qvals = query.as_slice();
        assert_eq!(qvals.len(), self.dims, "dimension mismatch");
        let qnorm = norm_slice(qvals);
        let score = |slot| SearchResult {
            id: self.ids[slot],
            score: self.exact_score(slot, qvals, qnorm),
        };
        top_k((0..self.len()).map(score).collect(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_roundtrip_and_swap_remove() {
        let mut pool = RowPool::new(3);
        for i in 0..5u64 {
            pool.push(Record::new(i, Embedding::new(vec![i as f32, 1.0, -0.5])));
        }
        assert_eq!(pool.len(), 5);
        let r2 = pool.record(2);
        assert_eq!(r2.id, 2);
        assert_eq!(r2.vector.as_slice(), &[2.0, 1.0, -0.5]);
        // Norm is bit-identical to Embedding::norm.
        assert_eq!(pool.norms[2].to_bits(), r2.vector.norm().to_bits());
        // swap_remove moves the tail into the hole and reports its id.
        assert_eq!(pool.swap_remove(1), Some(4));
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.id(1), 4);
        assert_eq!(pool.record(1).vector.as_slice(), &[4.0, 1.0, -0.5]);
        // Removing the tail reports no move.
        assert_eq!(pool.swap_remove(3), None);
    }
}
