//! Columnar (SoA) row storage backing the vector indexes.
//!
//! The original indexes stored `Vec<Record>` — every embedding its own
//! heap allocation, so a scan was pointer-chasing and branch-bound. The
//! [`RowPool`] packs all vectors into one contiguous `Vec<f32>` slab with
//! rows at a fixed [`ROW_ALIGN`]-float stride (rows start 64-byte aligned
//! relative to the slab base), with per-row norms precomputed by the same
//! kernel `Embedding::norm` uses, so a scan streams memory and skips the
//! two redundant norm computations the old per-row `cosine` paid.
//!
//! # Scalar quantization with exact rescore
//!
//! Rows are additionally stored as symmetric i8 codes (`code = round(v /
//! scale)`, `scale = max|v| / 127`). A quantized scan computes the cheap
//! integer dot per row, converts it into a **sound score interval**
//! `[lower, upper]` (quantization error + kernel rounding allowance, with
//! strict widening margins), keeps every row whose upper bound reaches the
//! k-th largest lower bound, and rescores those candidates with the exact
//! f32 kernel. The candidate set provably contains the true top-k, so the
//! final `top_k` output — ids, order, and score bits — is identical to the
//! pure-f32 scan. Rows that cannot be soundly quantized (non-finite
//! values, zero/subnormal scale) carry `scale = 0` and are scored exactly
//! during the bounding pass; a degenerate query (non-finite, zero norm)
//! disables quantization for the whole scan.
//!
//! Parallel scans shard the pool at a fixed [`PAR_SCAN_SHARD`] rows and
//! select candidates *per shard*, so results stay byte-identical at any
//! thread count (top-k over a disjoint union equals top-k of per-shard
//! top-ks under the `(score desc, id asc)` total order).

use std::collections::HashMap;

use allhands_embed::{cosine_from_parts, dot_slices, norm_slice, Embedding};
use allhands_obs::Recorder;

use crate::{top_k, Filter, Record, SearchResult};

/// Row stride granularity in f32 lanes: 16 floats = 64 bytes, one cache
/// line, and a whole number of kernel lane-groups.
const ROW_ALIGN: usize = 16;

/// Code-row stride granularity in bytes; padding codes are zero and
/// contribute nothing to the integer dot, so the kernel can run over the
/// full padded stride with no remainder loop.
const CODE_ALIGN: usize = 16;

/// Pools below this row count skip quantization: the bounding pass only
/// pays off when the f32 scan it prunes is large.
pub const QUANT_MIN_ROWS: usize = 1024;

/// Minimum dimensionality for quantization; below this the integer path
/// saves too little per row to cover the bounding overhead.
pub const QUANT_MIN_DIMS: usize = 8;

/// Pools at or above this size are scanned in parallel shards.
pub(crate) const PAR_SCAN_THRESHOLD: usize = 4096;

/// Shard size for the parallel scan. Fixed (not derived from the thread
/// count) so shard-local top-k results — and therefore the merged result —
/// are identical at any thread count.
pub(crate) const PAR_SCAN_SHARD: usize = 2048;

/// Columnar storage for one pool of records (a flat index, or one IVF
/// partition). Slot order is insertion order and is load-bearing for the
/// callers' id → slot maps; `swap_remove` mirrors `Vec::swap_remove`.
#[derive(Debug, Clone)]
pub(crate) struct RowPool {
    dims: usize,
    /// f32 row stride (dims rounded up to [`ROW_ALIGN`]).
    stride: usize,
    /// i8 code-row stride (dims rounded up to [`CODE_ALIGN`]).
    qstride: usize,
    ids: Vec<u64>,
    metas: Vec<HashMap<String, String>>,
    /// Contiguous vector slab; row `s` occupies `data[s*stride..][..dims]`,
    /// padding lanes stay zero.
    data: Vec<f32>,
    /// Per-row Euclidean norm, bit-identical to `Embedding::norm`.
    norms: Vec<f32>,
    /// Per-row L1 norm (Σ|v|), used by the quantization error bound.
    l1: Vec<f32>,
    /// i8 codes; padding codes stay zero.
    codes: Vec<i8>,
    /// Per-row quantization scale; `0.0` marks an exact-only row
    /// (non-finite values, zero vector, or subnormal scale).
    scales: Vec<f32>,
}

/// Per-search quantized query state, built once and shared by all shards.
struct QuantQuery {
    /// Query codes padded to the pool's code stride.
    codes: Vec<i8>,
    scale: f64,
    l1: f64,
    maxabs: f64,
}

/// Per-search scan context.
struct QueryPrep {
    qnorm: f32,
    quant: Option<QuantQuery>,
}

impl RowPool {
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        RowPool {
            dims,
            stride: dims.div_ceil(ROW_ALIGN) * ROW_ALIGN,
            qstride: dims.div_ceil(CODE_ALIGN) * CODE_ALIGN,
            ids: Vec::new(),
            metas: Vec::new(),
            data: Vec::new(),
            norms: Vec::new(),
            l1: Vec::new(),
            codes: Vec::new(),
            scales: Vec::new(),
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

    /// The metadata of row `slot`.
    pub fn meta(&self, slot: usize) -> &HashMap<String, String> {
        &self.metas[slot]
    }

    /// Reconstruct the owned record stored at `slot`.
    pub fn record(&self, slot: usize) -> Record {
        Record {
            id: self.ids[slot],
            vector: Embedding::new(self.row(slot).to_vec()),
            metadata: self.metas[slot].clone(),
        }
    }

    /// Append a record, returning its slot.
    pub fn push(&mut self, record: Record) -> usize {
        let slot = self.len();
        self.ids.push(0);
        self.metas.push(HashMap::new());
        self.data.resize((slot + 1) * self.stride, 0.0);
        self.norms.push(0.0);
        self.l1.push(0.0);
        self.codes.resize((slot + 1) * self.qstride, 0);
        self.scales.push(0.0);
        self.fill(slot, record);
        slot
    }

    /// Overwrite the record at an existing `slot` (upsert in place).
    pub fn fill(&mut self, slot: usize, record: Record) {
        let Record { id, vector, metadata } = record;
        let vals = vector.as_slice();
        assert_eq!(vals.len(), self.dims, "dimension mismatch");
        self.ids[slot] = id;
        self.metas[slot] = metadata;
        let base = slot * self.stride;
        self.data[base..base + self.dims].copy_from_slice(vals);
        self.norms[slot] = norm_slice(vals);
        let mut l1 = 0.0f32;
        let mut maxabs = 0.0f32;
        let mut finite = true;
        for &v in vals {
            if !v.is_finite() {
                finite = false;
            }
            l1 += v.abs();
            maxabs = maxabs.max(v.abs());
        }
        self.l1[slot] = l1;
        let scale = maxabs / 127.0;
        let qbase = slot * self.qstride;
        if finite && scale.is_normal() {
            self.scales[slot] = scale;
            for i in 0..self.dims {
                let c = (self.data[base + i] / scale).round().clamp(-127.0, 127.0);
                self.codes[qbase + i] = c as i8;
            }
            self.codes[qbase + self.dims..qbase + self.qstride].fill(0);
        } else {
            // Exact-only row: zero/subnormal scale or non-finite values.
            self.scales[slot] = 0.0;
            self.codes[qbase..qbase + self.qstride].fill(0);
        }
    }

    /// Remove row `slot`, moving the last row into its place. Returns the
    /// id of the moved row (for the caller's id → slot map), if any.
    pub fn swap_remove(&mut self, slot: usize) -> Option<u64> {
        let last = self.len() - 1;
        if slot != last {
            self.data.copy_within(last * self.stride..(last + 1) * self.stride, slot * self.stride);
            self.codes
                .copy_within(last * self.qstride..(last + 1) * self.qstride, slot * self.qstride);
        }
        self.data.truncate(last * self.stride);
        self.codes.truncate(last * self.qstride);
        self.ids.swap_remove(slot);
        self.metas.swap_remove(slot);
        self.norms.swap_remove(slot);
        self.l1.swap_remove(slot);
        self.scales.swap_remove(slot);
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
        self.metas.clear();
        self.data.clear();
        self.norms.clear();
        self.l1.clear();
        self.codes.clear();
        self.scales.clear();
        out
    }

    /// Exact cosine of the query against row `slot`, bit-identical to
    /// `query.cosine(&record.vector)`: same dot kernel, same formula over
    /// the cached row norm.
    fn exact_score(&self, slot: usize, qvals: &[f32], qnorm: f32) -> f32 {
        cosine_from_parts(dot_slices(qvals, self.row(slot)), qnorm, self.norms[slot])
    }

    /// Filter + score + top-k over the pool; quantized candidate selection
    /// when `quant` is set and the pool/query qualify, parallel shards for
    /// large pools. Output is byte-identical to a serial exact scan in
    /// every configuration.
    pub fn scan_top_k(
        &self,
        query: &Embedding,
        k: usize,
        filter: &Filter,
        quant: bool,
        rec: &Recorder,
    ) -> Vec<SearchResult> {
        let qvals = query.as_slice();
        assert_eq!(qvals.len(), self.dims, "dimension mismatch");
        let qnorm = norm_slice(qvals);
        let quant_query = if quant
            && self.len() >= QUANT_MIN_ROWS
            && self.dims >= QUANT_MIN_DIMS
            && qnorm.is_finite()
            && qnorm > f32::EPSILON
            && qvals.iter().all(|v| v.is_finite())
        {
            let mut maxabs = 0.0f32;
            let mut l1 = 0.0f64;
            for &v in qvals {
                maxabs = maxabs.max(v.abs());
                l1 += v.abs() as f64;
            }
            let scale = maxabs / 127.0;
            if scale.is_normal() {
                let mut codes = vec![0i8; self.qstride];
                for (i, &v) in qvals.iter().enumerate() {
                    codes[i] = (v / scale).round().clamp(-127.0, 127.0) as i8;
                }
                Some(QuantQuery { codes, scale: scale as f64, l1, maxabs: maxabs as f64 })
            } else {
                None
            }
        } else {
            None
        };
        if quant_query.is_some() {
            rec.vincr("vectordb.quant.scans");
        }
        let prep = QueryPrep { qnorm, quant: quant_query };
        let n = self.len();
        if n < PAR_SCAN_THRESHOLD || allhands_par::max_threads() == 1 {
            return self.scan_range(0, n, qvals, &prep, k, filter, rec);
        }
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(PAR_SCAN_SHARD)
            .map(|s| (s, (s + PAR_SCAN_SHARD).min(n)))
            .collect();
        let partials = allhands_par::par_map_indexed(&ranges, |_, &(start, end)| {
            self.scan_range(start, end, qvals, &prep, k, filter, rec)
        });
        top_k(partials.into_iter().flatten().collect(), k)
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        qvals: &[f32],
        prep: &QueryPrep,
        k: usize,
        filter: &Filter,
        rec: &Recorder,
    ) -> Vec<SearchResult> {
        match &prep.quant {
            Some(q) => self.scan_range_quant(start, end, qvals, prep.qnorm, q, k, filter, rec),
            None => {
                let mut candidates = Vec::with_capacity(end - start);
                for slot in start..end {
                    if !filter.matches_meta(&self.metas[slot]) {
                        continue;
                    }
                    candidates.push(SearchResult {
                        id: self.ids[slot],
                        score: self.exact_score(slot, qvals, prep.qnorm),
                    });
                }
                top_k(candidates, k)
            }
        }
    }

    /// Quantized shard scan: bound every row's score, keep rows whose
    /// upper bound reaches the k-th largest lower bound, rescore exactly.
    /// See the soundness argument in the module docs.
    #[allow(clippy::too_many_arguments)]
    fn scan_range_quant(
        &self,
        start: usize,
        end: usize,
        qvals: &[f32],
        qnorm: f32,
        q: &QuantQuery,
        k: usize,
        filter: &Filter,
        rec: &Recorder,
    ) -> Vec<SearchResult> {
        if k == 0 {
            return Vec::new();
        }
        let n_f64 = self.dims as f64;
        // (slot, lower, upper); exact-only rows carry lower == upper ==
        // their exact score (NaN scores included — `total_cmp` gives NaN a
        // fixed rank, matching the final heap order).
        let mut bounds: Vec<(usize, f32, f32)> = Vec::with_capacity(end - start);
        for slot in start..end {
            if !filter.matches_meta(&self.metas[slot]) {
                continue;
            }
            let denom = qnorm * self.norms[slot];
            if denom <= f32::EPSILON {
                // Exact score is 0.0 by the cosine epsilon guard.
                bounds.push((slot, 0.0, 0.0));
                continue;
            }
            let rs = self.scales[slot] as f64;
            if rs == 0.0 {
                let s = self.exact_score(slot, qvals, qnorm);
                bounds.push((slot, s, s));
                continue;
            }
            let qbase = slot * self.qstride;
            let d = dot_i8(&q.codes, &self.codes[qbase..qbase + self.qstride]) as f64;
            let approx = q.scale * rs * d;
            let r_l1 = self.l1[slot] as f64;
            // |v - v̂| ≤ scale/2 per coordinate, so
            // |dot - approx| ≤ rs/2·Σ|q| + qs/2·Σ|v| + n·qs·rs/4,
            // plus an allowance for the f32 kernel's own rounding
            // (≤ 2n·ε·max|q|·Σ|v| is a generous cover for lane-chunked
            // accumulation at these dims).
            let quant_err = 0.5 * (rs * q.l1 + q.scale * r_l1) + 0.25 * n_f64 * q.scale * rs;
            let round_err = 2.0 * n_f64 * (f32::EPSILON as f64) * q.maxabs * r_l1;
            let denom = denom as f64;
            let mid = approx / denom;
            // Relative fudge + absolute slack: covers the bound's own f64
            // rounding, the f64→f32 cast, the f32 division in the exact
            // path, and the ±0.0 total_cmp edge (strictly widened bounds
            // order correctly under total_cmp).
            let e = ((quant_err + round_err) / denom) * 1.0001 + 1e-6;
            let lower = ((mid - e) as f32).clamp(-1.0, 1.0);
            let upper = ((mid + e) as f32).clamp(-1.0, 1.0);
            bounds.push((slot, lower, upper));
        }
        let mut candidates = Vec::new();
        if bounds.len() <= k {
            for &(slot, _, _) in &bounds {
                candidates.push(SearchResult {
                    id: self.ids[slot],
                    score: self.exact_score(slot, qvals, qnorm),
                });
            }
        } else {
            let mut lowers: Vec<f32> = bounds.iter().map(|b| b.1).collect();
            let (_, kth, _) = lowers.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
            let cut = *kth;
            for &(slot, _, upper) in &bounds {
                if upper.total_cmp(&cut) != std::cmp::Ordering::Less {
                    candidates.push(SearchResult {
                        id: self.ids[slot],
                        score: self.exact_score(slot, qvals, qnorm),
                    });
                }
            }
        }
        rec.vobserve("vectordb.quant.rescored", candidates.len() as u64);
        top_k(candidates, k)
    }
}

/// Integer dot product over i8 codes with i32 lane accumulators
/// (auto-vectorizable; exact, so accumulation order is irrelevant).
/// Maximum magnitude per term is 127² = 16129, so overflow needs
/// > 133k dims — far beyond any embedding here.
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 16;
    let mut acc = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] as i32 * xb[l] as i32;
        }
    }
    let mut total: i32 = acc.iter().sum();
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        total += *x as i32 * *y as i32;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_i8_matches_scalar() {
        let a: Vec<i8> = (0..37).map(|i| ((i * 7) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..37).map(|i| ((i * 13) % 255 - 127) as i8).collect();
        let scalar: i32 = a.iter().zip(&b).map(|(x, y)| *x as i32 * *y as i32).sum();
        assert_eq!(dot_i8(&a, &b), scalar);
    }

    #[test]
    fn pool_roundtrip_and_swap_remove() {
        let mut pool = RowPool::new(3);
        for i in 0..5u64 {
            pool.push(
                Record::new(i, Embedding::new(vec![i as f32, 1.0, -0.5]))
                    .with_meta("k", &i.to_string()),
            );
        }
        assert_eq!(pool.len(), 5);
        let r2 = pool.record(2);
        assert_eq!(r2.id, 2);
        assert_eq!(r2.vector.as_slice(), &[2.0, 1.0, -0.5]);
        assert_eq!(r2.metadata.get("k").map(String::as_str), Some("2"));
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

    #[test]
    fn non_finite_rows_are_exact_only() {
        let mut pool = RowPool::new(3);
        pool.push(Record::new(0, Embedding::new(vec![f32::NAN, 1.0, 0.0])));
        pool.push(Record::new(1, Embedding::new(vec![0.0, 0.0, 0.0])));
        pool.push(Record::new(2, Embedding::new(vec![0.5, -0.5, 0.5])));
        assert_eq!(pool.scales[0], 0.0);
        assert_eq!(pool.scales[1], 0.0);
        assert!(pool.scales[2] > 0.0);
    }
}
