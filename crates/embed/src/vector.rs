//! Dense embedding vector with the similarity kernels the workspace needs.
//!
//! The kernels accumulate in [`LANES`] independent lanes with a fixed
//! pairwise reduction at the end. Lane-independent accumulators are what
//! lets LLVM auto-vectorize a float reduction (strict left-to-right
//! summation is not reassociable), and the fixed lane count + reduction
//! order keeps results bit-identical across calls, inputs aside — the
//! workspace's determinism contract cares about *reproducibility*, not
//! about matching a scalar reference sum. Every norm/dot/cosine in the
//! workspace goes through these kernels, so all similarity comparisons
//! stay self-consistent.

use serde::{Deserialize, Serialize};

/// Accumulator lanes for the slice kernels: 8 f32 lanes fill a 256-bit
/// vector register and still auto-vectorize to pairs on 128-bit targets.
pub const LANES: usize = 8;

/// Dot product of two equal-length slices (lane-chunked; see module docs).
/// Panics if lengths differ.
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce(acc) + tail
}

/// Squared Euclidean distance of two equal-length slices (lane-chunked).
/// Panics if lengths differ.
pub fn sq_dist_slices(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce(acc) + tail
}

/// Euclidean norm of a slice, via the same kernel as [`dot_slices`] so a
/// norm precomputed elsewhere (e.g. the vectordb row arena) is
/// bit-identical to `Embedding::norm` on the same values.
pub fn norm_slice(a: &[f32]) -> f32 {
    dot_slices(a, a).sqrt()
}

/// Cosine similarity from a dot product and the two vectors' norms: the
/// formula of [`Embedding::cosine`], for callers that keep a vector's norm
/// beside it. 0 when the norms' product is at most `f32::EPSILON`.
pub fn cosine_from_parts(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    let denom = norm_a * norm_b;
    if denom <= f32::EPSILON {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

/// Fixed pairwise lane reduction: the order is part of the determinism
/// contract (any reorder would change low bits between builds).
#[inline]
fn reduce(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// A dense `f32` vector. Produced by the embedders; consumed by the vector
/// database, clustering, and coherence metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding(Vec<f32>);

impl Embedding {
    /// Wrap a raw vector.
    pub fn new(values: Vec<f32>) -> Self {
        Embedding(values)
    }

    /// A zero vector of dimension `dims`.
    pub fn zeros(dims: usize) -> Self {
        Embedding(vec![0.0; dims])
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Borrow the raw values.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Consume into the raw values.
    pub fn into_vec(self) -> Vec<f32> {
        self.0
    }

    /// Dot product. Panics if dimensions differ.
    pub fn dot(&self, other: &Embedding) -> f32 {
        dot_slices(&self.0, &other.0)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        norm_slice(&self.0)
    }

    /// Cosine similarity in [-1, 1]; 0 when either vector is zero.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        cosine_from_parts(self.dot(other), self.norm(), other.norm())
    }

    /// Squared Euclidean distance.
    pub fn sq_dist(&self, other: &Embedding) -> f32 {
        sq_dist_slices(&self.0, &other.0)
    }

    /// Normalize in place to unit length (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > f32::EPSILON {
            for v in &mut self.0 {
                *v /= n;
            }
        }
    }

    /// `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Embedding, scale: f32) {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += scale * b;
        }
    }

    /// Element-wise mean of `vectors`; `None` if the slice is empty.
    pub fn mean(vectors: &[Embedding]) -> Option<Embedding> {
        let first = vectors.first()?;
        let mut acc = Embedding::zeros(first.dims());
        for v in vectors {
            acc.add_scaled(v, 1.0);
        }
        let inv = 1.0 / vectors.len() as f32;
        for x in &mut acc.0 {
            *x *= inv;
        }
        Some(acc)
    }
}

impl From<Vec<f32>> for Embedding {
    fn from(v: Vec<f32>) -> Self {
        Embedding(v)
    }
}

impl AsRef<[f32]> for Embedding {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(v: &[f32]) -> Embedding {
        Embedding::new(v.to_vec())
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(e(&[3.0, 4.0]).norm(), 5.0);
        assert_eq!(e(&[1.0, 2.0]).dot(&e(&[3.0, 4.0])), 11.0);
    }

    #[test]
    fn cosine_bounds() {
        let a = e(&[1.0, 0.0]);
        assert!((a.cosine(&e(&[1.0, 0.0])) - 1.0).abs() < 1e-6);
        assert!((a.cosine(&e(&[-1.0, 0.0])) + 1.0).abs() < 1e-6);
        assert_eq!(a.cosine(&e(&[0.0, 0.0])), 0.0);
    }

    #[test]
    fn normalize_unit() {
        let mut v = e(&[3.0, 4.0]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        let mut z = e(&[0.0, 0.0]);
        z.normalize(); // must not NaN
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn mean_of_vectors() {
        let m = Embedding::mean(&[e(&[0.0, 2.0]), e(&[2.0, 0.0])]).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 1.0]);
        assert!(Embedding::mean(&[]).is_none());
    }

    #[test]
    fn sq_dist() {
        assert_eq!(e(&[0.0, 0.0]).sq_dist(&e(&[3.0, 4.0])), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dim_mismatch_panics() {
        e(&[1.0]).dot(&e(&[1.0, 2.0]));
    }

    /// Deterministic pseudo-random values for kernel checks.
    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn lane_kernels_match_scalar_reference() {
        // Every length around the lane boundary exercises the remainder path.
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 256] {
            let a = pseudo(n, 11 + n as u64);
            let b = pseudo(n, 97 + n as u64);
            let scalar_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let scalar_sq: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((dot_slices(&a, &b) - scalar_dot).abs() < 1e-4, "dot diverged at n={n}");
            assert!((sq_dist_slices(&a, &b) - scalar_sq).abs() < 1e-4, "sq_dist diverged at n={n}");
            // Bit-identical on repeat calls: the reduction order is fixed.
            assert_eq!(dot_slices(&a, &b).to_bits(), dot_slices(&a, &b).to_bits());
        }
    }

    #[test]
    fn norm_slice_matches_embedding_norm_bitwise() {
        let v = pseudo(37, 5);
        assert_eq!(norm_slice(&v).to_bits(), Embedding::new(v.clone()).norm().to_bits());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn slice_kernel_length_mismatch_panics() {
        dot_slices(&[1.0, 2.0], &[1.0]);
    }
}
