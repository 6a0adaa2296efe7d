//! Hierarchical agglomerative clustering (Müllner 2011).
//!
//! The merge loop is the Lance–Williams generic algorithm: a cluster-level
//! distance matrix updated in place after every merge, plus a per-row
//! nearest-neighbor table, so selecting the next pair costs O(m) instead of
//! rescanning every point pair of every cluster pair each round. The naive
//! seed implementation is kept as [`agglomerative_clusters_reference`] —
//! golden tests assert both produce identical assignments, and an
//! ops-counter test shows the rescans are gone.
//!
//! Determinism contract: the initial pairwise matrix is filled row-parallel
//! (each cell is a pure function of the two points), and every later step is
//! sequential, so assignments are bit-identical at any thread count. The
//! pair picked each round is the lexicographic minimum of
//! `(distance, position_a, position_b)` — exactly the reference's
//! first-strictly-smaller scan order — and cluster positions evolve by the
//! same `swap_remove` bookkeeping, so cluster *indices* (not just the
//! partition) match the reference. Single/Complete distances stay exact f32
//! values under min/max updates; Average is tracked as an f64 pair-distance
//! sum (at least as accurate as the reference's f32 running mean).

use allhands_embed::Embedding;

/// Linkage criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Mean pairwise distance between clusters (UPGMA).
    Average,
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
}

/// Work counters for the merge phase (selection + bookkeeping; the initial
/// pairwise fill is the same n(n-1)/2 cosine evaluations for both
/// implementations and is excluded).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HacStats {
    /// Merges performed.
    pub merges: usize,
    /// Distance cells read or written while picking pairs and maintaining
    /// cluster distances. The reference rescans all member pairs of all
    /// cluster pairs per round; Lance–Williams touches O(m) cells per merge.
    pub cells_visited: u64,
}

/// Cluster `points` bottom-up, merging until every inter-cluster distance
/// exceeds `distance_threshold` (cosine distance = 1 − cosine similarity).
/// Returns cluster index per point.
pub fn agglomerative_clusters(
    points: &[Embedding],
    linkage: Linkage,
    distance_threshold: f32,
) -> Vec<usize> {
    agglomerative_clusters_with_stats(points, linkage, distance_threshold).0
}

/// [`agglomerative_clusters`] plus merge-phase work counters.
pub fn agglomerative_clusters_with_stats(
    points: &[Embedding],
    linkage: Linkage,
    distance_threshold: f32,
) -> (Vec<usize>, HacStats) {
    let n = points.len();
    let mut stats = HacStats::default();
    if n == 0 {
        return (Vec::new(), stats);
    }
    let threshold = f64::from(distance_threshold);

    // Pairwise point distances; rows are independent, so the upper triangle
    // fills in parallel. f32→f64 is exact, so cells are bit-identical to
    // the reference's matrix at any thread count.
    let indices: Vec<usize> = (0..n).collect();
    let upper: Vec<Vec<f64>> = allhands_par::par_map_indexed(&indices, |_, &i| {
        (i + 1..n)
            .map(|j| f64::from(1.0 - points[i].cosine(&points[j])))
            .collect()
    });
    // Full symmetric matrix between active cluster *positions*. For Average
    // linkage a cell holds the SUM of point-pair distances between the two
    // clusters (pair count = product of sizes); for Single/Complete it
    // holds the min/max, which stays an exact f32 value under updates.
    let mut mat = vec![vec![0.0f64; n]; n];
    for (i, row) in upper.iter().enumerate() {
        for (off, &d) in row.iter().enumerate() {
            let j = i + 1 + off;
            mat[i][j] = d;
            mat[j][i] = d;
        }
    }
    let mut sizes = vec![1usize; n];
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    // best[c] = (distance, argmin position) over positions > c, ties broken
    // toward the smallest position. Scanning best[] ascending with a strict
    // `<` then reproduces the reference's (distance, a, b) lexicographic
    // pick exactly.
    let mut best: Vec<Option<(f64, usize)>> = (0..n)
        .map(|c| row_min(&mat, &sizes, linkage, n, c, &mut stats))
        .collect();

    let mut m = n;
    while m > 1 {
        // Pick the closest pair.
        let mut pick: Option<(f64, usize, usize)> = None;
        for (c, entry) in best.iter().enumerate().take(m - 1) {
            stats.cells_visited += 1;
            if let Some((d, t)) = *entry {
                if pick.is_none_or(|(pd, _, _)| d < pd) {
                    pick = Some((d, c, t));
                }
            }
        }
        let Some((d, a, b)) = pick else { break };
        if d > threshold {
            break;
        }
        stats.merges += 1;

        // Lance–Williams update: D(a∪b, c) from D(a, c) and D(b, c).
        // Index form: the body reads rows a and b while writing row a and
        // column a, which no single iterator borrow can express.
        #[allow(clippy::needless_range_loop)]
        for c in 0..m {
            if c == a || c == b {
                continue;
            }
            stats.cells_visited += 1;
            let v = match linkage {
                Linkage::Single => mat[a][c].min(mat[b][c]),
                Linkage::Complete => mat[a][c].max(mat[b][c]),
                Linkage::Average => mat[a][c] + mat[b][c],
            };
            mat[a][c] = v;
            mat[c][a] = v;
        }
        sizes[a] += sizes[b];

        // a < b, so removing b leaves index a stable (same bookkeeping as
        // the reference — final cluster indices match, not just partition).
        let merged = clusters.swap_remove(b);
        clusters[a].extend(merged);

        // Mirror the swap_remove in the matrix and side tables: the cluster
        // at the tail position moves into position b.
        let last = m - 1;
        if b != last {
            for row in mat.iter_mut() {
                row[b] = row[last];
            }
        }
        mat.swap_remove(b);
        sizes.swap_remove(b);
        best.swap_remove(b);

        let m_new = m - 1;
        // Repair nearest-neighbor rows. Row a changed wholesale; position b
        // holds a different cluster; other rows only need patching where
        // they referenced a, b, or the moved tail position.
        let mut recompute = vec![a];
        if b < m_new {
            recompute.push(b);
        }
        for (c, slot) in best.iter_mut().enumerate().take(m_new) {
            if c == a || c == b {
                continue;
            }
            let Some((mut d, mut t)) = *slot else {
                if c + 1 < m_new {
                    recompute.push(c);
                }
                continue;
            };
            if t == a || t == b {
                // Its nearest cluster was rewritten or replaced.
                recompute.push(c);
                continue;
            }
            if t == last {
                // Its nearest cluster moved from the tail into position b.
                if b > c {
                    t = b;
                } else {
                    recompute.push(c);
                    continue;
                }
            }
            // Surviving entries other than (c, a) and (c, b) are unchanged,
            // and best[c] never pointed at a removed value, so it remains
            // the tie-correct minimum of the unchanged set. Fold in the two
            // cells that did change.
            if a > c {
                stats.cells_visited += 1;
                let va = cell_distance(&mat, &sizes, linkage, c, a);
                if va < d || (va == d && a < t) {
                    d = va;
                    t = a;
                }
            }
            if b > c && b < m_new {
                stats.cells_visited += 1;
                let vb = cell_distance(&mat, &sizes, linkage, c, b);
                if vb < d || (vb == d && b < t) {
                    d = vb;
                    t = b;
                }
            }
            *slot = Some((d, t));
        }
        for &c in &recompute {
            best[c] = row_min(&mat, &sizes, linkage, m_new, c, &mut stats);
        }
        m = m_new;
    }

    let mut assignment = vec![0usize; n];
    for (c, members) in clusters.iter().enumerate() {
        for &p in members {
            assignment[p] = c;
        }
    }
    (assignment, stats)
}

/// Cluster-to-cluster distance read from one matrix cell.
fn cell_distance(mat: &[Vec<f64>], sizes: &[usize], linkage: Linkage, c: usize, x: usize) -> f64 {
    match linkage {
        Linkage::Average => mat[c][x] / (sizes[c] * sizes[x]) as f64,
        Linkage::Single | Linkage::Complete => mat[c][x],
    }
}

/// Nearest neighbor of row `c` among positions `c+1..m` (ties to the
/// smallest position via the strict `<`).
fn row_min(
    mat: &[Vec<f64>],
    sizes: &[usize],
    linkage: Linkage,
    m: usize,
    c: usize,
    stats: &mut HacStats,
) -> Option<(f64, usize)> {
    let mut cur: Option<(f64, usize)> = None;
    for x in c + 1..m {
        stats.cells_visited += 1;
        let v = cell_distance(mat, sizes, linkage, c, x);
        if cur.is_none_or(|(d, _)| v < d) {
            cur = Some((v, x));
        }
    }
    cur
}

/// The naive seed implementation: every selection round recomputes the
/// distance of every cluster pair from scratch over all member pairs
/// (O(n²) distance lookups per round, O(n³)+ overall). Kept as the golden
/// reference the Lance–Williams path is tested against.
pub fn agglomerative_clusters_reference(
    points: &[Embedding],
    linkage: Linkage,
    distance_threshold: f32,
) -> Vec<usize> {
    agglomerative_clusters_reference_with_stats(points, linkage, distance_threshold).0
}

/// [`agglomerative_clusters_reference`] plus merge-phase work counters.
pub fn agglomerative_clusters_reference_with_stats(
    points: &[Embedding],
    linkage: Linkage,
    distance_threshold: f32,
) -> (Vec<usize>, HacStats) {
    let n = points.len();
    let mut stats = HacStats::default();
    if n == 0 {
        return (Vec::new(), stats);
    }
    // Pairwise cosine distances.
    let mut dist = vec![vec![0.0f32; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            let d = 1.0 - points[i].cosine(&points[j]);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    // Active clusters as member lists.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    loop {
        // Find the closest pair of clusters.
        let mut best: Option<(usize, usize, f32)> = None;
        for a in 0..clusters.len() {
            for b in a + 1..clusters.len() {
                let d = cluster_distance(&clusters[a], &clusters[b], &dist, linkage, &mut stats);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((a, b, d));
                }
            }
        }
        match best {
            Some((a, b, d)) if d <= distance_threshold => {
                stats.merges += 1;
                // a < b, so removing b leaves index a stable.
                let merged = clusters.swap_remove(b);
                clusters[a].extend(merged);
            }
            _ => break,
        }
        if clusters.len() == 1 {
            break;
        }
    }
    let mut assignment = vec![0usize; n];
    for (c, members) in clusters.iter().enumerate() {
        for &m in members {
            assignment[m] = c;
        }
    }
    (assignment, stats)
}

fn cluster_distance(
    a: &[usize],
    b: &[usize],
    dist: &[Vec<f32>],
    linkage: Linkage,
    stats: &mut HacStats,
) -> f32 {
    stats.cells_visited += (a.len() * b.len()) as u64;
    let pairs = a.iter().flat_map(|&i| b.iter().map(move |&j| dist[i][j]));
    match linkage {
        Linkage::Average => {
            let (sum, count) = pairs.fold((0.0f32, 0usize), |(s, c), d| (s + d, c + 1));
            sum / count.max(1) as f32
        }
        Linkage::Single => pairs.fold(f32::INFINITY, f32::min),
        Linkage::Complete => pairs.fold(f32::NEG_INFINITY, f32::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn e(x: f32, y: f32) -> Embedding {
        Embedding::new(vec![x, y])
    }

    /// Seeded random unit-ish embeddings — the golden fixture generator.
    fn fixture(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Embedding::new((0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
            .collect()
    }

    #[test]
    fn merges_nearby_points() {
        // Two tight angular clusters.
        let points = vec![
            e(1.0, 0.0),
            e(0.99, 0.05),
            e(0.98, 0.1),
            e(0.0, 1.0),
            e(0.05, 0.99),
        ];
        let assignment = agglomerative_clusters(&points, Linkage::Average, 0.2);
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_ne!(assignment[0], assignment[3]);
    }

    #[test]
    fn zero_threshold_keeps_singletons() {
        let points = vec![e(1.0, 0.0), e(0.0, 1.0), e(-1.0, 0.0)];
        let assignment = agglomerative_clusters(&points, Linkage::Average, 0.0);
        let distinct: std::collections::HashSet<_> = assignment.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let points = vec![e(1.0, 0.0), e(0.0, 1.0), e(-1.0, 0.0)];
        let assignment = agglomerative_clusters(&points, Linkage::Complete, 10.0);
        assert!(assignment.iter().all(|&c| c == assignment[0]));
    }

    #[test]
    fn linkages_differ_on_chains() {
        // A chain: single-linkage merges it all, complete keeps ends apart.
        let points = vec![e(1.0, 0.0), e(0.9, 0.43), e(0.62, 0.78), e(0.25, 0.97)];
        let single = agglomerative_clusters(&points, Linkage::Single, 0.15);
        let complete = agglomerative_clusters(&points, Linkage::Complete, 0.15);
        let n_clusters = |a: &[usize]| a.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(n_clusters(&single) <= n_clusters(&complete));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(agglomerative_clusters(&[], Linkage::Average, 0.5).is_empty());
        assert_eq!(agglomerative_clusters(&[e(1.0, 0.0)], Linkage::Average, 0.5), vec![0]);
    }

    /// Golden test: the Lance–Williams path yields the exact cluster
    /// indices of the seed implementation — every linkage, a sweep of
    /// thresholds, several seeded fixtures.
    #[test]
    fn matches_reference_on_golden_fixtures() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            for &threshold in &[0.0f32, 0.05, 0.15, 0.3, 0.6, 1.2, 10.0] {
                for seed in 0..4u64 {
                    let points = fixture(40, 8, seed);
                    let fast = agglomerative_clusters(&points, linkage, threshold);
                    let slow = agglomerative_clusters_reference(&points, linkage, threshold);
                    assert_eq!(
                        fast, slow,
                        "mismatch: {linkage:?} threshold={threshold} seed={seed}"
                    );
                }
            }
        }
    }

    /// Duplicate points produce exact distance ties everywhere — the
    /// tie-break order must still match the reference bit-for-bit.
    #[test]
    fn matches_reference_with_exact_ties() {
        let mut points = fixture(10, 4, 7);
        let dupes: Vec<Embedding> = points.to_vec();
        points.extend(dupes);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let fast = agglomerative_clusters(&points, linkage, 0.4);
            let slow = agglomerative_clusters_reference(&points, linkage, 0.4);
            assert_eq!(fast, slow, "tie mismatch for {linkage:?}");
        }
    }

    /// The ops counter proves the rescan is gone: merging n points to one
    /// cluster costs the reference Θ(n³)+ cell visits but Lance–Williams
    /// O(n²)-ish. Deterministic fixture → deterministic counts.
    #[test]
    fn no_per_merge_rescan() {
        let points = fixture(100, 8, 1);
        let (fast_assign, fast) =
            agglomerative_clusters_with_stats(&points, Linkage::Average, 10.0);
        let (slow_assign, slow) =
            agglomerative_clusters_reference_with_stats(&points, Linkage::Average, 10.0);
        assert_eq!(fast_assign, slow_assign);
        assert_eq!(fast.merges, slow.merges);
        assert_eq!(fast.merges, points.len() - 1, "everything merges at 10.0");
        assert!(
            fast.cells_visited * 10 < slow.cells_visited,
            "expected ≥10x fewer cell visits: LW={} reference={}",
            fast.cells_visited,
            slow.cells_visited
        );
        // And the LW merge phase stays within a small multiple of n².
        let n = points.len() as u64;
        assert!(
            fast.cells_visited < 8 * n * n,
            "LW merge phase should be O(n²)-ish, got {}",
            fast.cells_visited
        );
    }

    /// Thread count must not change assignments (the parallel part is the
    /// initial matrix fill).
    #[test]
    fn identical_across_thread_counts() {
        let points = fixture(100, 8, 3);
        // Below the fast-path floor the matrix fill never reaches the pool.
        assert!(points.len() >= 2 * allhands_par::SEQ_FASTPATH_MIN);
        let serial = allhands_par::with_threads(1, || {
            agglomerative_clusters(&points, Linkage::Average, 0.3)
        });
        for threads in [2, 5, 8] {
            let parallel = allhands_par::with_threads(threads, || {
                agglomerative_clusters(&points, Linkage::Average, 0.3)
            });
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    proptest! {
        /// Single/Complete linkage distances stay exact f32 values under
        /// Lance–Williams min/max, so equality with the reference holds for
        /// ANY input, not just golden fixtures.
        #[test]
        fn single_complete_always_match_reference(
            raw in proptest::collection::vec(
                proptest::collection::vec(0.05f32..1.0, 3), 2..24),
            complete in proptest::sample::select(vec![false, true]),
            threshold in 0.0f32..1.5,
        ) {
            let points: Vec<Embedding> =
                raw.into_iter().map(Embedding::new).collect();
            let linkage = if complete { Linkage::Complete } else { Linkage::Single };
            let fast = agglomerative_clusters(&points, linkage, threshold);
            let slow = agglomerative_clusters_reference(&points, linkage, threshold);
            prop_assert_eq!(fast, slow);
        }
    }
}
