//! Property test for the arena scan: the columnar `RowPool` scan behind
//! the index must return *exactly* the hits of the pre-arena reference
//! scan (owned records, per-row `cosine`, full sort) — same ids, same
//! order, same score bits — across random vectors, exact ties, and every
//! k, both untrained (one partition, an exact scan) and trained with
//! `nprobe` covering every partition. This file is the golden before/after
//! equality check for the arena refactor, and the oracle that pins an
//! untrained index to the exact scan.

use allhands_embed::Embedding;
use allhands_vectordb::{IvfIndex, Record, SearchResult};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pre-arena scan, verbatim in spirit: walk owned records, score each
/// with `Embedding::cosine`, full-sort by `(score desc, id asc)`.
fn reference_scan(records: &[Record], query: &Embedding, k: usize) -> Vec<SearchResult> {
    let mut scored: Vec<SearchResult> = records
        .iter()
        .map(|r| SearchResult { id: r.id, score: query.cosine(&r.vector) })
        .collect();
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    scored.truncate(k);
    scored
}

fn assert_same_hits(a: &[SearchResult], b: &[SearchResult], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{ctx}: id order diverged");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score bits diverged at id {}",
            x.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn arena_scan_equals_reference_scan(
        seed in 0u64..u64::MAX,
        n in 1usize..600,
        dims in 1usize..25,
        k in 1usize..40,
        ties in 0usize..6,
        spread in 0.5f32..16.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut records: Vec<Record> = Vec::with_capacity(n + ties);
        for i in 0..n as u64 {
            let v = Embedding::new((0..dims).map(|_| rng.gen_range(-spread..spread)).collect());
            records.push(Record::new(i, v));
        }
        // Exact ties: duplicate existing vectors under fresh ids, so the
        // (score desc, id asc) tie-break is exercised every case.
        for t in 0..ties {
            let src = rng.gen_range(0..records.len());
            records.push(Record::new((n + t) as u64, records[src].vector.clone()));
        }

        // nprobe covers every partition, so the trained search is exact too
        // and checks the per-partition top-k merge.
        let mut untrained = IvfIndex::new(dims, 4);
        for r in &records {
            untrained.insert(r.clone());
        }
        let mut trained = untrained.clone();
        trained.train(4);

        let queries = [
            Embedding::new((0..dims).map(|_| rng.gen_range(-spread..spread)).collect()),
            // A query colliding exactly with a stored row: perfect-score ties.
            records[rng.gen_range(0..records.len())].vector.clone(),
        ];
        for (qi, q) in queries.iter().enumerate() {
            let ctx = format!("seed={seed} n={n} dims={dims} k={k} q{qi}");
            let reference = reference_scan(&records, q, k);
            assert_same_hits(&reference, &untrained.search(q, k), &format!("{ctx} untrained"));
            assert_same_hits(&reference, &trained.search(q, k), &format!("{ctx} trained"));
        }
    }
}
