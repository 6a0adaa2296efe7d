//! Property-based invariants on the learning substrates: topic models,
//! clustering, embeddings, and the vector database.

use allhands::embed::{EmbedderConfig, Embedding, SentenceEmbedder};
use allhands::topics::corpus::Corpus;
use allhands::topics::lda::{fit_lda, LdaConfig};
use allhands::topics::{agglomerative_clusters, Linkage};
use allhands::vectordb::{kmeans, IvfIndex, Record};
use proptest::prelude::*;

fn arb_texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-h]{2,5}", 1..8).prop_map(|ws| ws.join(" ")),
        4..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lda_conserves_token_mass(texts in arb_texts(), k in 2usize..6) {
        let corpus = Corpus::build(&texts, 1, 1.0);
        let total: usize = corpus.docs.iter().map(Vec::len).sum();
        let model = fit_lda(&corpus, &LdaConfig { k, iterations: 5, ..Default::default() });
        prop_assert_eq!(model.total_tokens() as usize, total);
        // Posterior is a distribution for every doc.
        for d in 0..corpus.n_docs() {
            let dist = model.doc_distribution(d);
            prop_assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(dist.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn lda_output_indices_in_range(texts in arb_texts()) {
        let corpus = Corpus::build(&texts, 1, 1.0);
        let model = fit_lda(&corpus, &LdaConfig { k: 3, iterations: 5, ..Default::default() });
        let out = model.output(&corpus, 5);
        prop_assert_eq!(out.doc_topic.len(), corpus.n_docs());
        for t in out.doc_topic.iter().flatten() {
            prop_assert!(*t < out.n_topics());
        }
        for (conf, topic) in out.doc_confidence.iter().zip(&out.doc_topic) {
            prop_assert!((0.0..=1.0).contains(conf));
            if topic.is_none() {
                prop_assert_eq!(*conf, 0.0);
            }
        }
    }

    #[test]
    fn kmeans_assignments_valid(points in proptest::collection::vec(
        (0.0f32..10.0, 0.0f32..10.0), 3..40,
    ), k in 1usize..5) {
        let embeddings: Vec<Embedding> = points
            .iter()
            .map(|&(x, y)| Embedding::new(vec![x, y]))
            .collect();
        let refs: Vec<&Embedding> = embeddings.iter().collect();
        let result = kmeans(&refs, k, 10, 3);
        prop_assert_eq!(result.assignments.len(), points.len());
        for &a in &result.assignments {
            prop_assert!(a < result.centroids.len());
        }
        prop_assert!(result.inertia >= 0.0);
    }

    #[test]
    fn hac_partitions_all_points(points in proptest::collection::vec(
        (-1.0f32..1.0, -1.0f32..1.0), 0..25,
    ), threshold in 0.0f32..1.5) {
        let embeddings: Vec<Embedding> = points
            .iter()
            .map(|&(x, y)| Embedding::new(vec![x, y]))
            .collect();
        let assignment = agglomerative_clusters(&embeddings, Linkage::Average, threshold);
        prop_assert_eq!(assignment.len(), embeddings.len());
        if !assignment.is_empty() {
            let max = *assignment.iter().max().unwrap();
            // Cluster ids are dense 0..=max.
            for c in 0..=max {
                prop_assert!(assignment.contains(&c), "missing cluster id {c}");
            }
        }
    }

    #[test]
    fn embeddings_unit_or_zero(text in "\\PC{0,80}") {
        let e = SentenceEmbedder::new(EmbedderConfig::default());
        let v = e.embed(&text);
        let n = v.norm();
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4, "norm {n}");
        // Cosine with itself is 1 (or 0 for the zero vector).
        let c = v.cosine(&v);
        prop_assert!(c == 0.0 || (c - 1.0).abs() < 1e-4);
    }

    #[test]
    fn flat_index_search_sorted_and_bounded(
        vecs in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, 4), 1..40,
        ),
        k in 1usize..10,
    ) {
        // Never trained, so every search is an exact scan.
        let mut index = IvfIndex::new(4, 1);
        for (i, v) in vecs.iter().enumerate() {
            index.insert(Record::new(i as u64, Embedding::new(v.clone())));
        }
        let query = Embedding::new(vecs[0].clone());
        let hits = index.search(&query, k);
        prop_assert!(hits.len() <= k.min(vecs.len()));
        for pair in hits.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
        for h in &hits {
            prop_assert!((-1.0..=1.0).contains(&h.score));
        }
    }

    #[test]
    fn ivf_recall_never_empty_after_training(
        n in 20usize..120,
        nprobe in 1usize..6,
    ) {
        let mut index = IvfIndex::new(3, nprobe);
        for i in 0..n as u64 {
            let x = (i as f32 * 0.37).sin();
            let y = (i as f32 * 0.17).cos();
            let mut v = Embedding::new(vec![x, y, 0.5]);
            v.normalize();
            index.insert(Record::new(i, v));
        }
        index.train(8);
        prop_assert_eq!(index.len(), n);
        let mut q = Embedding::new(vec![0.3, 0.4, 0.5]);
        q.normalize();
        let hits = index.search(&q, 5);
        prop_assert!(!hits.is_empty());
    }
}
