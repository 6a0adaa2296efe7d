//! Reproducibility contract (paper Sec. 5.1): with temperature at 0
//! and fixed seeds, every stage of AllHands is bit-for-bit deterministic.

use allhands::agent::{AgentConfig, QaAgent};
use allhands::classify::LabeledExample;
use allhands::core::{AbstractiveTopicModeler, IclClassifier, IclConfig, TopicModelingConfig};
use allhands::datasets::{dataset_frame, generate_n, DatasetKind};
use allhands::llm::{ChatOptions, SimLlm};

#[test]
fn generation_is_deterministic() {
    let a = generate_n(DatasetKind::MSearch, 200, 99);
    let b = generate_n(DatasetKind::MSearch, 200, 99);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.text, y.text);
        assert_eq!(x.label, y.label);
        assert_eq!(x.timestamp, y.timestamp);
        assert_eq!(x.gold_topics, y.gold_topics);
    }
}

#[test]
fn classification_is_deterministic_at_temperature_zero() {
    let records = generate_n(DatasetKind::GoogleStoreApp, 300, 4);
    let pool: Vec<LabeledExample> = records
        .iter()
        .take(150)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let labels = vec!["informative".to_string(), "non-informative".to_string()];
    let llm = SimLlm::gpt4();
    let a = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default());
    let b = IclClassifier::fit(&llm, &pool, &labels, IclConfig::default());
    for r in records.iter().skip(150).take(80) {
        assert_eq!(a.classify(&r.text), b.classify(&r.text), "on {:?}", r.text);
    }
}

#[test]
fn temperature_increases_slip_variability() {
    // Not a determinism test per se: temperature scales the deterministic
    // slip rate, so a hot model must disagree with the cold one somewhere.
    let records = generate_n(DatasetKind::GoogleStoreApp, 400, 4);
    let pool: Vec<LabeledExample> = records
        .iter()
        .take(100)
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let labels = vec!["informative".to_string(), "non-informative".to_string()];
    let llm = SimLlm::gpt35();
    let cold = IclClassifier::fit(
        &llm,
        &pool,
        &labels,
        IclConfig { chat: ChatOptions { temperature: 0.0 }, ..Default::default() },
    );
    let hot = IclClassifier::fit(
        &llm,
        &pool,
        &labels,
        IclConfig { chat: ChatOptions { temperature: 2.5 }, ..Default::default() },
    );
    let disagreements = records
        .iter()
        .skip(100)
        .filter(|r| cold.classify(&r.text) != hot.classify(&r.text))
        .count();
    assert!(disagreements > 0, "temperature had no effect");
}

#[test]
fn topic_modeling_is_deterministic() {
    let records = generate_n(DatasetKind::ForumPost, 150, 6);
    let texts: Vec<String> = records.iter().map(|r| r.text.clone()).collect();
    let llm = SimLlm::gpt4();
    let seeds = vec!["crash".to_string(), "feature request".to_string()];
    let run = || {
        AbstractiveTopicModeler::new(&llm, TopicModelingConfig::default()).run(&texts, &seeds)
    };
    let a = run();
    let b = run();
    assert_eq!(a.doc_topics, b.doc_topics);
    assert_eq!(a.topic_list, b.topic_list);
    assert_eq!(a.reviewer_removed, b.reviewer_removed);
}

#[test]
fn agent_answers_are_deterministic() {
    let records = generate_n(DatasetKind::GoogleStoreApp, 400, 12);
    let frame = dataset_frame(DatasetKind::GoogleStoreApp, &records);
    let ask = |q: &str| {
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame.clone(), AgentConfig::default());
        let r = agent.ask(q);
        (r.code.clone(), r.render())
    };
    for q in [
        "Which topic appears most frequently?",
        "What percentage of the tweets that mentioned 'Windows 10' were positive?",
        "Draw an issue river for top 7 topics.",
    ] {
        assert_eq!(ask(q), ask(q), "non-deterministic answer for {q:?}");
    }
}
