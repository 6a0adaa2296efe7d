//! Regenerates the design-choice ablations DESIGN.md lists: retrieval shots
//! and exact vs IVF retrieval for ICL classification, HITLR on/off and its
//! rounds for topic modeling, and the QA agent's self-reflection retry
//! budget and plan merge. Each prints the quality the choice buys; the
//! cost side is timed end to end by `allhands-perf`.

use allhands_agent::{AgentConfig, QaAgent};
use allhands_bench::{format_table, save_json};
use allhands_classify::{temporal_split, LabeledExample};
use allhands_core::{AbstractiveTopicModeler, IclClassifier, IclConfig, TopicModelingConfig};
use allhands_datasets::{dataset_frame, generate_n, DatasetKind};
use allhands_llm::SimLlm;
use serde_json::json;

fn main() {
    let llm = SimLlm::gpt4();

    // Ablations 1 and 7: shots K and the retrieval index, accuracy on the
    // first 200 held-out examples of a 70/30 temporal split.
    let records = generate_n(DatasetKind::GoogleStoreApp, 3_000, 42);
    let examples: Vec<LabeledExample> = records
        .iter()
        .map(|r| LabeledExample { text: r.text.clone(), label: r.label.clone() })
        .collect();
    let timestamps: Vec<i64> = records.iter().map(|r| r.timestamp).collect();
    let (train, test) = temporal_split(&examples, &timestamps, 0.7);
    let test = &test[..200.min(test.len())];
    let labels = vec!["informative".to_string(), "non-informative".to_string()];
    let mut icl_rows = Vec::new();
    let mut icl_json = Vec::new();
    // The shots sweep runs on the default IVF index; 10 shots also on the
    // untrained index, an exact scan (the `flat` row).
    for (shots, use_ivf) in [(0, true), (1, true), (5, true), (10, true), (30, true), (10, false)] {
        let config = IclConfig { shots, use_ivf, ..Default::default() };
        let accuracy = IclClassifier::fit(&llm, &train, &labels, config).evaluate(test);
        let index = if use_ivf { "ivf" } else { "flat" };
        icl_rows.push(vec![
            shots.to_string(),
            index.to_string(),
            format!("{:.1}%", accuracy * 100.0),
        ]);
        icl_json.push(json!({ "shots": shots, "index": index, "accuracy": accuracy }));
    }
    println!("Ablations 1, 7: ICL classification accuracy by shots and retrieval index (GPT-4).\n");
    println!("{}", format_table(&["Shots", "Index", "Accuracy"], &icl_rows));

    // Ablations 2 and 3: HITLR off, one round, two rounds.
    let texts: Vec<String> =
        generate_n(DatasetKind::GoogleStoreApp, 600, 42).into_iter().map(|r| r.text).collect();
    let seeds = vec!["bug".to_string(), "crash".to_string(), "feature request".to_string()];
    let mut hitlr_rows = Vec::new();
    let mut hitlr_json = Vec::new();
    for (name, hitlr, rounds) in
        [("off", false, 1usize), ("1 round", true, 1), ("2 rounds", true, 2)]
    {
        let config = TopicModelingConfig { hitlr, rounds, ..Default::default() };
        let out = AbstractiveTopicModeler::new(&llm, config).run(&texts, &seeds);
        hitlr_rows.push(vec![
            name.to_string(),
            out.topic_list.len().to_string(),
            out.reviewer_removed.to_string(),
        ]);
        hitlr_json.push(json!({
            "hitlr": name,
            "topics": out.topic_list.len(),
            "reviewer_removed": out.reviewer_removed,
        }));
    }
    println!("Ablations 2, 3: topic list after HITLR (GPT-4, 600 documents).\n");
    println!("{}", format_table(&["HITLR", "Topics", "Reviewer removed"], &hitlr_rows));

    // Ablations 5 and 6: retry budget and plan merge, on GPT-3.5 — the tier
    // where retries actually fire.
    let frame = dataset_frame(
        DatasetKind::GoogleStoreApp,
        &generate_n(DatasetKind::GoogleStoreApp, 2_000, 42),
    );
    let questions = [
        "What is the average sentiment score across all tweets?",
        "Which top three timezones submitted the most number of tweets?",
        "Identify the top three topics with the fastest increase in mentions from April to May.",
    ];
    let mut agent_rows = Vec::new();
    let mut agent_json = Vec::new();
    for (max_retries, plan_merge) in [(0u32, true), (3, true), (3, false)] {
        let config = AgentConfig { max_retries, plan_merge, ..Default::default() };
        let mut agent = QaAgent::new(SimLlm::gpt35(), frame.clone(), config);
        let failed = questions.iter().filter(|q| agent.ask(q).error.is_some()).count();
        let merge = if plan_merge { "on" } else { "off" };
        agent_rows.push(vec![
            max_retries.to_string(),
            merge.to_string(),
            format!("{failed}/{}", questions.len()),
        ]);
        agent_json.push(json!({
            "max_retries": max_retries,
            "plan_merge": plan_merge,
            "failed": failed,
            "asked": questions.len(),
        }));
    }
    println!("Ablations 5, 6: failed asks by retry budget and plan merge (GPT-3.5).\n");
    println!("{}", format_table(&["Retries", "Plan merge", "Failed asks"], &agent_rows));

    save_json("ablations", &json!({ "icl": icl_json, "hitlr": hitlr_json, "agent": agent_json }));
}
