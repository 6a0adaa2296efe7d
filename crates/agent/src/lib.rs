//! The AllHands QA agent (paper Sec. 3.4): a code-first agent comprising a
//! task planner, a code generator with self-reflection, and a code
//! executor, producing multi-modal responses.
//!
//! Control flow per question (paper Fig. 6):
//!
//! 1. the **planner** decomposes the question into sub-tasks, then reflects
//!    and merges dependent steps into a concise final plan;
//! 2. the **code generator** (an LLM head) turns the task into AQL;
//! 3. the **code executor** (the stateful AQL session) runs it; on error
//!    the generator retries with the exception message, at most
//!    [`AgentConfig::max_retries`] times, after which the planner reports
//!    failure — exactly the paper's ≤3-attempt reflection loop;
//! 4. the planner summarizes execution results into a multi-modal
//!    [`Response`] (text, tables, figures, code), adding template-generated
//!    recommendations for open-ended suggestion questions.
//!
//! Chat history is retained; follow-up questions run in the same session so
//! earlier bindings remain available (the Jupyter-style property the paper
//! gets from its notebook kernel).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod planner;
pub mod response;

pub use planner::{Plan, Planner};
pub use response::{AnswerRecord, Response, ResponseItem};

use allhands_dataframe::DataFrame;
use allhands_llm::{ChatOptions, CodegenRequest, LlmError, LlmErrorKind, SchemaInfo, SimLlm};
use allhands_query::{RtValue, Session, SessionLimits};
use allhands_resilience::{AllHandsError, Head, ResilienceConfig, ResilienceCtx};
use std::sync::Arc;

/// Agent configuration. Resilience is not configured here: a new agent
/// runs its codegen calls under an inert context, and
/// [`QaAgent::set_resilience`] attaches a configured (usually run-wide)
/// one.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Maximum code regeneration attempts after failures (paper: 3).
    pub max_retries: u32,
    /// Generation options passed to the LLM heads.
    pub chat: ChatOptions,
    /// Enable the planner's plan-merge reflection (ablation hook).
    pub plan_merge: bool,
    /// Session sandbox limits.
    pub limits: SessionLimits,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            max_retries: 3,
            chat: ChatOptions::default(),
            plan_merge: true,
            limits: SessionLimits::default(),
        }
    }
}

/// The QA agent: owns the LLM, the execution session, and the chat history.
pub struct QaAgent {
    llm: SimLlm,
    session: Session,
    schema: SchemaInfo,
    config: AgentConfig,
    /// `(question, answer summary)` pairs for follow-up context.
    history: Vec<(String, String)>,
    /// Resilience context every codegen-head call runs under. A new agent
    /// starts with an inert one (no faults injected);
    /// [`set_resilience`](Self::set_resilience) replaces it.
    resilience: Arc<ResilienceCtx>,
}

impl QaAgent {
    /// Build an agent over a structured feedback frame (bound as
    /// `feedback` in the execution session).
    pub fn new(llm: SimLlm, feedback: DataFrame, config: AgentConfig) -> Self {
        let schema = SchemaInfo::from_frame(&feedback);
        let mut session = Session::new(config.limits);
        session.bind_frame("feedback", feedback);
        let resilience = Arc::new(ResilienceCtx::new(ResilienceConfig::default()));
        QaAgent { llm, session, schema, config, history: Vec::new(), resilience }
    }

    /// Replace the structured feedback frame — the incremental ingestion
    /// path grows the frame batch by batch and rebinds it here after each
    /// one. The schema the planner sees is re-derived; session plugins,
    /// shown values, and chat history survive.
    pub fn set_frame(&mut self, feedback: DataFrame) {
        self.schema = SchemaInfo::from_frame(&feedback);
        self.session.bind_frame("feedback", feedback);
    }

    /// Share a pipeline-wide resilience context (replacing the agent's inert
    /// default), so breaker state and degradation notes are common across
    /// stages. The context's recorder is propagated to the agent's LLM so
    /// head-level call counts land in the same report.
    pub fn set_resilience(&mut self, ctx: Arc<ResilienceCtx>) {
        self.llm.set_recorder(ctx.recorder().clone());
        self.session.set_recorder(ctx.recorder().clone());
        self.resilience = ctx;
    }

    /// The resilience context in use (shared, or the inert default).
    pub fn resilience(&self) -> &Arc<ResilienceCtx> {
        &self.resilience
    }

    /// Register a custom analysis plugin, available to generated code —
    /// the paper's "self-defined plugins" extension point.
    pub fn register_plugin(&mut self, name: &str, f: allhands_query::plugins::PluginFn) {
        self.session.register_plugin(name, f);
    }

    /// Chat history (question, summary) pairs.
    pub fn history(&self) -> &[(String, String)] {
        &self.history
    }

    /// Answer one question.
    pub fn ask(&mut self, question: &str) -> Response {
        let rec = self.resilience.recorder().clone();
        rec.incr("qa.questions");

        // --- 1. plan -------------------------------------------------------
        let planner = Planner::new(self.config.plan_merge);
        let plan = {
            let _plan = rec.span("plan");
            planner.plan(question)
        };

        // --- 2+3. generate / execute / reflect ------------------------------
        let head = self.llm.codegen_head();
        let ctx = Arc::clone(&self.resilience);
        let mut error_feedback: Option<String> = None;
        let mut last_error = String::new();
        let mut code = String::new();
        let mut attempts = 0u32;
        let mut cell = None;
        let mut unavailable: Option<AllHandsError> = None;
        while attempts <= self.config.max_retries {
            let k = attempts;
            let request = CodegenRequest {
                question: question.to_string(),
                schema: self.schema.clone(),
                error_feedback: error_feedback.clone(),
                attempt: attempts,
            };
            // Generation runs under the codegen head's breaker and retry
            // policy: injected transient faults are retried there; genuine
            // generation failures (permanent) fall through to the agent's
            // own reflection loop below.
            let generated = {
                let _codegen = rec.span(&format!("codegen[{k}]"));
                ctx.call(Head::Codegen, |_| {
                    head.generate(&request, &self.config.chat)
                        .map_err(|m| AllHandsError::Llm(LlmError::new(LlmErrorKind::Generation, m)))
                })
            };
            code = match generated {
                Ok(c) => c,
                Err(
                    err @ (AllHandsError::BreakerOpen { .. }
                    | AllHandsError::RetriesExhausted { .. }),
                ) => {
                    // The head is *unavailable*, not merely producing bad
                    // code: stop hammering it and degrade gracefully.
                    unavailable = Some(err);
                    break;
                }
                Err(err) => {
                    // Feed the generation error back into the next attempt,
                    // the same reflection the executor errors get.
                    let msg = match &err {
                        AllHandsError::Llm(e) => e.message.clone(),
                        other => other.to_string(),
                    };
                    last_error = msg.clone();
                    error_feedback = Some(msg);
                    let _reflect = rec.span(&format!("reflect[{k}]"));
                    rec.incr("qa.reflections");
                    attempts += 1;
                    continue;
                }
            };
            let result = {
                let _execute = rec.span(&format!("execute[{k}]"));
                self.session.execute(&code)
            };
            attempts += 1;
            match &result.error {
                None => {
                    cell = Some(result);
                    break;
                }
                Some(err) => {
                    last_error = err.clone();
                    error_feedback = Some(err.clone());
                    let _reflect = rec.span(&format!("reflect[{k}]"));
                    rec.incr("qa.reflections");
                }
            }
        }
        rec.add("qa.attempts", attempts as u64);

        if let Some(err) = unavailable {
            rec.incr("qa.degraded_answers");
            return self.degraded_response(question, &plan, err, attempts);
        }

        let Some(cell) = cell else {
            rec.incr("qa.failed_answers");
            // The CG notifies the planner of its failure (paper Sec. 3.4.2).
            let summary = format!(
                "I was unable to produce working analysis code for this question after {attempts} attempts. Last error: {last_error}"
            );
            self.history.push((question.to_string(), summary.clone()));
            return Response {
                items: vec![ResponseItem::Text(summary), ResponseItem::Code(code)],
                shown: Vec::new(),
                plan: plan.final_steps.clone(),
                code: String::new(),
                attempts,
                error: Some(last_error),
                degradation: Vec::new(),
            };
        };

        // --- 4. summarize ----------------------------------------------------
        // Weaker models sometimes dump results without a narrated summary —
        // the organization failure the readability rubric penalizes.
        let narration_slip =
            self.llm.spec().slips("narration", question, self.llm.spec().plan_slip * 0.9);
        let mut items: Vec<ResponseItem> = Vec::new();
        let summary = planner.summarize(question, &cell.shown);
        if !narration_slip {
            items.push(ResponseItem::Text(summary.clone()));
        }
        for value in &cell.shown {
            match value {
                RtValue::Scalar(v) => items.push(ResponseItem::Text(format!("Result: {v}"))),
                RtValue::Frame(f) => items.push(ResponseItem::Table(f.to_table_string(15))),
                RtValue::Figure(fig) => items.push(ResponseItem::Figure(fig.clone())),
                RtValue::List(_) => items.push(ResponseItem::Text(value.render())),
            }
        }
        items.push(ResponseItem::Code(code.clone()));

        self.history.push((question.to_string(), summary));
        Response {
            items,
            shown: cell.shown,
            plan: plan.final_steps,
            code,
            attempts,
            error: None,
            degradation: Vec::new(),
        }
    }

    /// A structured partial answer when the codegen head is unavailable
    /// (breaker open or retries exhausted): the plan is reported, the
    /// degradation is explicit, and `error` stays `None` — a degraded
    /// response is still a response.
    fn degraded_response(
        &mut self,
        question: &str,
        plan: &Plan,
        err: AllHandsError,
        attempts: u32,
    ) -> Response {
        let note = format!("code generation unavailable ({}): {err}", err.label());
        self.resilience.note_degradation("qa-agent", note.clone());
        let summary = format!(
            "Partial answer: the analysis backend is temporarily unavailable ({}). \
             The planned analysis steps are listed below; retry later for computed results.",
            err.label()
        );
        let mut items = vec![ResponseItem::Text(summary.clone())];
        if !plan.final_steps.is_empty() {
            let steps = plan
                .final_steps
                .iter()
                .enumerate()
                .map(|(i, s)| format!("{}. {s}", i + 1))
                .collect::<Vec<_>>()
                .join("\n");
            items.push(ResponseItem::Text(format!("Planned steps:\n{steps}")));
        }
        self.history.push((question.to_string(), summary));
        Response {
            items,
            shown: Vec::new(),
            plan: plan.final_steps.clone(),
            code: String::new(),
            attempts,
            error: None,
            degradation: vec![note],
        }
    }

    /// Package the answer just produced by [`ask`](Self::ask) for
    /// `question` into a journal-serializable [`AnswerRecord`]. Must be
    /// called before the next `ask` (the record captures the latest
    /// history entry as the answer's summary).
    pub fn record_answer(&self, question: &str, response: &Response) -> AnswerRecord {
        let summary = self.history.last().map(|(_, s)| s.clone()).unwrap_or_default();
        AnswerRecord {
            question: question.to_string(),
            summary,
            items: response.items.clone(),
            plan: response.plan.clone(),
            code: response.code.clone(),
            attempts: response.attempts,
            error: response.error.clone(),
            degradation: response.degradation.clone(),
        }
    }

    /// Replay a journaled answer without any LLM call: re-execute the
    /// recorded code (restoring the session bindings and shown values —
    /// AQL execution is pure and deterministic), push the history pair,
    /// and rebuild the [`Response`]. The restored response renders
    /// byte-identically to the original, since rendering depends only on
    /// `items`.
    pub fn restore_answer(&mut self, record: AnswerRecord) -> Response {
        self.resilience.recorder().incr("qa.replayed_answers");
        let shown = if record.code.is_empty() {
            Vec::new()
        } else {
            let result = self.session.execute(&record.code);
            if result.error.is_none() { result.shown } else { Vec::new() }
        };
        self.history.push((record.question.clone(), record.summary.clone()));
        Response {
            items: record.items,
            shown,
            plan: record.plan,
            code: record.code,
            attempts: record.attempts,
            error: record.error,
            degradation: record.degradation,
        }
    }

    /// Direct access to the execution session (tests, judges).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allhands_dataframe::{CivilDateTime, Column};

    fn frame() -> DataFrame {
        let base = CivilDateTime::date(2023, 4, 10).to_epoch();
        DataFrame::new(vec![
            Column::from_strs("text", &[
                "WhatsApp crashes on startup",
                "love the WhatsApp update",
                "Windows is slow",
                "ok cool",
            ]),
            Column::from_strs("label", &["informative", "informative", "informative", "non-informative"]),
            Column::from_f64s("sentiment", &[-0.8, 0.9, -0.5, 0.0]),
            Column::from_str_lists("topics", vec![
                vec!["crash".into()],
                vec!["praise".into()],
                vec!["performance issue".into()],
                vec!["chitchat".into()],
            ]),
            Column::from_datetimes("timestamp", &[base, base + 86_400, base + 2 * 86_400, base + 3 * 86_400]),
            Column::from_i64s("text_len", &[27, 24, 15, 7]),
            Column::from_strs("product", &["WhatsApp", "WhatsApp", "Windows", "Android"]),
        ])
        .unwrap()
    }

    #[test]
    fn answers_simple_count_question() {
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
        let r = agent.ask("What is the average sentiment score across all tweets?");
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(r.items.iter().any(|i| matches!(i, ResponseItem::Text(_))));
        assert!(r.items.iter().any(|i| matches!(i, ResponseItem::Code(_))));
        assert!(!r.plan.is_empty());
        assert_eq!(agent.history().len(), 1);
    }

    #[test]
    fn figure_question_yields_figure_item() {
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
        let r = agent.ask("Draw a issue river for the top 7 topics about 'WhatsApp' product.");
        assert!(r.error.is_none(), "{:?}", r.error);
        assert!(
            r.items.iter().any(|i| matches!(i, ResponseItem::Figure(_))),
            "no figure in {:?}",
            r.items.iter().map(|i| i.kind()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn suggestion_question_gets_recommendations() {
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
        let r = agent.ask("Based on the tweets, what action can be done to improve Android?");
        assert!(r.error.is_none(), "{:?}", r.error);
        let text = r
            .items
            .iter()
            .filter_map(|i| match i {
                ResponseItem::Text(t) => Some(t.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.to_lowercase().contains("suggest") || text.contains("1."), "{text}");
    }

    #[test]
    fn history_supports_followups() {
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
        agent.ask("How many tweets mention 'WhatsApp'?");
        agent.ask("What is the average sentiment score across all tweets?");
        assert_eq!(agent.history().len(), 2);
    }

    #[test]
    fn chaos_yields_partial_or_full_answers_never_panics() {
        let run = |seed: u64| {
            let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
            agent.set_resilience(Arc::new(ResilienceCtx::new(ResilienceConfig::chaos(seed, 0.5))));
            let questions = [
                "How many tweets mention 'WhatsApp'?",
                "What is the average sentiment score across all tweets?",
                "Draw a issue river for the top 7 topics about 'WhatsApp' product.",
            ];
            let mut summaries = Vec::new();
            for q in questions {
                let r = agent.ask(q);
                // Degradation, not failure: either a computed answer or an
                // explicitly-noted partial one.
                if r.degradation.is_empty() {
                    assert!(r.error.is_none(), "{:?}", r.error);
                } else {
                    assert!(r.error.is_none(), "degraded answers must not also error");
                    assert!(r.text_content().contains("Partial answer"), "{}", r.text_content());
                }
                summaries.push(r.render());
            }
            summaries
        };
        // Deterministic across runs with the same seed.
        assert_eq!(run(21), run(21));
    }

    #[test]
    fn breaker_open_returns_partial_response() {
        use allhands_resilience::BreakerState;
        // Certain fault rate: every codegen attempt faults, so the first
        // questions exhaust retries and eventually open the breaker.
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
        agent.set_resilience(Arc::new(ResilienceCtx::new(ResilienceConfig::chaos(1, 1.0))));
        for _ in 0..4 {
            let r = agent.ask("How many tweets mention 'WhatsApp'?");
            assert!(r.error.is_none());
            assert!(!r.degradation.is_empty(), "all-fault run must degrade");
            assert!(r.degradation[0].contains("code generation unavailable"), "{:?}", r.degradation);
        }
        assert_eq!(agent.resilience().breaker_state(Head::Codegen), BreakerState::Open);
        let r = agent.ask("What is the average sentiment score across all tweets?");
        assert!(r.degradation.iter().any(|n| n.contains("breaker-open")), "{:?}", r.degradation);
    }

    #[test]
    fn custom_plugin_is_callable() {
        let mut agent = QaAgent::new(SimLlm::gpt4(), frame(), AgentConfig::default());
        agent.register_plugin(
            "row_count_plus_one",
            Box::new(|args| {
                let f = match args.into_iter().next() {
                    Some(RtValue::Frame(f)) => f,
                    _ => return Err(allhands_query::QueryError::runtime("need frame")),
                };
                Ok(RtValue::Scalar(allhands_dataframe::Value::Int(f.n_rows() as i64 + 1)))
            }),
        );
        let result = agent.session_mut().execute("show(row_count_plus_one(feedback))");
        assert!(result.error.is_none());
    }
}
