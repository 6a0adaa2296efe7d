//! The code-generation head: natural-language questions → AQL programs
//! (the paper's Code Generator, Sec. 3.4.2).
//!
//! The head is a semantic parser: it extracts slots (quoted entities,
//! months, top-k numbers, thresholds) from the question, resolves them
//! against the table schema (which carries sample values, like the
//! dataframe preview a real CG sees in its prompt), picks an intent from a
//! rule inventory, and emits an AQL program.
//!
//! Tier differences are injected as deterministic *plan slips*: the weaker
//! model sometimes drops a filter, flips a sort, truncates a multi-step
//! program, misspells a column (a runtime error the self-reflection loop
//! can repair), or forgets a chart title. Slips that cause execution errors
//! are repaired on retry when error feedback is provided; silent slips
//! persist — matching the paper's observation that GPT-3.5 "overlooks
//! certain details during the analysis process".

use crate::model::{ChatOptions, ModelSpec};
use allhands_dataframe::{ColumnData, DataFrame};
use std::collections::HashMap;

/// Schema information the generator conditions on (column names, dtypes,
/// and sample values of categorical columns).
#[derive(Debug, Clone, Default)]
pub struct SchemaInfo {
    /// `(name, dtype)` pairs in column order.
    pub columns: Vec<(String, String)>,
    /// Distinct sample values per categorical (Str/StrList) column.
    pub sample_values: HashMap<String, Vec<String>>,
}

impl SchemaInfo {
    /// Collect schema + up to 40 distinct values per `Str` column and 60
    /// distinct items per `StrList` column, in first-appearance order with
    /// nulls skipped, from a frame (the "dataframe preview" in the CG
    /// prompt).
    pub fn from_frame(frame: &DataFrame) -> Self {
        let mut columns = Vec::new();
        let mut sample_values = HashMap::new();
        for col in frame.columns() {
            columns.push((col.name().to_string(), format!("{:?}", col.dtype())));
            let sample = match col.data() {
                ColumnData::Str(cells) => first_distinct(cells.iter().flatten(), 40),
                ColumnData::StrList(lists) => first_distinct(lists.iter().flatten().flatten(), 60),
                _ => continue,
            };
            sample_values.insert(col.name().to_string(), sample);
        }
        SchemaInfo { columns, sample_values }
    }

    /// Does the schema have this column?
    pub fn has(&self, name: &str) -> bool {
        self.columns.iter().any(|(n, _)| n == name)
    }

    /// Which column (if any) holds a categorical value matching `phrase`
    /// (normalized, singular/plural-tolerant)?
    fn resolve_value(&self, phrase: &str) -> Option<(String, String)> {
        let norm = normalize_phrase(phrase);
        // Column priority: topics first (richest), then other categoricals.
        let mut names: Vec<&String> = self.sample_values.keys().collect();
        names.sort_by_key(|n| if *n == "topics" { 0 } else { 1 });
        for name in names {
            for v in &self.sample_values[name] {
                if normalize_phrase(v) == norm {
                    return Some((name.clone(), v.clone()));
                }
            }
        }
        None
    }
}

/// The first `cap` distinct values of `cells`, in first-appearance order.
/// Cells are compared by reference; only a value that joins the sample is
/// cloned.
fn first_distinct<'a>(cells: impl Iterator<Item = &'a String>, cap: usize) -> Vec<String> {
    let mut vals: Vec<String> = Vec::new();
    for s in cells {
        if !vals.contains(s) {
            vals.push(s.clone());
            if vals.len() >= cap {
                break;
            }
        }
    }
    vals
}

fn normalize_phrase(s: &str) -> String {
    let lowered = s.to_lowercase();
    let trimmed = lowered.trim();
    trimmed.strip_suffix('s').unwrap_or(trimmed).to_string()
}

/// A code-generation request.
#[derive(Debug, Clone)]
pub struct CodegenRequest {
    /// The user's question (or the planner's sub-task).
    pub question: String,
    /// Schema of the bound `feedback` frame.
    pub schema: SchemaInfo,
    /// Error message from the previous execution attempt, if retrying.
    pub error_feedback: Option<String>,
    /// 0-based attempt index.
    pub attempt: u32,
}

/// The code generation head.
pub struct CodegenHead<'a> {
    spec: &'a ModelSpec,
    rec: allhands_obs::Recorder,
}

impl<'a> CodegenHead<'a> {
    /// Construct from a model spec.
    pub fn new(spec: &'a ModelSpec) -> Self {
        CodegenHead { spec, rec: allhands_obs::Recorder::disabled() }
    }

    /// Attach a metrics recorder (counts `llm.codegen.calls`).
    pub fn with_recorder(mut self, rec: allhands_obs::Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Generate an AQL program for the request.
    pub fn generate(&self, req: &CodegenRequest, opts: &ChatOptions) -> Result<String, String> {
        self.rec.incr("llm.codegen.calls");
        let program = build_program(&req.question, &req.schema)?;
        Ok(self.corrupt(program, req, opts))
    }

    /// Apply the tier's plan slips. Deterministic per (spec, question).
    fn corrupt(&self, program: String, req: &CodegenRequest, opts: &ChatOptions) -> String {
        let rate = self.spec.plan_slip * opts.noise_scale();
        if !self.spec.slips("codegen", &req.question, rate) {
            return program;
        }
        let first = choose_slip(self.spec, &req.question);
        // The column-misspelling slip causes a runtime error; with error
        // feedback in hand the model repairs it (self-reflection works for
        // loud failures).
        if first == SlipKind::MisspellColumn && (req.attempt > 0 || req.error_feedback.is_some()) {
            return program;
        }
        // Fall through the slip kinds until one actually alters the program
        // (a model that slips, slips *somewhere*).
        let all = [
            SlipKind::DropFilter,
            SlipKind::FlipSort,
            SlipKind::WrongHead,
            SlipKind::WrongAggregation,
            SlipKind::MisspellColumn,
            SlipKind::ForgetTitle,
            SlipKind::TruncateProgram,
        ];
        let start = all.iter().position(|&k| k == first).unwrap_or(0);
        for offset in 0..all.len() {
            let kind = all[(start + offset) % all.len()];
            if kind == SlipKind::MisspellColumn
                && (req.attempt > 0 || req.error_feedback.is_some())
            {
                continue;
            }
            let corrupted = apply_slip(kind, program.clone(), &req.schema);
            if corrupted != program {
                return corrupted;
            }
        }
        program
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlipKind {
    DropFilter,
    FlipSort,
    WrongHead,
    WrongAggregation,
    MisspellColumn,
    ForgetTitle,
    TruncateProgram,
}

fn choose_slip(spec: &ModelSpec, question: &str) -> SlipKind {
    let h = allhands_embed::hash64(question) ^ spec.seed;
    match h % 7 {
        0 => SlipKind::DropFilter,
        1 => SlipKind::FlipSort,
        2 => SlipKind::WrongHead,
        3 => SlipKind::WrongAggregation,
        4 => SlipKind::MisspellColumn,
        5 => SlipKind::ForgetTitle,
        _ => SlipKind::TruncateProgram,
    }
}

fn apply_slip(kind: SlipKind, program: String, schema: &SchemaInfo) -> String {
    match kind {
        SlipKind::DropFilter => {
            // Remove the first `.filter(...)` call (balanced parens).
            remove_first_call(&program, ".filter(")
        }
        SlipKind::FlipSort => {
            if program.contains("\"desc\"") {
                program.replacen("\"desc\"", "\"asc\"", 1)
            } else {
                program.replacen("\"asc\"", "\"desc\"", 1)
            }
        }
        SlipKind::WrongHead => {
            // head(k) -> head(k+2): extra rows, mildly wrong.
            if let Some(pos) = program.find(".head(") {
                let rest = &program[pos + 6..];
                if let Some(end) = rest.find(')') {
                    if let Ok(k) = rest[..end].trim().parse::<i64>() {
                        return format!(
                            "{}.head({}){}",
                            &program[..pos],
                            k + 2,
                            &rest[end + 1..]
                        );
                    }
                }
            }
            program
        }
        SlipKind::WrongAggregation => {
            // mean(...) -> sum(...): a silently wrong statistic.
            if program.contains("mean(") {
                program.replacen("mean(", "sum(", 1)
            } else if program.contains(".count()") {
                program.replacen(".count()", ".nunique(\"text\")", 1)
            } else {
                program
            }
        }
        SlipKind::MisspellColumn => {
            // Misspell the first quoted column name that appears; if none,
            // misspell the frame binding itself. Both are loud runtime
            // errors the reflection loop can repair.
            for (name, _) in &schema.columns {
                let quoted = format!("\"{name}\"");
                if program.contains(&quoted) {
                    return program.replacen(&quoted, &format!("\"{name}_col\""), 1);
                }
            }
            program.replacen("feedback.", "feedback_df.", 1)
        }
        SlipKind::ForgetTitle => {
            // Blank the last string argument of chart calls (the title).
            for chart in ["bar_chart", "line_chart", "pie_chart", "grouped_bar_chart", "histogram"] {
                if let Some(start) = program.find(chart) {
                    // Find the call's own closing paren (balanced — the
                    // first argument may contain nested calls).
                    if let Some(close) = balanced_close(&program[start..]) {
                        let call = &program[start..start + close];
                        if let Some(q2) = call.rfind('"') {
                            if let Some(q1) = call[..q2].rfind('"') {
                                let mut out = String::new();
                                out.push_str(&program[..start + q1 + 1]);
                                out.push_str(&program[start + q2..]);
                                return out;
                            }
                        }
                    }
                }
            }
            program
        }
        SlipKind::TruncateProgram => {
            // Drop the final statement if there are several (incomplete
            // multi-part answers).
            let stmts: Vec<&str> = program.split(";\n").collect();
            if stmts.len() > 1 {
                stmts[..stmts.len() - 1].join(";\n")
            } else {
                program
            }
        }
    }
}

/// Offset of the closing paren matching the first `(` in `s`.
fn balanced_close(s: &str) -> Option<usize> {
    let open = s.find('(')?;
    let mut depth = 0usize;
    for (i, b) in s.bytes().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Remove the first `needle(...)` span with balanced parentheses.
fn remove_first_call(program: &str, needle: &str) -> String {
    let Some(start) = program.find(needle) else {
        return program.to_string();
    };
    let open = start + needle.len() - 1; // index of '('
    let bytes = program.as_bytes();
    let mut depth = 0usize;
    let mut end = open;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            _ => {}
        }
    }
    format!("{}{}", &program[..start], &program[end + 1..])
}

// ===========================================================================
// Slot extraction
// ===========================================================================

/// A filter resolved from the question.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    /// `column == "value"` (categorical equality).
    Eq(String, String),
    /// `has_topic(topics, "value")`.
    Topic(String),
    /// `contains(text_col, "phrase")` (possibly expanded to synonyms).
    Mention(Vec<String>),
}

struct Slots {
    filters: Vec<Slot>,
    months: Vec<u32>,
    top_k: Option<usize>,
    threshold: Option<i64>,
    quoted: Vec<String>,
}

/// Quoted phrases in order ('single' or "double" quotes).
fn quoted_phrases(q: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = q.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '\'' || chars[i] == '"' {
            let quote = chars[i];
            // An opening quote has a word character after it and no word
            // character before it — this skips both genitive apostrophes
            // ("posts' content") and contractions ("don't").
            let preceded_by_word = i > 0 && chars[i - 1].is_alphanumeric();
            if !preceded_by_word && i + 1 < chars.len() && chars[i + 1].is_alphanumeric() {
                // Find closing quote where previous char is word-ish.
                let mut j = i + 1;
                while j < chars.len() {
                    if chars[j] == quote {
                        break;
                    }
                    j += 1;
                }
                if j < chars.len() && j > i + 1 {
                    let phrase: String = chars[i + 1..j].iter().collect();
                    // Heuristic: apostrophe-s genitives ("tweets' content")
                    // are not quotes; require the phrase not to start with
                    // "s " remnants.
                    if !phrase.starts_with("s ") && phrase.len() <= 60 {
                        out.push(phrase);
                        i = j + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

const MONTHS: [(&str, u32); 12] = [
    ("january", 1), ("february", 2), ("march", 3), ("april", 4), ("may", 5),
    ("june", 6), ("july", 7), ("august", 8), ("september", 9), ("october", 10),
    ("november", 11), ("december", 12),
];

/// Does `word` occur as a whole word in `text`? Returns its position.
fn find_word(text: &str, word: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(rel) = text[start..].find(word) {
        let pos = start + rel;
        let before_ok = pos == 0
            || !text[..pos].chars().next_back().is_some_and(char::is_alphanumeric);
        let after_ok = !text[pos + word.len()..]
            .chars()
            .next()
            .is_some_and(char::is_alphanumeric);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + word.len();
    }
    None
}

fn months_mentioned(q_lower: &str) -> Vec<u32> {
    let mut found: Vec<(usize, u32)> = Vec::new();
    for (name, m) in MONTHS {
        // Whole-word match: "may" must not fire inside "maybe", and the
        // modal "may" is unavoidable English — only count it when another
        // month is also named ("April and May") or it is capitalized-like
        // context we cannot see; requiring a sibling month is the safer
        // heuristic for the modal collision.
        if let Some(pos) = find_word(q_lower, name) {
            found.push((pos, m));
        }
    }
    // Drop a lone "may": as a modal verb it is far more likely than the
    // month unless another month anchors the time comparison.
    if found.len() == 1 && found[0].1 == 5 && !q_lower.contains("in may") {
        found.clear();
    }
    // Abbreviations used by the benchmark ("Oct", "Nov").
    for (abbr, m) in [("oct", 10u32), ("nov", 11u32)] {
        if !found.iter().any(|&(_, fm)| fm == m) {
            // Word-boundary check to avoid matching inside other words.
            for (pos, word) in q_lower.split_whitespace().scan(0usize, |acc, w| {
                let p = *acc;
                *acc += w.len() + 1;
                Some((p, w))
            }) {
                let w = word.trim_matches(|c: char| !c.is_alphanumeric());
                if w.eq_ignore_ascii_case(abbr) {
                    found.push((pos, m));
                    break;
                }
            }
        }
    }
    found.sort();
    found.into_iter().map(|(_, m)| m).collect()
}

fn number_words(q_lower: &str) -> Option<usize> {
    for (word, n) in [
        ("three", 3), ("five", 5), ("seven", 7), ("two", 2), ("ten", 10),
    ] {
        if q_lower.contains(&format!("top {word}")) {
            return Some(n);
        }
    }
    // "top 5", "top5", "top 7" — word-anchored so "laptop"/"stop" don't fire.
    let bytes = q_lower.as_bytes();
    let mut search = 0;
    while let Some(rel) = q_lower[search..].find("top") {
        let pos = search + rel;
        let before_ok = pos == 0 || !bytes[pos - 1].is_ascii_alphanumeric();
        if before_ok {
            let rest: String = q_lower[pos + 3..].chars().take(4).collect();
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            if !digits.is_empty() {
                return digits.parse().ok();
            }
        }
        search = pos + 3;
    }
    None
}

fn small_threshold(q_lower: &str) -> Option<i64> {
    let pos = q_lower.find("fewer than")?;
    let digits: String = q_lower[pos..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The text column to use for mention filters.
fn text_col(schema: &SchemaInfo) -> String {
    "text".to_string().if_in(schema).unwrap_or_else(|| {
        schema
            .columns
            .first()
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| "text".to_string())
    })
}

trait IfIn {
    fn if_in(self, schema: &SchemaInfo) -> Option<String>;
}
impl IfIn for String {
    fn if_in(self, schema: &SchemaInfo) -> Option<String> {
        schema.has(&self).then_some(self)
    }
}

/// Semantic expansions the model "knows" (LLM world knowledge).
fn mention_synonyms(phrase: &str) -> Vec<String> {
    match phrase.to_lowercase().as_str() {
        "user interface" => vec![
            "interface".to_string(),
            "button".to_string(),
            "menu".to_string(),
        ],
        "image" => vec!["image".to_string()],
        _ => vec![phrase.to_string()],
    }
}

fn extract_slots(q: &str, schema: &SchemaInfo) -> Slots {
    let q_lower = q.to_lowercase();
    let quoted = quoted_phrases(q);
    let mut filters = Vec::new();

    for phrase in &quoted {
        let lower = phrase.to_lowercase();
        // Skip presentation-only quotes: bucket names in lump-small
        // questions and chart color words.
        let lump_context = q_lower.contains("under the category") || q_lower.contains("color");
        if ["blue", "orange"].contains(&lower.as_str())
            || (lower == "others" && lump_context)
        {
            continue;
        }
        if lower == "cone master" {
            if let Some((col, val)) = schema.resolve_value(phrase) {
                filters.push(Slot::Eq(col, val));
            } else if schema.has("user_level") {
                filters.push(Slot::Eq("user_level".into(), lower.clone()));
            }
            continue;
        }
        // Words before the quote decide mention-vs-entity.
        let before = q_lower.split(&lower).next().unwrap_or("");
        let before = before.trim_end_matches(['\'', '"']).trim_end();
        let mention_cue = ["mention", "mentioning", "mentioned", "contains", "talking about"]
            .iter()
            .any(|cue| before.ends_with(cue) || before.ends_with(&format!("{cue} the product")));
        if mention_cue && !before.trim_end().ends_with("topic") {
            filters.push(Slot::Mention(mention_synonyms(phrase)));
            continue;
        }
        match schema.resolve_value(phrase) {
            Some((col, val)) if col == "topics" => filters.push(Slot::Topic(val)),
            Some((col, val)) => filters.push(Slot::Eq(col, val)),
            None => filters.push(Slot::Mention(mention_synonyms(phrase))),
        }
    }

    // Unquoted label mentions ("posts labeled as application guidance").
    if q_lower.contains("labeled as") || q_lower.contains("label") {
        if let Some(labels) = schema.sample_values.get("label") {
            for v in labels {
                let lv = v.to_lowercase();
                if q_lower.contains(&lv)
                    && !quoted.iter().any(|p| p.to_lowercase() == lv)
                    && !filters.iter().any(|f| matches!(f, Slot::Eq(c, x) if c == "label" && x == v))
                {
                    filters.push(Slot::Eq("label".into(), v.clone()));
                }
            }
        }
    }

    // Unquoted entity cues.
    if q_lower.contains("german") && schema.has("language") {
        filters.push(Slot::Eq("language".into(), "de".into()));
    }
    if (q_lower.contains(" us(") || q_lower.contains(" us ") || q_lower.ends_with(" us") || q_lower.contains("in us "))
        && !q_lower.contains("users")
    {
        if schema.has("country") {
            filters.push(Slot::Eq("country".into(), "us".into()));
        } else if schema.has("timezone") {
            filters.push(Slot::Mention(vec!["US".to_string()]));
        }
    }
    if q_lower.contains("firefox") && schema.has("software") && !quoted.iter().any(|p| p.eq_ignore_ascii_case("firefox")) {
        filters.push(Slot::Eq("software".into(), "Firefox".into()));
    }
    if q_lower.contains("android") && !quoted.iter().any(|p| p.eq_ignore_ascii_case("android")) && schema.has("product") {
        filters.push(Slot::Mention(vec!["Android".to_string()]));
    }

    Slots {
        filters,
        months: months_mentioned(&q_lower),
        top_k: number_words(&q_lower),
        threshold: small_threshold(&q_lower),
        quoted,
    }
}

/// Render a filter chain (excluding month filters) onto `base`.
fn apply_filters(base: &str, slots: &Slots, schema: &SchemaInfo) -> String {
    let mut out = base.to_string();
    let tcol = text_col(schema);
    for f in &slots.filters {
        match f {
            Slot::Eq(col, val) => out.push_str(&format!(".filter({col} == \"{val}\")")),
            Slot::Topic(val) => out.push_str(&format!(".filter(has_topic(topics, \"{val}\"))")),
            Slot::Mention(phrases) => {
                let conds: Vec<String> = phrases
                    .iter()
                    .map(|p| format!("contains({tcol}, \"{p}\")"))
                    .collect();
                out.push_str(&format!(".filter({})", conds.join(" || ")));
            }
        }
    }
    out
}

fn month_filter(base: &str, month: u32) -> String {
    format!("{base}.filter(month(timestamp) == {month})")
}

// ===========================================================================
// Intent rules → program emission
// ===========================================================================

/// Build the (pre-corruption) AQL program for a question.
pub fn build_program(question: &str, schema: &SchemaInfo) -> Result<String, String> {
    let q = question.to_lowercase();
    let slots = extract_slots(question, schema);
    let tcol = text_col(schema);

    let mut filtered = apply_filters("feedback", &slots, schema);
    // Single-month context ("in April", "in October 2023") — but not for
    // two-month comparison intents, which handle months themselves.
    let two_month_intent = slots.months.len() >= 2
        && (q.contains("but not")
            || q.contains("increase")
            || q.contains("both")
            || q.contains("change in sentiment")
            || q.contains("trend"));
    if slots.months.len() == 1 && !two_month_intent {
        filtered = month_filter(&filtered, slots.months[0]);
    }

    // ---- figures ----------------------------------------------------------
    if q.contains("word cloud") {
        let col = if schema.has("translated_text")
            && (q.contains("translated") || q.contains("feedback text"))
        {
            "translated_text".to_string()
        } else if q.contains("topic") && !q.contains("content") && !q.contains("text") {
            "topics".to_string()
        } else {
            tcol.clone()
        };
        if col == "topics" {
            return Ok(format!(
                "let sub = {filtered}.explode(\"topics\");\nshow(word_cloud(sub, \"topics\"))"
            ));
        }
        if q.contains("most frequently mentioned topic") {
            return Ok(format!(
                "let top = feedback.explode(\"topics\").value_counts(\"topics\").head(1).column_values(\"topics\");\nlet sub = feedback.filter(in_list_any(topics, top));\nshow(word_cloud(sub, \"{col}\"))"
            ));
        }
        return Ok(format!("show(word_cloud({filtered}, \"{col}\"))"));
    }

    if q.contains("issue river") {
        let k = slots.top_k.unwrap_or(7);
        return Ok(format!(
            "show(issue_river({filtered}, \"topics\", \"timestamp\", {k}))"
        ));
    }

    if q.contains("co-occur") || q.contains("co occur") || q.contains("cooccur") {
        return Ok(format!(
            "show(co_occurrence({filtered}, \"topics\").head(1))"
        ));
    }

    if q.contains("statistical correlation") {
        return Ok("show(topic_correlation(feedback, \"topics\", \"timestamp\").head(1))".to_string());
    }

    if q.contains("correlation between") && (q.contains("length") || q.contains("len ")) {
        return Ok("show(feedback.correlation(\"text_len\", \"sentiment\"))".to_string());
    }

    if q.contains("anomaly") || q.contains("surge") {
        return Ok(format!(
            "let sub = {filtered}.derive(\"date\", date(timestamp));\nlet daily = sub.value_counts(\"date\");\nshow(anomaly_detect(daily, \"date\", \"count\", 3.0))"
        ));
    }

    // "appeared in <A> but not <B>"
    if q.contains("but not") && slots.months.len() >= 2 {
        let (a, b) = (slots.months[0], slots.months[1]);
        return Ok(format!(
            "let e = {filtered}.explode(\"topics\").derive(\"m\", month(timestamp));\nlet first = e.filter(m == {a}).value_counts(\"topics\");\nlet second = e.filter(m == {b}).value_counts(\"topics\");\nshow(first.join(second, \"topics\", \"left\").filter(is_null(count_right)).select(\"topics\"))"
        ));
    }

    // "fastest increase from <A> to <B>"
    if q.contains("fastest increase") && slots.months.len() >= 2 {
        let (a, b) = (slots.months[0], slots.months[1]);
        let k = slots.top_k.unwrap_or(3);
        return Ok(format!(
            "let e = {filtered}.explode(\"topics\").derive(\"m\", month(timestamp));\nlet first = e.filter(m == {a}).value_counts(\"topics\");\nlet second = e.filter(m == {b}).value_counts(\"topics\");\nlet j = second.join(first, \"topics\", \"left\").derive(\"increase\", count - coalesce(count_right, 0));\nshow(j.sort(\"increase\", \"desc\").head({k}))"
        ));
    }

    // "top k topics appearing in both <A> and <B>" grouped chart
    if (q.contains("appear in both") || q.contains("appearing in both")) && slots.months.len() >= 2 {
        let (a, b) = (slots.months[0], slots.months[1]);
        let k = slots.top_k.unwrap_or(5);
        return Ok(format!(
            "let e = {filtered}.explode(\"topics\").derive(\"m\", month(timestamp));\nlet first = e.filter(m == {a}).value_counts(\"topics\");\nlet second = e.filter(m == {b}).value_counts(\"topics\");\nlet both = first.join(second, \"topics\", \"inner\").derive(\"total\", count + count_right).sort(\"total\", \"desc\").head({k});\nlet top = both.column_values(\"topics\");\nlet sub = e.filter(in_list(topics, top)).group_by(\"topics\", \"m\", count());\nshow(grouped_bar_chart(sub, \"topics\", \"count\", \"m\", \"Top {k} topics by month\"))"
        ));
    }

    if q.contains("pie chart") {
        let k = slots.top_k.unwrap_or(5);
        if q.contains("label") {
            return Ok(format!(
                "show(pie_chart({filtered}.value_counts(\"label\"), \"label\", \"count\", \"Occurrence of labels\"))"
            ));
        }
        return Ok(format!(
            "let top = {filtered}.explode(\"topics\").value_counts(\"topics\").head({k});\nshow(pie_chart(top, \"topics\", \"count\", \"Top {k} topics\"))"
        ));
    }

    // Weekly trend of specific topics.
    if (q.contains("weekly occurrence") || (q.contains("trend") && q.contains("week")))
        && !slots.quoted.is_empty()
    {
        let conds: Vec<String> = slots
            .quoted
            .iter()
            .map(|t| format!("topics == \"{t}\""))
            .collect();
        return Ok(format!(
            "let e = feedback.explode(\"topics\").filter({});\nlet g = e.derive(\"week\", week(timestamp)).group_by(\"week\", \"topics\", count()).sort(\"week\", \"asc\");\nshow(grouped_bar_chart(g, \"week\", \"count\", \"topics\", \"Weekly occurrence of selected topics\"))",
            conds.join(" || ")
        ));
    }

    // Daily sentiment trend.
    if q.contains("daily sentiment") || (q.contains("trend") && q.contains("sentiment")) {
        return Ok(format!(
            "let daily = {filtered}.derive(\"date\", date(timestamp)).group_by(\"date\", mean(\"sentiment\")).sort(\"date\", \"asc\");\nshow(line_chart(daily, \"date\", \"sentiment_mean\", \"Daily sentiment trend\"))"
        ));
    }

    // Bar chart of sentiment by position ("figure about the correlation
    // between average sentiment score and different post positions").
    if q.contains("sentiment") && q.contains("position") && schema.has("position") {
        return Ok(
            "let g = feedback.group_by(\"position\", mean(\"sentiment\"));\nshow(bar_chart(g, \"position\", \"sentiment_mean\", \"Mean sentiment per post position\"))"
                .to_string(),
        );
    }

    // Special multi-step: most frequent topic across user levels.
    if q.contains("present in all user levels") {
        return Ok(
            "let e = feedback.explode(\"topics\");\nlet top = e.value_counts(\"topics\").head(1).column_values(\"topics\");\nlet sub = e.filter(in_list(topics, top)).group_by(\"user_level\", count());\nshow(bar_chart(sub, \"user_level\", \"count\", \"Most frequent topic across user levels\"))"
                .to_string(),
        );
    }

    if q.contains("histogram") || q.contains("bar chart") {
        let dim = detect_dimension(&q, schema).unwrap_or_else(|| "label".to_string());
        let mut program = format!("let vc = {filtered}.value_counts(\"{dim}\")");
        if let Some(threshold) = slots.threshold {
            program.push_str(&format!(
                ";\nlet lumped = lump_small(vc, \"{dim}\", \"count\", {threshold}, \"Others\");\nshow(bar_chart(lumped, \"{dim}\", \"count\", \"Counts per {dim}\"))"
            ));
        } else {
            program.push_str(&format!(
                ";\nshow(bar_chart(vc, \"{dim}\", \"count\", \"Counts per {dim}\"))"
            ));
        }
        return Ok(program);
    }

    // ---- analyses -----------------------------------------------------------
    if q.contains("emoji") {
        return Ok(format!(
            "show(emoji_stats({filtered}, \"{tcol}\").head(5))"
        ));
    }

    if q.contains("keyword") || q.contains("plugin mentioned the most") {
        return Ok(format!(
            "show(keyword_stats({filtered}, \"{tcol}\").head(10))"
        ));
    }

    if q.contains("software or product names") {
        let dim = if schema.has("software") { "software" } else { "product" };
        return Ok(format!("show(feedback.value_counts(\"{dim}\"))"));
    }

    // "how many … and what percentage …"
    if q.contains("how many") && q.contains("what percentage") {
        let numerator = percent_numerator(&q, &slots, schema);
        return Ok(format!(
            "let base = {filtered};\nshow(base.count());\nshow(percent(base{numerator}.count(), base.count()))"
        ));
    }

    if q.contains("without query text") && schema.has("query_text") {
        return Ok("show(feedback.filter(query_text == \"\").count())".to_string());
    }

    if q.contains("time range") {
        return Ok("show(feedback.min(\"timestamp\"));\nshow(feedback.max(\"timestamp\"))".to_string());
    }

    if q.contains("unique topics") {
        return Ok(format!(
            "show({filtered}.explode(\"topics\").nunique(\"topics\"))"
        ));
    }

    if q.contains("ratio of positive to negative") {
        return Ok(format!(
            "let base = {filtered};\nshow(base.filter(sentiment > 0).count() / base.filter(sentiment < 0).count())"
        ));
    }

    if q.contains("ratio of") {
        // Parse "ratio of X to Y": each operand resolves to a topic, a
        // label, or a text-mention filter. Quoted filters matching the
        // operands are *not* re-applied to the base.
        let (num, den, consumed) = ratio_operands(&q, schema);
        let mut base_slots = Slots {
            filters: slots
                .filters
                .iter()
                .filter(|f| match f {
                    Slot::Mention(ps) => !ps.iter().any(|p| consumed.contains(&p.to_lowercase())),
                    Slot::Topic(v) | Slot::Eq(_, v) => !consumed.contains(&v.to_lowercase()),
                })
                .cloned()
                .collect(),
            months: slots.months.clone(),
            top_k: slots.top_k,
            threshold: slots.threshold,
            quoted: slots.quoted.clone(),
        };
        base_slots.months.clear();
        let mut base = apply_filters("feedback", &base_slots, schema);
        if slots.months.len() == 1 {
            base = month_filter(&base, slots.months[0]);
        }
        return Ok(format!(
            "let base = {base};\nlet a = base{num}.count();\nlet b = base{den}.count();\nshow(a / b)"
        ));
    }

    if q.contains("percentage") || q.contains("percent") {
        let numerator = percent_numerator(&q, &slots, schema);
        if numerator.is_empty() {
            // The filters themselves are the numerator; denominator is all.
            return Ok(format!(
                "show(percent({filtered}.count(), feedback.count()))"
            ));
        }
        return Ok(format!(
            "let base = {filtered};\nshow(percent(base{numerator}.count(), base.count()))"
        ));
    }

    // Sentiment extremes by group.
    if q.contains("sentiment") && (q.contains("most negative") || q.contains("lowest") || q.contains("negative sentiment")) {
        let k = if q.contains("top three") || q.contains("ties") || q.contains("all possible") {
            3
        } else {
            slots.top_k.unwrap_or(1)
        };
        return Ok(format!(
            "show({filtered}.explode(\"topics\").group_by(\"topics\", mean(\"sentiment\")).sort(\"sentiment_mean\", \"asc\").head({k}))"
        ));
    }

    if q.contains("highest average sentiment") || (q.contains("most satisfied") && q.contains("week")) {
        let dim = if q.contains("week") {
            return Ok(
                "let w = feedback.derive(\"week\", week(timestamp));\nshow(w.group_by(\"week\", mean(\"sentiment\")).sort(\"sentiment_mean\", \"desc\").head(1))"
                    .to_string(),
            );
        } else if q.contains("product") && schema.has("product") {
            "product"
        } else {
            "label"
        };
        return Ok(format!(
            "show(feedback.group_by(\"{dim}\", mean(\"sentiment\")).sort(\"sentiment_mean\", \"desc\").head(1))"
        ));
    }

    if q.contains("average sentiment") {
        return Ok(format!("show({filtered}.mean(\"sentiment\"))"));
    }

    // Compare sentiment across a dimension.
    if q.contains("compare the sentiment") || q.contains("change in sentiment") {
        if q.contains("weekday") || q.contains("weekend") {
            return Ok(format!(
                "let sub = {filtered}.derive(\"weekend\", is_weekend(timestamp));\nshow(sub.group_by(\"weekend\", mean(\"sentiment\"), count()))"
            ));
        }
        if q.contains("user level") && schema.has("user_level") {
            return Ok(format!(
                "show({filtered}.group_by(\"user_level\", mean(\"sentiment\"), count()))"
            ));
        }
        if slots.months.len() >= 2 || q.contains("month") || q.contains("april") {
            return Ok(format!(
                "let sub = {filtered}.derive(\"m\", month(timestamp));\nshow(sub.group_by(\"m\", mean(\"sentiment\"), count()).sort(\"m\", \"asc\"))"
            ));
        }
        return Ok(format!(
            "show({filtered}.group_by(\"label\", mean(\"sentiment\"), count()))"
        ));
    }

    // Suggestion-style questions: produce the statistics the summarizer
    // will turn into recommendations.
    if q.contains("suggest") || q.contains("improve") || q.contains("action")
        || q.contains("advantages and disadvantages") || q.contains("biggest challenge")
    {
        if q.contains("advantages and disadvantages") {
            return Ok(format!(
                "let base = {filtered};\nshow(base.filter(sentiment > 0.3).explode(\"topics\").value_counts(\"topics\").head(5));\nshow(base.filter(sentiment < -0.3).explode(\"topics\").value_counts(\"topics\").head(5))"
            ));
        }
        let k = if q.contains("biggest challenge") { 3 } else { 5 };
        return Ok(format!(
            "let neg = {filtered}.filter(sentiment < 0);\nshow(neg.explode(\"topics\").value_counts(\"topics\").head({k}))"
        ));
    }

    // "how many …" counts.
    if q.contains("how many") {
        return Ok(format!("show({filtered}.count())"));
    }

    // Top-k / most frequent of a dimension.
    if q.contains("top") || q.contains("most") || q.contains("order topic") {
        let default_k = if q.contains("order") {
            100
        } else if q.contains("what topics") || q.contains("which topics") {
            5 // plural: the user wants a list
        } else {
            1
        };
        let k = slots.top_k.unwrap_or(default_k);
        if let Some(dim) = detect_dimension(&q, schema) {
            return Ok(format!(
                "show({filtered}.value_counts(\"{dim}\").head({k}))"
            ));
        }
        return Ok(format!(
            "show({filtered}.explode(\"topics\").value_counts(\"topics\").head({k}))"
        ));
    }

    // "what topics are … discussed" with filters.
    if q.contains("topic") {
        return Ok(format!(
            "show({filtered}.explode(\"topics\").value_counts(\"topics\").head(5))"
        ));
    }

    // Fallback: a preview (an honest "I'm not sure" answer).
    Ok("show(feedback.head(10))".to_string())
}

/// Which categorical dimension does the question group over?
fn detect_dimension(q: &str, schema: &SchemaInfo) -> Option<String> {
    let table: [(&str, &str); 6] = [
        ("timezone", "timezone"),
        ("countr", "country"),
        ("user level", "user_level"),
        ("user-level", "user_level"),
        ("label", "label"),
        ("position", "position"),
    ];
    for (cue, col) in table {
        if q.contains(cue) && schema.has(col) {
            return Some(col.to_string());
        }
    }
    if q.contains("topic") {
        return None; // topics handled by explode paths
    }
    None
}

/// Numerator filter suffix for percentage questions ("were positive",
/// "discuss the 'X' topic", "contain url").
fn percent_numerator(q: &str, slots: &Slots, schema: &SchemaInfo) -> String {
    if q.contains("positive") {
        return ".filter(sentiment > 0)".to_string();
    }
    if q.contains("url") {
        let tcol = text_col(schema);
        return format!(".filter(has_url({tcol}))");
    }
    if q.contains("button") {
        let tcol = text_col(schema);
        return format!(".filter(contains({tcol}, \"button\"))");
    }
    // "discuss the 'X' topic": the topic quote is usually the last quoted
    // phrase; if it resolved to a Topic slot, reuse it as the numerator and
    // assume earlier filters form the base. The builder passes all filters
    // as base, so re-apply the topic here only when there are ≥2 filters.
    if q.contains("discuss") {
        if let Some(Slot::Topic(t)) = slots.filters.iter().rev().find(|s| matches!(s, Slot::Topic(_))) {
            return format!(".filter(has_topic(topics, \"{t}\"))");
        }
        // Fuzzy: last quoted phrase as topic.
        if let Some(p) = slots.quoted.last() {
            let norm = normalize_phrase(p);
            if let Some(topics) = schema.sample_values.get("topics") {
                if let Some(v) = topics.iter().find(|v| {
                    let nv = normalize_phrase(v);
                    nv == norm || norm.contains(&nv) || nv.contains(&norm)
                }) {
                    return format!(".filter(has_topic(topics, \"{v}\"))");
                }
            }
        }
    }
    String::new()
}

/// Resolve one ratio operand phrase to a filter suffix; returns the
/// consumed entity string for base-filter deduplication.
fn operand_filter(phrase: &str, schema: &SchemaInfo) -> (String, String) {
    // Normalize: strip hyphens/possessives and boilerplate nouns.
    let cleaned: String = phrase
        .replace('-', " ")
        .replace(['\'', '"'], "")
        .split_whitespace()
        .filter(|w| {
            ![
                "related", "posts", "tweets", "feedback", "those", "to", "the", "ones",
            ]
            .contains(&w.to_lowercase().as_str())
        })
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase();
    // Topic value?
    if let Some(topics) = schema.sample_values.get("topics") {
        if let Some(v) = topics.iter().find(|v| {
            let lv = v.to_lowercase();
            lv == cleaned || cleaned.contains(&lv) || lv.contains(&cleaned)
        }) {
            return (format!(".filter(has_topic(topics, \"{v}\"))"), v.to_lowercase());
        }
    }
    // Label value (substring match covers "bug" → "apparent bug")?
    if let Some(labels) = schema.sample_values.get("label") {
        if let Some(v) = labels.iter().find(|v| {
            let lv = v.to_lowercase();
            lv == cleaned || lv.contains(&cleaned) || cleaned.contains(&lv)
        }) {
            if v.to_lowercase() == cleaned {
                return (format!(".filter(label == \"{v}\")"), v.to_lowercase());
            }
            return (format!(".filter(contains(label, \"{cleaned}\"))"), cleaned.clone());
        }
    }
    let tcol = text_col(schema);
    (format!(".filter(contains({tcol}, \"{cleaned}\"))"), cleaned)
}

/// Parse the two operands of "ratio of X to Y" and resolve each.
/// Returns (numerator, denominator, consumed entity strings).
fn ratio_operands(q: &str, schema: &SchemaInfo) -> (String, String, Vec<String>) {
    let after = q.split("ratio of").nth(1).unwrap_or("");
    // Cut at sentence/clause ends.
    let after = after.split(['?', '.']).next().unwrap_or(after);
    let (x, y) = match after.split_once(" to ") {
        Some((x, y)) => (x.trim(), y.trim()),
        None => (after.trim(), ""),
    };
    // Trailing context ("for tweets related to 'Windows'") stays in the
    // base, so cut Y at "for ".
    let y = y.split(" for ").next().unwrap_or(y).trim();
    let (num, ce1) = operand_filter(x, schema);
    let (den, ce2) = operand_filter(y, schema);
    (num, den, vec![ce1, ce2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ChatOptions, ModelSpec};

    fn schema() -> SchemaInfo {
        let mut s = SchemaInfo {
            columns: vec![
                ("text".into(), "Str".into()),
                ("label".into(), "Str".into()),
                ("sentiment".into(), "Float".into()),
                ("topics".into(), "StrList".into()),
                ("timestamp".into(), "DateTime".into()),
                ("text_len".into(), "Int".into()),
                ("product".into(), "Str".into()),
                ("timezone".into(), "Str".into()),
            ],
            sample_values: HashMap::new(),
        };
        s.sample_values.insert(
            "topics".into(),
            vec!["bug".into(), "feature request".into(), "performance issue".into(), "troubleshooting help".into()],
        );
        s.sample_values.insert(
            "product".into(),
            vec!["WhatsApp".into(), "Windows".into(), "Minecraft".into(), "Instagram".into()],
        );
        s.sample_values.insert("label".into(), vec!["informative".into(), "non-informative".into()]);
        s
    }

    #[test]
    fn from_frame_samples_first_distinct_values_and_skips_nulls() {
        use allhands_dataframe::Column;
        let n = 100;
        // 50 distinct products, first seen in descending order, every
        // seventh cell null; every row's topics add one new item and repeat
        // "shared".
        let products = (0..n).map(|i| (i % 7 != 3).then(|| format!("p{}", 49 - i / 2))).collect();
        let topics = (0..n).map(|i| vec![format!("t{i}"), "shared".to_string()]).collect();
        let frame = DataFrame::new(vec![
            Column::new("product", ColumnData::Str(products)),
            Column::from_str_lists("topics", topics),
            Column::from_f64s("score", &vec![0.5; n]),
        ])
        .unwrap();
        let schema = SchemaInfo::from_frame(&frame);
        let columns = [("product", "Str"), ("topics", "StrList"), ("score", "Float")];
        assert_eq!(schema.columns, columns.map(|(c, t)| (c.to_string(), t.to_string())));
        let products: Vec<String> = (10..50).rev().map(|k| format!("p{k}")).collect();
        assert_eq!(schema.sample_values["product"], products);
        let mut topics = vec!["t0".to_string(), "shared".to_string()];
        topics.extend((1..59).map(|i| format!("t{i}")));
        assert_eq!(schema.sample_values["topics"], topics);
        assert!(!schema.sample_values.contains_key("score"));
    }

    #[test]
    fn quoted_extraction() {
        assert_eq!(
            quoted_phrases("tweets mentioning 'WhatsApp' on weekdays"),
            vec!["WhatsApp"]
        );
        assert_eq!(
            quoted_phrases("topics 'bug' and 'performance issue'"),
            vec!["bug", "performance issue"]
        );
        // Genitive apostrophes are not quotes.
        assert!(quoted_phrases("posts' content and tweets' length").is_empty());
    }

    #[test]
    fn month_and_number_extraction() {
        assert_eq!(months_mentioned("from april to may"), vec![4, 5]);
        assert_eq!(months_mentioned("in october 2023 but not in november"), vec![10, 11]);
        assert_eq!(months_mentioned("top5 topics appear in both Oct and Nov".to_lowercase().as_str()), vec![10, 11]);
        assert_eq!(number_words("top three timezones"), Some(3));
        assert_eq!(number_words("top5 topics"), Some(5));
        assert_eq!(number_words("top 7 topics"), Some(7));
        assert_eq!(small_threshold("fewer than 30 tweets under"), Some(30));
    }

    #[test]
    fn product_quote_resolves_to_equality() {
        let p = build_program(
            "Draw a issue river for the top 7 topics about 'WhatsApp' product.",
            &schema(),
        )
        .unwrap();
        assert!(p.contains("product == \"WhatsApp\""), "{p}");
        assert!(p.contains("issue_river"));
        assert!(p.contains("7"));
    }

    #[test]
    fn mention_cue_uses_contains() {
        let p = build_program(
            "Compare the sentiment of tweets mentioning 'WhatsApp' on weekdays versus weekends.",
            &schema(),
        )
        .unwrap();
        assert!(p.contains("contains(text, \"WhatsApp\")"), "{p}");
        assert!(p.contains("is_weekend"));
    }

    #[test]
    fn topic_quote_resolves_to_has_topic() {
        let p = build_program(
            "What is the ratio of positive to negative emotions in the tweets related to the 'troubleshooting help' topic?",
            &schema(),
        )
        .unwrap();
        assert!(p.contains("has_topic(topics, \"troubleshooting help\")"), "{p}");
        assert!(p.contains("sentiment > 0"));
    }

    #[test]
    fn percentage_program() {
        let p = build_program(
            "What percentage of the tweets that mentioned 'Windows 10' were positive?",
            &schema(),
        )
        .unwrap();
        assert!(p.contains("percent("), "{p}");
        assert!(p.contains("contains(text, \"Windows 10\")"), "{p}");
        assert!(p.contains("sentiment > 0"), "{p}");
    }

    #[test]
    fn but_not_anti_join() {
        let p = build_program(
            "Which topics appeared in April but not in May talking about 'Instagram'?",
            &schema(),
        )
        .unwrap();
        assert!(p.contains("is_null(count_right)"), "{p}");
        assert!(p.contains("m == 4"), "{p}");
        assert!(p.contains("m == 5"), "{p}");
    }

    #[test]
    fn lump_small_histogram() {
        let p = build_program(
            "Draw a histogram based on the different timezones, grouping timezones with fewer than 30 tweets under the category 'Others'.",
            &schema(),
        )
        .unwrap();
        assert!(p.contains("lump_small"), "{p}");
        assert!(p.contains("30"), "{p}");
        assert!(p.contains("timezone"), "{p}");
    }

    #[test]
    fn corruption_drop_filter_is_silent() {
        let program = "show(feedback.filter(product == \"X\").count())".to_string();
        let out = apply_slip(SlipKind::DropFilter, program, &schema());
        assert_eq!(out, "show(feedback.count())");
    }

    #[test]
    fn corruption_misspell_repaired_on_retry() {
        let mut spec = ModelSpec::gpt35();
        spec.plan_slip = 1.0; // always corrupt
        spec.seed = 3; // chosen so the slip kind below is MisspellColumn
        // Find a question whose hash selects MisspellColumn.
        let mut question = String::new();
        for i in 0..200 {
            let q = format!("How many tweets mention 'Windows' variant {i}?");
            if choose_slip(&spec, &q) == SlipKind::MisspellColumn {
                question = q;
                break;
            }
        }
        assert!(!question.is_empty(), "no MisspellColumn question found");
        let head = CodegenHead::new(&spec);
        let first = head
            .generate(
                &CodegenRequest {
                    question: question.clone(),
                    schema: schema(),
                    error_feedback: None,
                    attempt: 0,
                },
                &ChatOptions::default(),
            )
            .unwrap();
        assert!(
            first.contains("_col\"") || first.contains("feedback_df."),
            "should be corrupted: {first}"
        );
        let retry = head
            .generate(
                &CodegenRequest {
                    question,
                    schema: schema(),
                    error_feedback: Some("unknown column".into()),
                    attempt: 1,
                },
                &ChatOptions::default(),
            )
            .unwrap();
        assert!(
            !retry.contains("_col\"") && !retry.contains("feedback_df."),
            "retry should repair: {retry}"
        );
    }

    #[test]
    fn gpt4_corrupts_less_than_gpt35() {
        let g35 = ModelSpec::gpt35();
        let g4 = ModelSpec::gpt4();
        let questions: Vec<String> = (0..200)
            .map(|i| format!("What is the average sentiment score across all tweets, take {i}?"))
            .collect();
        let count_corrupted = |spec: &ModelSpec| {
            let head = CodegenHead::new(spec);
            questions
                .iter()
                .filter(|q| {
                    let req = CodegenRequest {
                        question: (*q).clone(),
                        schema: schema(),
                        error_feedback: None,
                        attempt: 0,
                    };
                    let clean = build_program(q, &schema()).unwrap();
                    head.generate(&req, &ChatOptions::default()).unwrap() != clean
                })
                .count()
        };
        assert!(count_corrupted(&g4) < count_corrupted(&g35));
    }

    #[test]
    fn every_program_builds_without_error() {
        // A grab-bag of question shapes must all emit syntactically valid
        // programs (parsed by the AQL parser downstream; here just
        // non-empty with a show()).
        let questions = [
            "Which topic appears most frequently in the Twitter dataset?",
            "What is the average sentiment score across all tweets?",
            "Which top three timezones submitted the most number of tweets?",
            "How many unique topics are there for tweets about 'Android'?",
            "What is the time range covered by the feedbacks?",
            "Identify the most common emojis used in tweets about 'CallofDuty' or 'Minecraft'.",
            "Based on the tweets, what action can be done to improve Android?",
            "Something entirely unparseable and strange",
        ];
        for q in questions {
            let p = build_program(q, &schema()).unwrap();
            assert!(p.contains("show("), "{q} -> {p}");
        }
    }
}
