//! CSV serialization.
//!
//! The experiment binaries persist generated datasets and results; CSV keeps
//! them human-inspectable.

use crate::column::{Column, ColumnData, DType};
use crate::error::FrameError;
use crate::frame::DataFrame;
use crate::value::Value;
use crate::Result;

/// Escape a CSV field (RFC-4180 quoting).
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Split one CSV line into fields, honouring quotes. Returns an error
/// message for unterminated quotes.
fn csv_split(line: &str) -> std::result::Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated quote".to_string());
    }
    fields.push(cur);
    Ok(fields)
}

impl DataFrame {
    /// Serialize as CSV. `StrList` cells are joined with `|`, datetimes are
    /// formatted `YYYY-MM-DD HH:MM:SS`, nulls are empty fields.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .column_names()
                .iter()
                .map(|n| csv_escape(n))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in 0..self.n_rows() {
            let fields: Vec<String> = self
                .columns()
                .iter()
                .map(|c| {
                    let v = c.get(row);
                    let s = match &v {
                        Value::StrList(items) => items.join("|"),
                        other => other.to_string(),
                    };
                    csv_escape(&s)
                })
                .collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    /// Parse CSV produced by [`DataFrame::to_csv`], with a declared schema
    /// (CSV has no types). Column order must match the header.
    pub fn from_csv(csv: &str, schema: &[(&str, DType)]) -> Result<DataFrame> {
        let mut lines = csv.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| FrameError::Empty("csv input".into()))?;
        let names = csv_split(header)
            .map_err(|m| FrameError::Parse { line: 1, message: m })?;
        if names.len() != schema.len() {
            return Err(FrameError::Parse {
                line: 1,
                message: format!("expected {} columns, found {}", schema.len(), names.len()),
            });
        }
        for (found, (expected, _)) in names.iter().zip(schema) {
            if found != expected {
                return Err(FrameError::Parse {
                    line: 1,
                    message: format!("expected column '{expected}', found '{found}'"),
                });
            }
        }
        let mut data: Vec<ColumnData> = schema
            .iter()
            .map(|(_, t)| ColumnData::empty(*t))
            .collect();
        // Note: `lines()` never yields the empty remnant after a trailing
        // '\n', so an empty line is a real row (e.g. a single null cell).
        for (lineno, line) in lines {
            let fields = csv_split(line).map_err(|m| FrameError::Parse {
                line: lineno + 1,
                message: m,
            })?;
            if fields.len() != schema.len() {
                return Err(FrameError::Parse {
                    line: lineno + 1,
                    message: format!("expected {} fields, found {}", schema.len(), fields.len()),
                });
            }
            for ((field, (_, dtype)), col) in fields.iter().zip(schema).zip(&mut data) {
                let value = parse_field(field, *dtype).map_err(|m| FrameError::Parse {
                    line: lineno + 1,
                    message: m,
                })?;
                col.push(value)?;
            }
        }
        DataFrame::new(
            schema
                .iter()
                .zip(data)
                .map(|((n, _), d)| Column::new(n, d))
                .collect(),
        )
    }
}

fn parse_field(field: &str, dtype: DType) -> std::result::Result<Value, String> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match dtype {
        DType::Int => Value::Int(field.parse().map_err(|_| format!("bad int '{field}'"))?),
        DType::Float => Value::Float(field.parse().map_err(|_| format!("bad float '{field}'"))?),
        DType::Str => Value::Str(field.to_string()),
        DType::Bool => match field {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => return Err(format!("bad bool '{field}'")),
        },
        DType::DateTime => crate::datetime::CivilDateTime::parse(field)
            .map(|d| Value::DateTime(d.to_epoch()))
            .ok_or_else(|| format!("bad datetime '{field}'"))?,
        DType::StrList => Value::StrList(field.split('|').map(str::to_string).collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            Column::from_strs("text", &["plain", "has,comma", "has\"quote"]),
            Column::from_f64s("score", &[1.5, -2.0, 0.0]),
            Column::from_str_lists("topics", vec![
                vec!["bug".into(), "ui".into()],
                vec!["perf".into()],
                vec![],
            ]),
        ])
        .unwrap()
    }

    #[test]
    fn csv_roundtrip() {
        let df = sample();
        let csv = df.to_csv();
        let back = DataFrame::from_csv(
            &csv,
            &[("text", DType::Str), ("score", DType::Float), ("topics", DType::StrList)],
        )
        .unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.cell(1, "text").unwrap(), Value::str("has,comma"));
        assert_eq!(back.cell(2, "text").unwrap(), Value::str("has\"quote"));
        assert_eq!(back.cell(1, "score").unwrap(), Value::Float(-2.0));
        assert_eq!(
            back.cell(0, "topics").unwrap(),
            Value::StrList(vec!["bug".into(), "ui".into()])
        );
    }

    #[test]
    fn csv_schema_validation() {
        let csv = "a,b\n1,2\n";
        assert!(DataFrame::from_csv(csv, &[("a", DType::Int)]).is_err());
        assert!(DataFrame::from_csv(csv, &[("x", DType::Int), ("b", DType::Int)]).is_err());
        assert!(DataFrame::from_csv("a\nnot_int\n", &[("a", DType::Int)]).is_err());
    }

    #[test]
    fn csv_datetime_and_null() {
        let df = DataFrame::new(vec![Column::new(
            "ts",
            ColumnData::DateTime(vec![Some(0), None]),
        )])
        .unwrap();
        let csv = df.to_csv();
        assert!(csv.contains("1970-01-01 00:00:00"));
        let back = DataFrame::from_csv(&csv, &[("ts", DType::DateTime)]).unwrap();
        assert_eq!(back.cell(0, "ts").unwrap(), Value::DateTime(0));
        assert_eq!(back.cell(1, "ts").unwrap(), Value::Null);
    }

    #[test]
    fn csv_split_quotes() {
        assert_eq!(
            csv_split(r#"a,"b,c",d"#).unwrap(),
            vec!["a", "b,c", "d"]
        );
        assert_eq!(csv_split(r#""he said ""hi""""#).unwrap(), vec![r#"he said "hi""#]);
        assert!(csv_split(r#""unterminated"#).is_err());
    }
}
