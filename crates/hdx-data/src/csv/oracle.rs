//! The previous row-wise CSV reader, kept as a differential oracle for the
//! column-direct one.
//!
//! It splits the text with `str::lines`, tokenizes each line into owned
//! strings, infers kinds in a second pass and builds the frame row by row.
//! It cannot read a line break inside quotes; everywhere else the two
//! readers must agree exactly, which the property test below checks.

#![cfg(test)]

use proptest::prelude::*;

use super::{read_csv_str_with_quality, CsvOptions, Tokenizer};
use crate::builder::DataFrameBuilder;
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::quality::{ColumnQuality, DataQualityReport};
use crate::value::Value;

/// Splits one line into fields honouring quotes.
fn split_record(line: &str, sep: char) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else if c == '"' {
            if !cur.is_empty() {
                return Err("quote in the middle of an unquoted field".to_string());
            }
            in_quotes = true;
        } else if c == sep {
            fields.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".to_string());
    }
    fields.push(cur);
    Ok(fields)
}

/// Records a non-finite cell of `column`, columns in first-seen order.
fn count_cell(quality: &mut DataQualityReport, column: &str) {
    match quality.columns.iter_mut().find(|c| c.name == column) {
        Some(entry) => entry.non_finite += 1,
        None => quality.columns.push(ColumnQuality {
            name: column.to_string(),
            non_finite: 1,
        }),
    }
}

/// The row-wise reader, as it was.
pub(super) fn read(
    text: &str,
    options: &CsvOptions,
) -> Result<(DataFrame, DataQualityReport), DataError> {
    let mut quality = DataQualityReport::default();
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or(DataError::Csv {
        line: 1,
        message: "missing header row".to_string(),
    })?;
    let names = split_record(header, options.separator)
        .map_err(|message| DataError::Csv { line: 1, message })?;
    let n_cols = names.len();

    let mut records: Vec<Vec<String>> = Vec::new();
    for (idx, line) in lines {
        let parsed = split_record(line, options.separator).and_then(|fields| {
            if fields.len() == n_cols {
                Ok(fields)
            } else {
                Err(format!("expected {n_cols} fields, found {}", fields.len()))
            }
        });
        match parsed {
            Ok(fields) => records.push(fields),
            Err(message) => {
                if options.quarantine_malformed_rows {
                    quality.count_row(idx + 1);
                } else {
                    return Err(DataError::Csv {
                        line: idx + 1,
                        message,
                    });
                }
            }
        }
    }

    let mut builder = DataFrameBuilder::new();
    let mut numeric = vec![true; n_cols];
    for record in &records {
        for (j, field) in record.iter().enumerate() {
            let f = field.trim();
            if !f.is_empty() && f.parse::<f64>().is_err() {
                numeric[j] = false;
            }
        }
    }
    let forced = |j: usize| options.force_categorical.iter().any(|n| *n == names[j]);
    for (j, name) in names.iter().enumerate() {
        if numeric[j] && !forced(j) {
            builder.add_continuous(name.clone())?;
        } else {
            builder.add_categorical(name.clone())?;
        }
    }
    for record in records {
        let row: Vec<Value> = record
            .into_iter()
            .enumerate()
            .map(|(j, field)| {
                let f = field.trim();
                if f.is_empty() {
                    Value::Null
                } else if numeric[j] && !forced(j) {
                    match f.parse::<f64>() {
                        Ok(v) if v.is_finite() => Value::Num(v),
                        _ => {
                            count_cell(&mut quality, &names[j]);
                            Value::Null
                        }
                    }
                } else {
                    Value::Cat(f.to_string())
                }
            })
            .collect();
        builder.push_row(row)?;
    }
    Ok((builder.finish(), quality))
}

/// Whether some record of `text` runs past its first physical line, i.e.
/// holds a line break inside quotes (or an unterminated quote before more
/// lines). That is the one input class on which the readers may differ.
fn has_quoted_line_break(text: &str, separator: char) -> bool {
    let mut tokens = Tokenizer::new(text, separator);
    let mut fields = Vec::new();
    while let Some(record) = tokens.next_record(&mut fields) {
        let first_line_end = text[record.start..]
            .find('\n')
            .map_or(text.len(), |i| record.start + i + 1);
        if tokens.pos > first_line_end {
            return true;
        }
    }
    false
}

/// SplitMix64: a tiny deterministic generator driven by the case seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'p>(&mut self, pool: &[&'p str]) -> &'p str {
        pool[self.below(pool.len())]
    }
}

const SEPARATORS: &[char] = &[',', ';', '\t', '§', '|'];
const NAMES: &[&str] = &["a", "b", "zip", "x y", "q,h", "n\"m", "c"];
const NUMERIC: &[&str] = &[
    "1",
    "-2.5",
    "3e2",
    "0",
    " 4 ",
    "\u{a0}5\u{a0}",
    "\u{3000}6",
    "+7",
    ".5",
    "NaN",
    "inf",
    "-inf",
    "1e309",
    "",
    "  ",
];
const LEVELS: &[&str] = &[
    "a",
    "b c",
    "NA",
    "x",
    "\u{a0}y",
    "z\u{2003}",
    "p\rq",
    "say \"hi\"",
    "k,l",
    "m;n",
    "o§",
    "",
];
const BLANK_LINES: &[&str] = &["", "   ", "\u{a0}", "\t", "\r", "\u{3000} "];

/// Column kinds the generator draws from. `Demoted(at)` is numeric except
/// for one categorical cell at row `at` (0 = first, 1 = middle, 2 = last).
#[derive(Clone, Copy)]
enum Kind {
    Numeric,
    Categorical,
    Demoted(usize),
}

/// Renders one cell: plain when that is unambiguous, otherwise (or by
/// chance) quoted, sometimes with text after the closing quote.
fn render_cell(draw: &mut Draw, value: &str, sep: char, out: &mut String) {
    let needs_quotes = value.contains(sep) || value.contains('"');
    match draw.below(6) {
        _ if needs_quotes || draw.one_in(4) => {
            out.push('"');
            out.push_str(&value.replace('"', "\"\""));
            out.push('"');
        }
        0 => {
            // Text after a closing quote: `"a"b` reads as `ab`.
            let split = value.char_indices().nth(1).map_or(value.len(), |(i, _)| i);
            out.push('"');
            out.push_str(&value[..split]);
            out.push('"');
            out.push_str(&value[split..]);
        }
        _ => out.push_str(value),
    }
}

/// One generated CSV input and the options to read it with.
#[derive(Debug)]
struct Case {
    text: String,
    options: CsvOptions,
}

fn generate(seed: u64) -> Case {
    let mut draw = Draw(seed);
    let sep = SEPARATORS[draw.below(SEPARATORS.len())];
    let n_cols = 1 + draw.below(4);
    let mut names: Vec<&str> = Vec::new();
    while names.len() < n_cols {
        let name = draw.pick(NAMES);
        // Mostly distinct names; a rare duplicate exercises the schema error.
        if !names.contains(&name) || draw.one_in(40) {
            names.push(name);
        }
    }
    let kinds: Vec<Kind> = (0..n_cols)
        .map(|_| match draw.below(4) {
            0 => Kind::Categorical,
            1 => Kind::Demoted(draw.below(3)),
            _ => Kind::Numeric,
        })
        .collect();
    let n_rows = draw.below(10);
    let crlf = draw.one_in(3);
    let mut lines: Vec<String> = Vec::new();
    let mut header = String::new();
    for (j, name) in names.iter().enumerate() {
        if j > 0 {
            header.push(sep);
        }
        render_cell(&mut draw, name, sep, &mut header);
    }
    lines.push(header);
    for row in 0..n_rows {
        if draw.one_in(6) {
            lines.push(draw.pick(BLANK_LINES).to_string());
        }
        let mut line = String::new();
        let mut width = n_cols;
        if draw.one_in(12) {
            // Ragged: one field short or one too many.
            width = if draw.one_in(2) {
                n_cols - 1
            } else {
                n_cols + 1
            };
        }
        for j in 0..width {
            if j > 0 {
                line.push(sep);
            }
            let kind = kinds.get(j).copied().unwrap_or(Kind::Categorical);
            let demote_row = match kind {
                Kind::Demoted(0) => Some(0),
                Kind::Demoted(1) => Some(n_rows / 2),
                Kind::Demoted(_) => Some(n_rows.saturating_sub(1)),
                _ => None,
            };
            let value = match kind {
                Kind::Categorical => draw.pick(LEVELS),
                _ if demote_row == Some(row) => draw.pick(&["a", "b c", "NA", "x"]),
                _ => draw.pick(NUMERIC),
            };
            render_cell(&mut draw, value, sep, &mut line);
        }
        match draw.below(40) {
            // A stray quote in the middle of an unquoted field.
            0 => line.push_str(&format!("{sep}x\"y")),
            // An unterminated quote: a quoted line break to the new reader.
            1 => line.push_str(&format!("{sep}\"open")),
            // A line break inside a quoted field.
            2 => line.push_str(&format!("{sep}\"two\nlines\"")),
            _ => {}
        }
        lines.push(line);
    }
    if draw.one_in(4) {
        lines.push(draw.pick(BLANK_LINES).to_string());
    }
    let ending = if crlf { "\r\n" } else { "\n" };
    let mut text = lines.join(ending);
    if draw.below(3) > 0 {
        text.push_str(ending);
    }
    let mut force_categorical: Vec<String> = names
        .iter()
        .filter(|_| draw.one_in(4))
        .map(|n| n.to_string())
        .collect();
    if draw.one_in(8) {
        force_categorical.push("missing".to_string());
    }
    Case {
        text,
        options: CsvOptions {
            separator: sep,
            force_categorical,
            quarantine_malformed_rows: draw.one_in(2),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The column-direct reader returns the oracle's frame and quality
    /// report, or the same error, on every input without a quoted line
    /// break; with one, the oracle (reading the file strictly) errors.
    #[test]
    fn column_direct_reader_matches_the_row_wise_oracle(seed in any::<u64>()) {
        let case = generate(seed);
        let new = read_csv_str_with_quality(&case.text, &case.options);
        let old = read(&case.text, &case.options);
        if has_quoted_line_break(&case.text, case.options.separator) {
            if !case.options.quarantine_malformed_rows {
                prop_assert!(old.is_err(), "oracle read a quoted line break: {case:?}");
            }
            return Ok(());
        }
        match (new, old) {
            (Ok(new), Ok(old)) => prop_assert_eq!(new, old, "{:?}", case),
            (Err(new), Err(old)) => {
                prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "{:?}", case)
            }
            (new, old) => prop_assert!(false, "one reader failed: {new:?} vs {old:?} on {case:?}"),
        }
    }
}

#[test]
fn generator_covers_every_listed_input_class() {
    let cases: Vec<Case> = (0..512).map(generate).collect();
    let any = |pred: &dyn Fn(&Case) -> bool| cases.iter().any(pred);
    assert!(any(&|c| c.text.contains("\"\"")), "doubled quotes");
    assert!(any(&|c| c.text.contains("\r\n")), "CRLF");
    assert!(any(&|c| c.text.contains("p\rq")), "lone CR");
    assert!(any(&|c| c.text.contains('§')), "multi-byte separator");
    assert!(any(&|c| c.text.contains("x\"y")), "stray quote");
    assert!(any(&|c| c.text.contains("1e309")), "overflow");
    assert!(any(&|c| !c.options.force_categorical.is_empty()), "forced");
    assert!(any(&|c| c.options.quarantine_malformed_rows), "quarantine");
    assert!(any(&|c| has_quoted_line_break(
        &c.text,
        c.options.separator
    )));
    let both_ok = cases
        .iter()
        .filter(|c| read_csv_str_with_quality(&c.text, &c.options).is_ok())
        .count();
    // Most inputs must load, or the comparison would only test errors.
    assert!(
        both_ok * 2 > cases.len(),
        "{both_ok} of {} load",
        cases.len()
    );
}

#[test]
fn demotion_rows_first_middle_last_keep_first_appearance_levels() {
    for text in [
        "v,w\nq,1\n2,2\n3,3\n",
        "v,w\n1,1\nq,2\n3,3\n",
        "v,w\n1,1\n2,2\nq,3\n",
        "v,w\n1,1\nbad\"row,9\n2,2\nq,3\n",
    ] {
        let options = CsvOptions {
            quarantine_malformed_rows: true,
            ..CsvOptions::default()
        };
        let new = read_csv_str_with_quality(text, &options).unwrap();
        assert_eq!(new, read(text, &options).unwrap(), "{text:?}");
    }
}
