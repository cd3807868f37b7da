//! CSV reader/writer with type inference.
//!
//! Reads RFC 4180 text: a header record, a single-`char` separator (`,` by
//! default; multi-byte separators such as `§` are matched as their UTF-8
//! bytes), double-quote quoting with `""` escapes, and line breaks inside
//! quoted fields. Records end at `\n` or `\r\n`; a lone `\r` is data. Lines
//! holding only whitespace are skipped, and error and quarantine line
//! numbers are the 1-based physical line on which the record starts.
//!
//! Loading is one pass over the bytes. The text is validated as UTF-8 once,
//! each record is tokenized into borrowed field spans, and every cell is
//! parsed straight into its column: a column stays continuous (`Vec<f64>`)
//! while every non-empty trimmed cell parses as `f64`, and is demoted to
//! categorical at its first cell that does not. Demotion re-scans only that
//! column's earlier cells from the retained text, so level order stays
//! first-appearance order. Empty cells are nulls.
//!
//! The same tokenizer backs [`csv_records`], which lets callers that only
//! need record boundaries and widths (the service's append validation)
//! agree with the loader on what one record is.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use hdx_governor::fail_point;

use crate::column::{CategoricalColumn, Column, ContinuousColumn, NULL_CODE};
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::quality::{ColumnQuality, DataQualityReport};
use crate::schema::{Attribute, Schema};

#[cfg(test)]
mod oracle;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Attribute names to force categorical even when numeric-looking
    /// (e.g. zip codes).
    pub force_categorical: Vec<String>,
    /// Drop malformed rows (ragged, bad quoting) into the quality report
    /// instead of failing the whole load (default `false`: reject the file).
    pub quarantine_malformed_rows: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            separator: ',',
            force_categorical: Vec::new(),
            quarantine_malformed_rows: false,
        }
    }
}

/// Widest header accepted: attribute ids are `u16`.
const MAX_COLUMNS: usize = u16::MAX as usize + 1;

const UNTERMINATED: &str = "unterminated quoted field";
const MID_FIELD_QUOTE: &str = "quote in the middle of an unquoted field";

/// One field of a record, as a byte span of the source text.
///
/// Unquoted fields and quoted fields without escapes span their value
/// directly (for the latter, the text between the quotes). A field with a
/// `""` escape or text after its closing quote spans its raw text from the
/// opening quote and is decoded by [`unescape`].
#[derive(Debug, Clone, Copy)]
struct Field {
    start: usize,
    end: usize,
    escaped: bool,
}

/// What [`Tokenizer::next_record`] found.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// 1-based physical line the record starts on.
    line: usize,
    /// Byte span of a well-formed record's text, without its line ending.
    start: usize,
    end: usize,
    /// Why the record is malformed, if it is.
    error: Option<&'static str>,
}

/// The record tokenizer shared by loading and [`csv_records`].
///
/// Cheap to copy: a copy taken after the header replays the body, which
/// is how a demoted column re-reads its earlier cells.
#[derive(Debug, Clone, Copy)]
struct Tokenizer<'a> {
    text: &'a str,
    separator: [u8; 4],
    separator_len: usize,
    pos: usize,
    line: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(text: &'a str, separator: char) -> Self {
        let mut buf = [0u8; 4];
        let separator_len = separator.encode_utf8(&mut buf).len();
        Self {
            text,
            separator: buf,
            separator_len,
            pos: 0,
            line: 1,
        }
    }

    /// The bytes from `at` to the end of the text.
    fn rest(&self, at: usize) -> &'a [u8] {
        self.text.as_bytes().get(at..).unwrap_or_default()
    }

    /// Advances past whitespace-only lines (`str::trim` semantics).
    /// Returns `false` at the end of the text.
    fn skip_blank_lines(&mut self) -> bool {
        loop {
            let rest = self.rest(self.pos);
            match rest.first() {
                None => return false,
                // Printable ASCII is never whitespace: the common case.
                Some(&b) if (0x21..0x80).contains(&b) => return true,
                Some(_) => {}
            }
            let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            let line = self.text.get(self.pos..self.pos + len).unwrap_or_default();
            if !line.trim().is_empty() {
                return true;
            }
            self.skip_line();
        }
    }

    /// Tokenizes the next record into `fields` (cleared first), skipping
    /// blank lines before it. `None` at the end of the text.
    ///
    /// A malformed record leaves the fields read so far in `fields` and
    /// resumes the scan at the next physical line.
    fn next_record(&mut self, fields: &mut Vec<Field>) -> Option<Record> {
        if !self.skip_blank_lines() {
            return None;
        }
        fields.clear();
        let (line, start) = (self.line, self.pos);
        let (end, error) = match self.scan_fields(fields) {
            Ok(end) => (end, None),
            Err(message) => {
                self.skip_line();
                (self.pos, Some(message))
            }
        };
        Some(Record {
            line,
            start,
            end,
            error,
        })
    }

    /// Scans one record's fields from `self.pos`, leaving `self.pos` at the
    /// start of the next record. Returns where the record's text ends. On
    /// error `self.pos` is left inside the physical line at fault.
    fn scan_fields(&mut self, fields: &mut Vec<Field>) -> Result<usize, &'static str> {
        let bytes = self.text.as_bytes();
        let separator = self.separator.get(..self.separator_len).unwrap_or_default();
        let mut i = self.pos;
        loop {
            let field_start = i;
            // A leading quote opens a quoted section: `""` is an escaped
            // quote and line breaks are data until the closing quote.
            let mut quoted = None;
            if bytes.get(i) == Some(&b'"') {
                let content_start = i + 1;
                let mut escaped = false;
                i = content_start;
                loop {
                    let rest = self.rest(i);
                    let Some(q) = rest.iter().position(|&b| b == b'"') else {
                        self.line += count_newlines(rest);
                        self.pos = bytes.len();
                        return Err(UNTERMINATED);
                    };
                    self.line += count_newlines(rest.get(..q).unwrap_or_default());
                    i += q + 1;
                    if bytes.get(i) != Some(&b'"') {
                        break;
                    }
                    escaped = true;
                    i += 1;
                }
                quoted = Some((content_start, i - 1, escaped));
            }
            // The unquoted run (or the text after a closing quote) ends at
            // a separator, a line ending or the end of the text.
            let run_start = i;
            let line_end = loop {
                i = self.skip_plain(i);
                let Some(&b) = bytes.get(i) else {
                    break false;
                };
                if b == b'\n' {
                    break true;
                }
                if b == b'"' {
                    self.pos = i;
                    return Err(MID_FIELD_QUOTE);
                }
                // `b` is the separator's first byte: a whole separator
                // unless it is the `\r` of a CRLF or a multi-byte prefix.
                let crlf = b == b'\r' && bytes.get(i + 1) == Some(&b'\n');
                if !crlf && (separator.len() == 1 || self.rest(i).starts_with(separator)) {
                    break false;
                }
                i += 1;
            };
            let mut end = i;
            if line_end && end > run_start && bytes.get(end - 1) == Some(&b'\r') {
                end -= 1;
            }
            let field = match quoted {
                Some((start, content_end, false)) if end == run_start => Field {
                    start,
                    end: content_end,
                    escaped: false,
                },
                Some(_) => Field {
                    start: field_start,
                    end,
                    escaped: true,
                },
                None => Field {
                    start: field_start,
                    end,
                    escaped: false,
                },
            };
            // ALLOC: `fields` is the caller's reused per-record buffer; it
            // grows to the record width once and is cleared, not freed.
            fields.push(field);
            if line_end {
                self.pos = i + 1;
                self.line += 1;
                return Ok(end);
            }
            if i >= bytes.len() {
                self.pos = i;
                return Ok(end);
            }
            i += separator.len();
        }
    }

    /// The offset of the first byte at or after `i` that can end an
    /// unquoted run — the separator's first byte, `\n` or `"` — or the
    /// end of the text. Tests eight bytes per step.
    fn skip_plain(&self, mut i: usize) -> usize {
        let [sep0, ..] = self.separator;
        let (sep, newline, quote) = (
            LANES * u64::from(sep0),
            LANES * u64::from(b'\n'),
            LANES * u64::from(b'"'),
        );
        let bytes = self.text.as_bytes();
        while let Some(word) = bytes
            .get(i..i + 8)
            .and_then(|w| <[u8; 8]>::try_from(w).ok())
        {
            let word = u64::from_le_bytes(word);
            let hits =
                zero_bytes(word ^ sep) | zero_bytes(word ^ newline) | zero_bytes(word ^ quote);
            if hits != 0 {
                return i + (hits.trailing_zeros() / 8) as usize;
            }
            i += 8;
        }
        while let Some(&b) = bytes.get(i) {
            if b == sep0 || b == b'\n' || b == b'"' {
                break;
            }
            i += 1;
        }
        i
    }

    /// Moves past the end of the current physical line.
    fn skip_line(&mut self) {
        match self.rest(self.pos).iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.pos += i + 1;
                self.line += 1;
            }
            None => self.pos = self.text.len(),
        }
    }

    /// The value of `field`, decoding escapes into `scratch` when needed.
    fn cell<'s>(&self, field: Field, scratch: &'s mut String) -> &'s str
    where
        'a: 's,
    {
        let raw = self.text.get(field.start..field.end).unwrap_or_default();
        if field.escaped {
            unescape(raw, scratch);
            scratch
        } else {
            raw
        }
    }
}

/// `0x01` in every byte lane.
const LANES: u64 = 0x0101_0101_0101_0101;

/// The high bit of every byte lane of `x` that is zero (exact: no
/// borrows cross lanes).
fn zero_bytes(x: u64) -> u64 {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    !(((x & !HIGH) + !HIGH) | x) & HIGH
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// `str::parse::<f64>`, with a fast path for unsigned integers of up to 15
/// digits: they are exact in `f64`, so the result has the same bits.
fn parse_number(cell: &str) -> Option<f64> {
    let digits = cell.as_bytes();
    if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        let n = digits
            .iter()
            .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
        return Some(n as f64);
    }
    cell.parse().ok()
}

/// `str::trim`, skipping the Unicode scan when both ends are printable
/// ASCII (never whitespace).
fn trim_cell(cell: &str) -> &str {
    let printable = |b: Option<&u8>| b.is_some_and(|b| (0x21..0x80).contains(b));
    if printable(cell.as_bytes().first()) && printable(cell.as_bytes().last()) {
        cell
    } else {
        cell.trim()
    }
}

/// Up to the first eight bytes of `bytes` as one word.
fn first_word(bytes: &[u8]) -> u64 {
    match bytes.get(..8).and_then(|w| <[u8; 8]>::try_from(w).ok()) {
        Some(word) => u64::from_le_bytes(word),
        None => bytes.iter().fold(0, |w, &b| w << 8 | u64::from(b)),
    }
}

/// Number of slots in a [`LevelCache`].
const LEVEL_SLOTS: usize = 256;

/// A direct-mapped cache of recently seen level codes in front of a
/// categorical column's level map.
///
/// A repeated level costs one cheap hash of its bytes and one string
/// comparison instead of a keyed map lookup. The cache never decides
/// anything: a miss, or a hit whose level differs, falls through to the
/// column's own map, so crafted collisions only make it as slow as the
/// map alone.
struct LevelCache {
    slots: [u32; LEVEL_SLOTS],
}

impl LevelCache {
    fn new() -> Self {
        Self {
            slots: [NULL_CODE; LEVEL_SLOTS],
        }
    }

    /// Appends `value` (trimmed; empty is null) to `column`.
    fn push(&mut self, column: &mut CategoricalColumn, value: &str) {
        if value.is_empty() {
            column.push_null();
            return;
        }
        // The slot hashes the length and the first and last eight bytes:
        // constant work per cell, and the comparison below settles it.
        let bytes = value.as_bytes();
        let n = bytes.len();
        let head = first_word(bytes);
        let tail = first_word(bytes.get(n.saturating_sub(8)..).unwrap_or_default());
        let hash = (head ^ tail.rotate_left(32) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = (hash >> 56) as usize % LEVEL_SLOTS;
        let cached = self.slots.get(slot).copied().unwrap_or(NULL_CODE);
        let code = match column.levels().get(cached as usize) {
            Some(level) if level == value => cached,
            _ => {
                let code = column.intern(value);
                if let Some(s) = self.slots.get_mut(slot) {
                    *s = code;
                }
                code
            }
        };
        column.push_code(code);
    }
}

/// Decodes a validated quoted field: `""` becomes `"`, the closing quote
/// is dropped and any text after it is kept verbatim.
fn unescape(raw: &str, out: &mut String) {
    out.clear();
    let mut rest = raw.strip_prefix('"').unwrap_or(raw);
    while let Some((before, after)) = rest.split_once('"') {
        out.push_str(before);
        match after.strip_prefix('"') {
            Some(next) => {
                out.push('"');
                rest = next;
            }
            None => {
                out.push_str(after);
                return;
            }
        }
    }
    out.push_str(rest);
}

/// One record of CSV text, as the loader tokenizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvRecord<'a> {
    /// The record's raw text without its line ending. Line breaks inside
    /// quoted fields stay in it.
    pub text: &'a str,
    /// Number of fields in the record.
    pub fields: usize,
}

/// Iterator over the records of CSV text; see [`csv_records`].
#[derive(Debug)]
pub struct CsvRecords<'a> {
    tokens: Tokenizer<'a>,
    fields: Vec<Field>,
}

impl<'a> Iterator for CsvRecords<'a> {
    type Item = Result<CsvRecord<'a>, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        let record = self.tokens.next_record(&mut self.fields)?;
        Some(match record.error {
            Some(message) => Err(DataError::Csv {
                line: record.line,
                message: message.to_string(),
            }),
            None => Ok(CsvRecord {
                text: self
                    .tokens
                    .text
                    .get(record.start..record.end)
                    .unwrap_or_default(),
                fields: self.fields.len(),
            }),
        })
    }
}

/// Splits CSV text into records with the loader's own tokenizer.
///
/// Whitespace-only lines are skipped. A badly quoted record yields
/// [`DataError::Csv`] at its starting line, and the scan resumes at the
/// next physical line. A record that this iterator yields with `n` fields
/// is exactly one `n`-field record to [`read_csv_str`] when placed on a
/// line of its own.
pub fn csv_records(text: &str, separator: char) -> CsvRecords<'_> {
    CsvRecords {
        tokens: Tokenizer::new(text, separator),
        fields: Vec::new(),
    }
}

fn quote_field(field: &str, sep: char) -> String {
    if field.contains(sep) || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parses CSV text into a [`DataFrame`] with type inference.
///
/// Convenience wrapper over [`read_csv_str_with_quality`] that discards the
/// quality report.
///
/// # Errors
/// Returns [`DataError::Csv`] on malformed input (ragged rows, bad quoting,
/// missing header).
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<DataFrame, DataError> {
    read_csv_str_with_quality(text, options).map(|(df, _)| df)
}

/// A column under construction: continuous until a cell fails to parse.
enum ColumnBuild {
    Continuous {
        values: Vec<f64>,
        /// Non-finite cells nulled so far, and the row of the first one.
        non_finite: u64,
        first_non_finite: usize,
    },
    Categorical(CategoricalColumn, Box<LevelCache>),
}

/// Re-reads `column` of the first `rows` kept records after the header
/// into a categorical column (the demotion of a continuous column).
fn demote(
    mut body: Tokenizer<'_>,
    column: usize,
    n_cols: usize,
    rows: usize,
    cache: &mut LevelCache,
) -> CategoricalColumn {
    let mut out = CategoricalColumn::new();
    let mut fields = Vec::with_capacity(n_cols);
    let mut scratch = String::new();
    let mut kept = 0;
    while kept < rows {
        let Some(record) = body.next_record(&mut fields) else {
            break;
        };
        if record.error.is_some() || fields.len() != n_cols {
            continue;
        }
        match fields.get(column) {
            Some(&field) => cache.push(&mut out, trim_cell(body.cell(field, &mut scratch))),
            None => out.push_null(),
        }
        kept += 1;
    }
    out
}

/// Parses CSV text into a [`DataFrame`] plus the [`DataQualityReport`] of
/// what ingestion quarantined.
///
/// Type inference: a column is continuous iff every non-empty trimmed cell
/// of every kept row parses as `f64` and the column is not named in
/// [`CsvOptions::force_categorical`].
///
/// Hardening semantics:
/// * numeric cells that parse to `NaN`/`±inf` are stored as null and counted
///   per column — a single `inf` would otherwise make every downstream mean
///   infinite;
/// * with [`CsvOptions::quarantine_malformed_rows`] set, ragged or badly
///   quoted rows are dropped and counted instead of failing the load.
///   Dropped rows take no part in type inference.
///
/// # Errors
/// Returns [`DataError::Csv`] on malformed input the options do not allow
/// quarantining (and always on a missing/unparseable header).
pub fn read_csv_str_with_quality(
    text: &str,
    options: &CsvOptions,
) -> Result<(DataFrame, DataQualityReport), DataError> {
    fail_point!("data::csv-read", |message: String| DataError::Csv {
        line: 0,
        message,
    });
    let mut tokens = Tokenizer::new(text, options.separator);
    let mut fields = Vec::new();
    let mut scratch = String::new();
    let header = tokens.next_record(&mut fields).ok_or(DataError::Csv {
        line: 1,
        message: "missing header row".to_string(),
    })?;
    if let Some(message) = header.error {
        return Err(DataError::Csv {
            line: 1,
            message: message.to_string(),
        });
    }
    let names: Vec<String> = fields
        .iter()
        .map(|&f| tokens.cell(f, &mut scratch).to_string())
        .collect();
    let n_cols = names.len();
    if n_cols > MAX_COLUMNS {
        return Err(DataError::Csv {
            line: 1,
            message: format!("{n_cols} columns; at most {MAX_COLUMNS} are supported"),
        });
    }
    let body = tokens;

    let mut columns: Vec<ColumnBuild> = names
        .iter()
        .map(|name| {
            if options.force_categorical.iter().any(|n| n == name) {
                ColumnBuild::Categorical(CategoricalColumn::new(), Box::new(LevelCache::new()))
            } else {
                ColumnBuild::Continuous {
                    values: Vec::new(),
                    non_finite: 0,
                    first_non_finite: 0,
                }
            }
        })
        .collect();

    let mut quality = DataQualityReport::default();
    let mut n_rows = 0;
    while let Some(record) = tokens.next_record(&mut fields) {
        let malformed = match record.error {
            Some(message) => Some(message.to_string()),
            None if fields.len() != n_cols => {
                Some(format!("expected {n_cols} fields, found {}", fields.len()))
            }
            None => None,
        };
        if let Some(message) = malformed {
            if options.quarantine_malformed_rows {
                quality.count_row(record.line);
                continue;
            }
            return Err(DataError::Csv {
                line: record.line,
                message,
            });
        }
        for (j, (&field, column)) in fields.iter().zip(columns.iter_mut()).enumerate() {
            let value = trim_cell(tokens.cell(field, &mut scratch));
            match column {
                ColumnBuild::Categorical(c, cache) => cache.push(c, value),
                ColumnBuild::Continuous {
                    values,
                    non_finite,
                    first_non_finite,
                } => {
                    if value.is_empty() {
                        values.push(f64::NAN);
                        continue;
                    }
                    match parse_number(value) {
                        Some(v) if v.is_finite() => values.push(v),
                        Some(_) => {
                            if *non_finite == 0 {
                                *first_non_finite = n_rows;
                            }
                            *non_finite += 1;
                            values.push(f64::NAN);
                        }
                        None => {
                            let mut cache = Box::new(LevelCache::new());
                            let mut demoted = demote(body, j, n_cols, n_rows, &mut cache);
                            cache.push(&mut demoted, value);
                            *column = ColumnBuild::Categorical(demoted, cache);
                        }
                    }
                }
            }
        }
        n_rows += 1;
    }

    // Report columns in row-major order of their first quarantined cell.
    let mut flagged: Vec<(usize, usize, ColumnQuality)> = Vec::new();
    let mut schema = Schema::new();
    let mut built = Vec::with_capacity(n_cols);
    for (j, (name, column)) in names.into_iter().zip(columns).enumerate() {
        match column {
            ColumnBuild::Continuous {
                values,
                non_finite,
                first_non_finite,
            } => {
                if non_finite > 0 {
                    let name = name.clone();
                    flagged.push((first_non_finite, j, ColumnQuality { name, non_finite }));
                }
                schema.push(Attribute::continuous(name))?;
                built.push(Column::Continuous(ContinuousColumn::from_values(values)));
            }
            ColumnBuild::Categorical(c, _) => {
                schema.push(Attribute::categorical(name))?;
                built.push(Column::Categorical(c));
            }
        }
    }
    flagged.sort_unstable_by_key(|&(row, j, _)| (row, j));
    quality.columns = flagged.into_iter().map(|(_, _, c)| c).collect();
    hdx_obs::counter_add!(DataCellsQuarantined, quality.cells_quarantined());
    hdx_obs::counter_add!(DataRowsQuarantined, quality.rows_quarantined);
    Ok((DataFrame::from_columns(schema, built)?, quality))
}

/// Reads a CSV file into a [`DataFrame`].
///
/// # Errors
/// I/O failures and parse errors.
pub fn read_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<DataFrame, DataError> {
    read_csv_with_quality(path, options).map(|(df, _)| df)
}

/// Reads a CSV file into a [`DataFrame`] plus its [`DataQualityReport`]
/// (see [`read_csv_str_with_quality`]).
///
/// # Errors
/// I/O failures (a file that is not UTF-8 among them) and parse errors.
pub fn read_csv_with_quality(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(DataFrame, DataQualityReport), DataError> {
    let text = String::from_utf8(std::fs::read(path)?).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    read_csv_str_with_quality(&text, options)
}

/// Serialises a [`DataFrame`] to CSV text.
pub fn write_csv_string(df: &DataFrame, separator: char) -> String {
    let mut out = String::new();
    let header: Vec<String> = df
        .schema()
        .iter()
        .map(|(_, a)| quote_field(a.name(), separator))
        .collect();
    out.push_str(&header.join(&separator.to_string()));
    out.push('\n');
    for row in 0..df.n_rows() {
        let fields: Vec<String> = df
            .schema()
            .iter()
            .map(|(id, _)| {
                let v = df.column(id).value(row);
                quote_field(&v.to_string(), separator)
            })
            .collect();
        out.push_str(&fields.join(&separator.to_string()));
        out.push('\n');
    }
    out
}

/// Writes a [`DataFrame`] as CSV to `path`.
///
/// # Errors
/// I/O failures.
pub fn write_csv(df: &DataFrame, path: impl AsRef<Path>) -> Result<(), DataError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(write_csv_string(df, ',').as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::builder::DataFrameBuilder;
    use crate::schema::AttributeKind;
    use crate::value::Value;

    #[test]
    fn infers_kinds() {
        let df = read_csv_str(
            "age,sex,score\n31,M,0.5\n47,F,0.9\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let s = df.schema();
        assert_eq!(s.kind(s.id("age").unwrap()), AttributeKind::Continuous);
        assert_eq!(s.kind(s.id("sex").unwrap()), AttributeKind::Categorical);
        assert_eq!(s.kind(s.id("score").unwrap()), AttributeKind::Continuous);
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn empty_cells_become_null() {
        let df = read_csv_str("a,b\n1,\n,x\n", &CsvOptions::default()).unwrap();
        let a = df.schema().id("a").unwrap();
        let b = df.schema().id("b").unwrap();
        assert_eq!(df.continuous(a).get(1), None);
        assert_eq!(df.categorical(b).get(0), None);
    }

    #[test]
    fn force_categorical_overrides_inference() {
        let opts = CsvOptions {
            force_categorical: vec!["zip".to_string()],
            ..CsvOptions::default()
        };
        let df = read_csv_str("zip,x\n90210,1\n10001,2\n", &opts).unwrap();
        let zip = df.schema().id("zip").unwrap();
        assert_eq!(df.schema().kind(zip), AttributeKind::Categorical);
        assert_eq!(df.categorical(zip).get(0), Some("90210"));
    }

    #[test]
    fn quoted_fields_roundtrip() {
        let df = read_csv_str(
            "name,v\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let name = df.schema().id("name").unwrap();
        assert_eq!(df.categorical(name).get(0), Some("a,b"));
        assert_eq!(df.categorical(name).get(1), Some("say \"hi\""));

        let text = write_csv_string(&df, ',');
        let df2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(df2.categorical(name).get(0), Some("a,b"));
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv_str("a,b\n1\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 2, .. }));
    }

    #[test]
    fn non_finite_cells_are_quarantined_to_null() {
        // NaN and ±inf parse as f64, so `x` stays continuous — but the dirty
        // cells must become nulls, not poison every downstream mean.
        let dirty = "x,g\n1.0,a\nNaN,b\ninf,a\n-inf,b\n2.0,a\n";
        let (df, quality) = read_csv_str_with_quality(dirty, &CsvOptions::default()).unwrap();
        let x = df.schema().id("x").unwrap();
        assert_eq!(df.schema().kind(x), AttributeKind::Continuous);
        assert_eq!(df.n_rows(), 5);
        assert_eq!(df.continuous(x).get(0), Some(1.0));
        assert_eq!(df.continuous(x).get(1), None);
        assert_eq!(df.continuous(x).get(2), None);
        assert_eq!(df.continuous(x).get(3), None);
        assert_eq!(df.continuous(x).get(4), Some(2.0));
        assert!(df.continuous(x).values().iter().all(|v| !v.is_infinite()));
        assert_eq!(quality.cells_quarantined(), 3);
        assert_eq!(quality.columns.len(), 1);
        assert_eq!(quality.columns[0].name, "x");
        assert_eq!(quality.columns[0].non_finite, 3);
        assert_eq!(quality.rows_quarantined, 0);
        assert!(quality.summary().unwrap().contains("3×x"));
    }

    #[test]
    fn clean_input_yields_a_clean_report() {
        let (_, quality) =
            read_csv_str_with_quality("a,b\n1,x\n2,y\n", &CsvOptions::default()).unwrap();
        assert!(quality.is_clean());
    }

    #[test]
    fn malformed_rows_quarantined_when_opted_in() {
        let opts = CsvOptions {
            quarantine_malformed_rows: true,
            ..CsvOptions::default()
        };
        // Line 3 is ragged, line 5 has a stray quote; both drop.
        let dirty = "a,b\n1,x\n2\n3,y\nbad\"quote,z\n4,w\n";
        let (df, quality) = read_csv_str_with_quality(dirty, &opts).unwrap();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(quality.rows_quarantined, 2);
        assert_eq!(quality.quarantined_lines, vec![3, 5]);
        // The same file still fails hard under the default policy.
        assert!(read_csv_str(dirty, &CsvOptions::default()).is_err());
    }

    #[test]
    fn quarantined_rows_do_not_skew_inference() {
        let opts = CsvOptions {
            quarantine_malformed_rows: true,
            ..CsvOptions::default()
        };
        // The ragged row's lone field `oops` must not flip `a` categorical.
        let (df, quality) = read_csv_str_with_quality("a,b\n1,x\noops\n2,y\n", &opts).unwrap();
        let a = df.schema().id("a").unwrap();
        assert_eq!(df.schema().kind(a), AttributeKind::Continuous);
        assert_eq!(quality.rows_quarantined, 1);
    }

    #[test]
    fn bad_quote_rejected() {
        assert!(read_csv_str("a\nx\"y\n", &CsvOptions::default()).is_err());
        assert!(read_csv_str("a\n\"unterminated\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn too_wide_header_is_an_error_not_a_panic() {
        let header = vec!["c"; MAX_COLUMNS + 1].join(",");
        let err = read_csv_str(&header, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn missing_header_rejected() {
        assert!(read_csv_str("", &CsvOptions::default()).is_err());
        assert!(read_csv_str("\n\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn roundtrip_preserves_values() {
        let src = "age,sex\n31,M\n47,F\n,\n";
        let df = read_csv_str(src, &CsvOptions::default()).unwrap();
        let text = write_csv_string(&df, ',');
        let df2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(df, df2);
    }

    #[test]
    fn custom_separator() {
        let opts = CsvOptions {
            separator: ';',
            ..CsvOptions::default()
        };
        let df = read_csv_str("a;b\n1;x\n", &opts).unwrap();
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.n_attributes(), 2);
    }

    #[test]
    fn quoted_line_breaks_roundtrip() {
        let mut b = DataFrameBuilder::new();
        b.add_categorical("note").unwrap();
        b.add_continuous("x").unwrap();
        b.push_row(vec![
            Value::Cat("line one\nline two".into()),
            Value::Num(1.0),
        ])
        .unwrap();
        let df = b.finish();
        let text = write_csv_string(&df, ',');
        assert_eq!(text, "note,x\n\"line one\nline two\",1\n");
        assert_eq!(read_csv_str(&text, &CsvOptions::default()).unwrap(), df);
    }

    #[test]
    fn errors_report_the_line_a_record_starts_on() {
        // The quoted CRLF spans lines 2-3, so the ragged record is line 4.
        let err = read_csv_str("a,b\n\"x\r\ny\",1\n1,2,3\n", &CsvOptions::default());
        assert!(
            matches!(err, Err(DataError::Csv { line: 4, .. })),
            "{err:?}"
        );
        let err = read_csv_str("a\n1\n\n\"open\n2\n", &CsvOptions::default()).unwrap_err();
        assert!(
            matches!(&err, DataError::Csv { line: 4, message } if message == UNTERMINATED),
            "{err:?}"
        );
    }

    #[test]
    fn records_follow_the_loader_tokenizer() {
        let text = "58,\"Other, mixed\",x\r\n\n \n\"a\nb\",2,3\nbad\"q,1,2\n7,8\n";
        let got: Vec<_> = csv_records(text, ',')
            .map(|r| {
                r.map(|r| (r.text, r.fields))
                    .map_err(|e| e.to_string())
            })
            .collect();
        assert_eq!(
            got,
            vec![
                Ok(("58,\"Other, mixed\",x", 3)),
                Ok(("\"a\nb\",2,3", 3)),
                Err(format!("CSV parse error at line 6: {MID_FIELD_QUOTE}")),
                Ok(("7,8", 2)),
            ]
        );
        let unterminated = csv_records("58,\"Other,false\n1,2\n", ',').next();
        assert!(matches!(
            unterminated,
            Some(Err(DataError::Csv { line: 1, .. }))
        ));
    }

    /// Building blocks of generated levels: every character the writer
    /// must quote, plus the CRLF the reader must keep inside quotes.
    const PIECES: &[&str] = &[
        ",", ";", "§", "\t", "\"", "\"\"", "\n", "\r\n", " ", "b", "é",
    ];
    const SEPARATORS: &[char] = &[',', ';', '§', '\t'];

    fn level(pieces: &[usize]) -> String {
        // Letters at both ends: the reader trims cells, and a level must
        // not read back as a number.
        let inner: String = pieces.iter().map(|&i| PIECES[i % PIECES.len()]).collect();
        format!("a{inner}z")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `write_csv_string` → `read_csv_str` is the identity on frames
        /// whose levels and names hold separators, quotes and line breaks.
        #[test]
        fn write_then_read_roundtrips_special_levels(
            sep in 0usize..4,
            name in proptest::collection::vec(0usize..16, 0..4),
            rows in proptest::collection::vec(
                (proptest::collection::vec(0usize..16, 0..6), any::<bool>(), -50i32..50),
                0..8,
            ),
        ) {
            // An all-null column reads back continuous, whatever it was.
            prop_assume!(rows.iter().any(|(_, null, _)| !null));
            let sep = SEPARATORS[sep];
            let mut b = DataFrameBuilder::new();
            b.add_categorical(level(&name)).unwrap();
            b.add_continuous("x").unwrap();
            for (pieces, null, x) in &rows {
                let cell = if *null { Value::Null } else { Value::Cat(level(pieces)) };
                b.push_row(vec![cell, Value::Num(f64::from(*x) / 4.0)]).unwrap();
            }
            let df = b.finish();
            let text = write_csv_string(&df, sep);
            let options = CsvOptions { separator: sep, ..CsvOptions::default() };
            let back = read_csv_str(&text, &options);
            prop_assert!(back.is_ok(), "{back:?} on {text:?}");
            prop_assert_eq!(back.unwrap(), df, "{:?}", text);
        }
    }
}
