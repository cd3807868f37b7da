//! Data-quality accounting for hardened ingestion.
//!
//! Real CSVs carry `NaN`/`inf` cells and ragged rows. Instead of poisoning
//! downstream statistics (a single `+inf` cell makes every mean infinite) or
//! aborting the whole load, the reader *quarantines* the offending cells and
//! rows — they become nulls / are dropped — and records what it did in a
//! [`DataQualityReport`] so the caller can decide whether the damage is
//! acceptable. The same counts flow into run telemetry via the
//! `hdx.data.quarantine.*` counters (under the `obs` feature).

/// Quarantine counts for one column of a loaded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnQuality {
    /// Column name.
    pub name: String,
    /// Cells whose numeric value was `NaN` or `±inf`, stored as null.
    pub non_finite: u64,
}

/// What ingestion quarantined, per column and per row.
///
/// An empty report (`is_clean()`) means the frame holds exactly what the
/// file said. A non-empty one means the frame is a cleaned subset: dirty
/// numeric cells became nulls and (when the caller opted in via
/// `CsvOptions::quarantine_malformed_rows`) unparseable rows were dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataQualityReport {
    /// Columns that had at least one quarantined cell, in row-major order
    /// of each column's first quarantined cell.
    pub columns: Vec<ColumnQuality>,
    /// Malformed rows dropped (ragged or bad quoting); always zero unless
    /// row quarantine was opted into.
    pub rows_quarantined: u64,
    /// 1-based file lines of the first dropped rows (capped at
    /// [`MAX_RECORDED_LINES`]).
    pub quarantined_lines: Vec<usize>,
}

/// Cap on remembered per-row line numbers, so a pathological file cannot
/// balloon the report.
pub const MAX_RECORDED_LINES: usize = 32;

impl DataQualityReport {
    /// True when nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.columns.is_empty() && self.rows_quarantined == 0
    }

    /// Total quarantined cells across all columns.
    pub fn cells_quarantined(&self) -> u64 {
        self.columns.iter().map(|c| c.non_finite).sum()
    }

    /// Records a dropped row at 1-based file `line`.
    pub(crate) fn count_row(&mut self, line: usize) {
        self.rows_quarantined += 1;
        if self.quarantined_lines.len() < MAX_RECORDED_LINES {
            self.quarantined_lines.push(line);
        }
    }

    /// One-line human-readable summary, or `None` when clean.
    pub fn summary(&self) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        let mut parts = Vec::new();
        if self.cells_quarantined() > 0 {
            let cols: Vec<String> = self
                .columns
                .iter()
                .map(|c| format!("{}×{}", c.non_finite, c.name))
                .collect();
            parts.push(format!(
                "{} non-finite/malformed cell(s) nulled ({})",
                self.cells_quarantined(),
                cols.join(", ")
            ));
        }
        if self.rows_quarantined > 0 {
            parts.push(format!(
                "{} malformed row(s) dropped (first at line(s) {:?})",
                self.rows_quarantined, self.quarantined_lines
            ));
        }
        Some(parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_has_no_summary() {
        let r = DataQualityReport::default();
        assert!(r.is_clean());
        assert_eq!(r.cells_quarantined(), 0);
        assert_eq!(r.summary(), None);
    }

    #[test]
    fn cell_counts_aggregate_per_column() {
        let column = |name: &str, non_finite| ColumnQuality {
            name: name.to_string(),
            non_finite,
        };
        let r = DataQualityReport {
            columns: vec![column("x", 3), column("y", 1)],
            ..DataQualityReport::default()
        };
        assert!(!r.is_clean());
        assert_eq!(r.cells_quarantined(), 4);
        let s = r.summary().unwrap();
        assert_eq!(s, "4 non-finite/malformed cell(s) nulled (3×x, 1×y)");
    }

    #[test]
    fn row_lines_are_capped() {
        let mut r = DataQualityReport::default();
        for line in 0..100 {
            r.count_row(line);
        }
        assert_eq!(r.rows_quarantined, 100);
        assert_eq!(r.quarantined_lines.len(), MAX_RECORDED_LINES);
        assert!(r.summary().unwrap().contains("100 malformed row(s)"));
    }
}
