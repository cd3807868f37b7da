//! The traced replay: one exploration composed from the same public
//! functions `HDivExplorer::fit_mode` composes, each call timed as a span.

use std::path::Path;
use std::time::{Duration, Instant};

use hdx_core::checkpoint::CheckpointStore;
use hdx_core::{
    real_outcomes, report_to_json, DivergenceReport, ExplorationMode, Governor, HDivExplorer,
    HDivExplorerConfig, OutcomeFn,
};
use hdx_data::{Column, CsvOptions, DataFrame, NULL_CODE};
use hdx_mining::{mine_governed, MiningConfig, Transactions};
use hdx_stats::Outcome;

use crate::trace::Recorder;

/// Where the dataset comes from: a CSV file (the CLI) or CSV text (a job).
#[derive(Clone, Copy)]
pub enum Source<'a> {
    File(&'a Path),
    Text(&'a str),
}

/// The statistic under study.
#[derive(Clone, Copy)]
pub enum Stat {
    /// Mean of the numeric column `target` (`--stat target`).
    Target,
    /// False-positive rate of `y_pred` against `y_true` (`--stat fpr`).
    Fpr,
}

/// One replayed exploration.
pub struct Replay {
    /// The report JSON, elapsed time pinned to zero.
    pub json: String,
    /// Wall time of the whole operation, ms.
    pub wall_ms: f64,
    /// `(stage, ms)` in pipeline order.
    pub stages: Vec<(&'static str, f64)>,
    pub mine_cpu_ms: f64,
    pub candidates: u64,
    pub itemsets: u64,
    pub tree_nodes: u64,
    pub quarantined_cells: u64,
    pub frame: DataFrame,
    pub outcomes: Vec<Outcome>,
}

fn config(support: f64) -> HDivExplorerConfig {
    HDivExplorerConfig {
        min_support: support,
        ..HDivExplorerConfig::default()
    }
}

/// Parses a boolean label column with the CLI's truth table.
fn bool_column(df: &DataFrame, name: &str) -> Result<Vec<bool>, String> {
    let col = df.column_by_name(name).map_err(|e| e.to_string())?;
    (0..df.n_rows())
        .map(|row| match col {
            Column::Categorical(c) if c.code(row) != NULL_CODE => {
                match c.level(c.code(row)).to_ascii_lowercase().as_str() {
                    "true" | "t" | "yes" | "y" | "1" => Ok(true),
                    "false" | "f" | "no" | "n" | "0" => Ok(false),
                    other => Err(format!("`{name}` is not boolean (`{other}`)")),
                }
            }
            Column::Continuous(c) => match c.get(row) {
                Some(v) if v == 0.0 || v == 1.0 => Ok(v == 1.0),
                _ => Err(format!("`{name}` is not boolean at row {row}")),
            },
            Column::Categorical(_) => Err(format!("null in `{name}` at row {row}")),
        })
        .collect()
}

/// The mining frame and outcomes, as the CLI and the job runner derive them.
fn outcomes(df: &DataFrame, stat: Stat) -> Result<(DataFrame, Vec<Outcome>), String> {
    let (outcomes, drop) = match stat {
        Stat::Target => {
            let attr = df.schema().require("target").map_err(|e| e.to_string())?;
            (real_outcomes(df.continuous(attr).values()), vec!["target"])
        }
        Stat::Fpr => {
            let y_true = bool_column(df, "y_true")?;
            let y_pred = bool_column(df, "y_pred")?;
            (
                OutcomeFn::Fpr.compute(&y_true, &y_pred),
                vec!["y_true", "y_pred"],
            )
        }
    };
    let frame = df.drop_columns(&drop).map_err(|e| e.to_string())?;
    Ok((frame, outcomes))
}

/// Replays one exploration from `source` to its rendered JSON report.
pub fn replay(
    rec: &mut Recorder,
    source: Source,
    stat: Stat,
    support: f64,
) -> Result<Replay, String> {
    hdx_core::obs::reset();
    let op = rec.begin("op");
    let out = stages(rec, source, stat, support);
    let wall_ms = rec.end(op);
    let telemetry = hdx_core::obs::collect();
    rec.absorb_library_spans(&telemetry);
    let mut replay = out?;
    replay.wall_ms = wall_ms;
    replay.candidates = telemetry.counter(hdx_core::obs::CounterId::MineCandidatesGenerated);
    Ok(replay)
}

fn stages(rec: &mut Recorder, source: Source, stat: Stat, support: f64) -> Result<Replay, String> {
    let options = CsvOptions::default();
    let (loaded, read_ms) = rec.stage("data.read", || match source {
        Source::File(path) => hdx_data::read_csv_with_quality(path, &options),
        Source::Text(text) => hdx_data::read_csv_str_with_quality(text, &options),
    });
    let (df, quality) = loaded.map_err(|e| format!("cannot read dataset: {e}"))?;
    let (derived, outcomes_ms) = rec.stage("core.outcomes", || outcomes(&df, stat));
    let (frame, outcomes) = derived?;
    drop(df);

    let pipeline = HDivExplorer::new(config(support));
    let disc_governor = Governor::unbounded();
    let ((catalog, hierarchies, _trees), discretize_ms) = rec.stage("discretize", || {
        pipeline.discretize_governed(&frame, &outcomes, &disc_governor)
    });
    let (transactions, encode_ms) = rec.stage("mining.encode", || {
        Transactions::encode_generalized(&frame, &catalog, &hierarchies, &outcomes)
    });
    let mining = MiningConfig {
        min_support: support,
        ..MiningConfig::default()
    };
    let mine_governor = Governor::unbounded();
    let cpu = crate::proc::cpu_seconds();
    let (result, mine_ms) = rec.stage("mining.mine", || {
        mine_governed(&transactions, &catalog, &mining, &mine_governor)
    });
    let mine_cpu_ms = (crate::proc::cpu_seconds() - cpu) * 1e3;
    drop(transactions);
    let (mut report, rank_ms) = rec.stage("core.rank", || {
        DivergenceReport::from_mining(&result, &catalog, Duration::ZERO)
    });
    // What `fit_mode` adds on top of the explorer: the report speaks for
    // both stages.
    report.termination = report.termination.worst(disc_governor.termination());
    report.counters = mine_governor.counters().merged(disc_governor.counters());
    let (json, render_ms) = rec.stage("core.render", || report_to_json(&report, &catalog));
    Ok(Replay {
        json,
        wall_ms: 0.0,
        stages: vec![
            ("data.read", read_ms),
            ("core.outcomes", outcomes_ms),
            ("discretize", discretize_ms),
            ("mining.encode", encode_ms),
            ("mining.mine", mine_ms),
            ("core.rank", rank_ms),
            ("core.render", render_ms),
        ],
        mine_cpu_ms,
        candidates: 0,
        itemsets: result.itemsets.len() as u64,
        tree_nodes: disc_governor.counters().tree_nodes,
        quarantined_cells: quality.cells_quarantined(),
        frame,
        outcomes,
    })
}

/// The same exploration as [`replay`] through `fit_mode`, untraced: wall ms.
pub fn untraced_ms(source: Source, stat: Stat, support: f64) -> Result<f64, String> {
    let t = Instant::now();
    let df = match source {
        Source::File(path) => hdx_data::read_csv_with_quality(path, &CsvOptions::default()),
        Source::Text(text) => hdx_data::read_csv_str_with_quality(text, &CsvOptions::default()),
    }
    .map_err(|e| format!("cannot read dataset: {e}"))?
    .0;
    let (frame, outcomes) = outcomes(&df, stat)?;
    drop(df);
    let mut result = HDivExplorer::new(config(support)).fit_mode(
        &frame,
        &outcomes,
        ExplorationMode::Generalized,
    );
    result.report.elapsed = Duration::ZERO;
    std::hint::black_box(report_to_json(&result.report, &result.catalog));
    Ok(crate::util::ms(t.elapsed()))
}

/// The cost of checkpointing: `fit_checkpointed` minus `fit_mode` on the
/// same input. Returns (checkpoint writes, overhead ms, checkpointed JSON).
pub fn checkpoint_overhead(
    frame: &DataFrame,
    outcomes: &[Outcome],
    support: f64,
    dir: &Path,
) -> Result<(u64, f64, String), String> {
    let pipeline = HDivExplorer::new(config(support));
    let t = Instant::now();
    let plain = pipeline.fit_mode(frame, outcomes, ExplorationMode::Generalized);
    let plain_ms = crate::util::ms(t.elapsed());
    drop(plain);
    let store = CheckpointStore::create(dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let run = pipeline
        .fit_checkpointed(frame, outcomes, ExplorationMode::Generalized, store, 1)
        .map_err(|e| e.to_string())?;
    let checkpointed_ms = crate::util::ms(t.elapsed());
    let mut report = run.result.report;
    report.elapsed = Duration::ZERO;
    Ok((
        run.checkpoint_writes,
        checkpointed_ms - plain_ms,
        report_to_json(&report, &run.result.catalog),
    ))
}
