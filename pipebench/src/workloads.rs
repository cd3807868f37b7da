//! The workloads: `explore-shallow`, `explore-deep` and `serve-append`.
//! README.md says why each exists and which layers it loads.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::pipeline::{self, Replay, Source, Stat};
use crate::proc::{self, ServerProc};
use crate::serve::{self, Leg, LegStats};
use crate::trace::Recorder;
use crate::util::{median, ms, quantile, report_digest};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Every timed loop runs at least this many operations.
const MIN_OPS: usize = 3;
/// Rows per append.
const BATCH: usize = 100;
/// The served probe of the explore workloads: base rows, jobs before the
/// cycle job, append cycles. At 50k rows a refresh takes ~0.35 s, so the
/// 10 ms grain of status polling is a small share of it.
const PROBE_ROWS: usize = 50_000;
const PROBE_JOBS: usize = 2;
const PROBE_CYCLES: usize = 12;
/// `serve-append`: base rows and the pool of rows to append.
const SERVE_ROWS: usize = 300_000;
const SERVE_POOL: usize = 20_000;
/// The seed used when `--seed` is not given; its explore reports have
/// committed digests.
pub const DEFAULT_SEED: u64 = 1;
/// Rows of a small default-seed input that every run also checks against a
/// committed digest: the in-process reference shares its code with the
/// program, so only a committed digest shows a change to that shared code,
/// whatever seed the run uses.
const GOLDEN_ROWS: usize = 20_000;
/// `<key> <digest>` lines: `<workload>` for the default seed's report,
/// `<workload>@<rows>` for the small input.
const DIGESTS: &str = include_str!("../digests.txt");

/// What every run is given.
pub struct Ctx {
    pub hdx: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and operation errors, for the log.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Whether the served `hdx` records telemetry (its `/metrics` counters
    /// move).
    pub obs: bool,
    /// Raw samples, as a JSON object.
    pub samples: String,
    pub rec: Recorder,
}

impl Outcome {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            obs: false,
            samples: String::new(),
            rec: Recorder::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail_op(&mut self, problem: String) {
        self.failed += 1;
        self.problem(problem);
    }

    fn problem(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Checks `digest` against the committed line `key`.
fn check_committed(out: &mut Outcome, key: &str, digest: u64) {
    let committed = DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == key).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    });
    if committed != Some(digest) {
        out.problem(format!(
            "{key}: report digest {digest:016x} is not the committed one"
        ));
    }
}

/// The header and data rows of a CSV file.
fn read_rows(path: &Path) -> Result<(String, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().ok_or("empty dataset")?;
    Ok((header, lines.collect()))
}

/// CSV text of `header` and `rows`.
fn csv_text(header: &str, rows: &[String]) -> String {
    let mut text = String::with_capacity(rows.len() * 40);
    text.push_str(header);
    text.push('\n');
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    text
}

/// Per-op figures of a traced replay.
struct ReplayFigures {
    stages: Vec<(&'static str, f64)>,
    wall_ms: f64,
    mine_cpu_ms: f64,
}

impl ReplayFigures {
    fn of(replay: &Replay) -> Self {
        Self {
            stages: replay.stages.clone(),
            wall_ms: replay.wall_ms,
            mine_cpu_ms: replay.mine_cpu_ms,
        }
    }
}

/// The per-layer metrics of the pipeline crates, from traced replays.
fn layer_metrics(
    out: &mut Outcome,
    figures: &[ReplayFigures],
    last: &Replay,
    dir: &Path,
    support: f64,
) {
    let stage = |name: &str| {
        let values: Vec<f64> = figures
            .iter()
            .filter_map(|f| f.stages.iter().find(|(n, _)| *n == name).map(|s| s.1))
            .collect();
        median(&values)
    };
    out.metric("data.read_ms", stage("data.read"), "ms");
    out.metric(
        "data.quarantined_cells",
        last.quarantined_cells as f64,
        "count",
    );
    out.metric("core.outcomes_ms", stage("core.outcomes"), "ms");
    out.metric("core.rank_ms", stage("core.rank"), "ms");
    out.metric("core.render_ms", stage("core.render"), "ms");
    out.metric("core.render_bytes", last.json.len() as f64, "bytes");
    out.metric("discretize.ms", stage("discretize"), "ms");
    out.metric("discretize.tree_nodes", last.tree_nodes as f64, "count");
    out.metric("mining.encode_ms", stage("mining.encode"), "ms");
    out.metric("mining.mine_ms", stage("mining.mine"), "ms");
    let cpu: Vec<f64> = figures.iter().map(|f| f.mine_cpu_ms).collect();
    out.metric("mining.mine_cpu_ms", median(&cpu), "ms");
    out.metric("mining.candidates", last.candidates as f64, "count");
    out.metric("mining.itemsets", last.itemsets as f64, "count");
    let ratio = last.itemsets as f64 / last.candidates.max(1) as f64;
    out.metric("mining.emit_ratio", ratio, "ratio");
    let coverage: Vec<f64> = figures
        .iter()
        .map(|f| f.stages.iter().map(|s| s.1).sum::<f64>() / f.wall_ms)
        .collect();
    out.metric("trace.coverage", median(&coverage), "ratio");
    match pipeline::checkpoint_overhead(&last.frame, &last.outcomes, support, &dir.join("ckpt")) {
        Ok((writes, overhead_ms, json)) => {
            if report_digest(&json) != report_digest(&last.json) {
                out.problem("checkpointed fit differs from the replayed report".into());
            }
            out.metric("checkpoint.writes", writes as f64, "count");
            out.metric("checkpoint.overhead_ms", overhead_ms, "ms");
        }
        Err(e) => out.problem(format!("checkpointed fit failed: {e}")),
    }
}

/// One exploration through the `hdx` binary.
struct CliOp {
    ms: f64,
    json: String,
    exit: proc::Exit,
}

fn cli_explore(ctx: &Ctx, csv: &Path, support: f64) -> Result<CliOp, String> {
    let t = Instant::now();
    let (stdout, exit) = proc::run_capture(
        Command::new(&ctx.hdx)
            .arg("explore")
            .arg(csv)
            .args(["--stat", "target", "--target-col", "target"])
            .args(["-s", &support.to_string(), "--json"]),
    )
    .map_err(|e| format!("cannot run hdx explore: {e}"))?;
    Ok(CliOp {
        ms: ms(t.elapsed()),
        json: String::from_utf8_lossy(&stdout).into_owned(),
        exit,
    })
}

/// The closing half of every served leg: the `/metrics` check, the server's
/// drain, the result checks against in-process runs, and (traced) the
/// `hdx-serve`, `hdx-ingest` per-layer metrics. Returns the server's peak
/// RSS in MiB and the digest of the in-process runner's result.
fn close_leg(
    ctx: &Ctx,
    out: &mut Outcome,
    leg: &Leg,
    mut server: ServerProc,
    st: &LegStats,
    header: &str,
    base: &[String],
) -> Result<(f64, u64), String> {
    out.attempted += st.attempted;
    out.failed += st.failed;
    for e in &st.errors {
        out.problem(e.clone());
    }
    let scraped = leg.scrape(st.counts);
    let floor = if ctx.trace {
        leg.http_floor_ms(20)
    } else {
        Vec::new()
    };
    let exit = server
        .stop()
        .map_err(|e| format!("hdx serve did not drain: {e}"))?;
    if exit.status != 0 {
        out.problem(format!("hdx serve exited with status {}", exit.status));
    }
    let (remines, shed) = match scraped {
        Ok(v) => {
            out.obs = true;
            v
        }
        Err(e) => {
            out.problem(e);
            (f64::NAN, f64::NAN)
        }
    };

    // Every job's result must be the runner's, in-process, on the same data.
    let base_csv = csv_text(header, base);
    let reference = serve::run_job(&leg.submission, &base_csv, None, &ctx.dir.join("ref"))?;
    let reference = report_digest(&reference);
    for digest in &st.job_digests {
        if *digest != reference {
            out.fail_op("a job's result differs from the in-process runner's".into());
        }
    }
    // The final refresh must be a cold job on base + appended rows.
    let appended = &leg.pool[..st.appended];
    if let Some(last) = &st.last_refresh {
        let mut rows = base.to_vec();
        rows.extend_from_slice(appended);
        let cold = serve::run_job(
            &leg.submission,
            &csv_text(header, &rows),
            None,
            &ctx.dir.join("cold"),
        )?;
        if report_digest(&cold) != report_digest(last) {
            out.fail_op("the final refresh differs from a cold job on the same rows".into());
        }
    }

    if ctx.trace {
        out.metric("serve.http_floor_ms_p50", median(&floor), "ms");
        let submit_ack = median(&st.submit_ack_ms);
        out.metric("serve.submit_ack_ms_p50", submit_ack, "ms");
        let job_dir = st.cycle_job.as_deref().map(|id| server.job_dir(id));
        let wal = job_dir.as_ref().map(|d| d.join(hdx_serve::WAL_DIR));
        let t = Instant::now();
        let rerun = serve::run_job(
            &leg.submission,
            &base_csv,
            wal.as_deref(),
            &ctx.dir.join("rerun"),
        )?;
        let run_ms = ms(t.elapsed());
        if st
            .last_refresh
            .as_ref()
            .is_some_and(|last| report_digest(last) != report_digest(&rerun))
        {
            out.problem("re-running the job directory in-process gives another result".into());
        }
        out.metric("serve.run_ms", run_ms, "ms");
        out.metric(
            "serve.wait_ms",
            median(&st.job_ms) - submit_ack - run_ms,
            "ms",
        );
        out.metric(
            "serve.append_ack_ms_p90",
            quantile(&st.ack_ms, 0.9).unwrap_or(0.0),
            "ms",
        );
        out.metric(
            "serve.refresh_ms_p90",
            quantile(&st.refresh_ms, 0.9).unwrap_or(0.0),
            "ms",
        );
        out.metric("serve.remines", remines, "count");
        out.metric("serve.shed", shed, "count");
        let (append_ms, replay_ms) = match wal {
            Some(wal) => serve::ingest_timings(&wal, &leg.pool[..leg.batch], &ctx.dir.join("wal"))?,
            None => (f64::NAN, f64::NAN),
        };
        out.metric("ingest.append_ms", append_ms, "ms");
        out.metric("ingest.replay_ms", replay_ms, "ms");
    } else {
        out.metric("append_ack_ms_p50", median(&st.ack_ms), "ms");
        out.metric("refresh_ms_p50", median(&st.refresh_ms), "ms");
    }
    Ok((exit.peak_rss_mb, reference))
}

/// `explore-shallow` and `explore-deep`: `hdx explore` on a folktables CSV,
/// closed with a small served probe (see README.md).
pub fn explore(ctx: &Ctx, name: &str, rows: usize, support: f64) -> Result<Outcome, String> {
    let csv = ctx.dir.join("input.csv");
    let state = ctx.dir.join("state");
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut warm = 0u64;
    for _ in 0..ctx.setup_reps() {
        if let Some(mut old) = server.take() {
            old.stop()
                .map_err(|e| format!("hdx serve did not drain: {e}"))?;
        }
        let _ = std::fs::remove_dir_all(&state);
        let t = Instant::now();
        proc::generate(&ctx.hdx, "folktables", rows, ctx.seed, &csv).map_err(|e| e.to_string())?;
        let started = ServerProc::start(&ctx.hdx, &state).map_err(|e| e.to_string())?;
        let op = cli_explore(ctx, &csv, support)?;
        if op.exit.status != 0 {
            return Err(format!(
                "warm-up exploration exited with status {}",
                op.exit.status
            ));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(started);
        warm = report_digest(&op.json);
    }
    let server = server.ok_or("no set-up ran")?;

    let start = Instant::now();
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut op_ms = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let mut digests = vec![warm];
    let mut figures = Vec::new();
    let mut last: Option<Replay> = None;
    let mut ops = 0;
    while ops < MIN_OPS || start.elapsed() < window {
        ops += 1;
        out.attempted += 1;
        let op = match cli_explore(ctx, &csv, support) {
            Ok(op) if op.exit.status == 0 => op,
            Ok(op) => {
                out.fail_op(format!("hdx explore exited with status {}", op.exit.status));
                continue;
            }
            Err(e) => {
                out.fail_op(e);
                continue;
            }
        };
        op_ms.push(op.ms);
        rss.push(op.exit.peak_rss_mb);
        let digest = report_digest(&op.json);
        digests.push(digest);
        if ctx.trace {
            out.attempted += 1;
            last = None;
            match pipeline::replay(&mut out.rec, Source::File(&csv), Stat::Target, support) {
                Ok(replay) if report_digest(&replay.json) == digest => {
                    figures.push(ReplayFigures::of(&replay));
                    last = Some(replay);
                }
                Ok(_) => out.fail_op("the replayed report differs from hdx explore's".into()),
                Err(e) => out.fail_op(e),
            }
        }
    }

    let (header, data) = read_rows(&csv)?;
    let pool_end = (PROBE_ROWS + PROBE_CYCLES * BATCH).min(data.len());
    let base = &data[..PROBE_ROWS.min(data.len())];
    let leg = Leg {
        addr: server.addr,
        submission: serve::submission(
            &csv_text(&header, base),
            "\"stat\":\"target\",\"target_col\":\"target\",\"support\":0.05",
        ),
        base_rows: base.len() as u64,
        pool: &data[base.len()..pool_end],
        batch: BATCH,
    };
    let mut st = LegStats::default();
    let now = Instant::now();
    leg.run(
        &mut st,
        &mut out.rec,
        (now, PROBE_JOBS),
        (now, PROBE_CYCLES),
    );
    close_leg(ctx, &mut out, &leg, server, &st, &header, base)?;

    // Every exploration must print the report the library computes for the
    // same input; for the default seed that report has a committed digest.
    let reference = match &last {
        Some(replay) => report_digest(&replay.json),
        None => {
            let replay = pipeline::replay(
                &mut Recorder::new(),
                Source::File(&csv),
                Stat::Target,
                support,
            )?;
            report_digest(&replay.json)
        }
    };
    if digests[0] != reference {
        out.problem("the warm-up exploration differs from the library's report".into());
    }
    for digest in &digests[1..] {
        if *digest != reference {
            out.fail_op("an exploration differs from the library's report".into());
        }
    }
    if ctx.seed == DEFAULT_SEED {
        check_committed(&mut out, name, reference);
    }
    let golden = ctx.dir.join("golden.csv");
    proc::generate(&ctx.hdx, "folktables", GOLDEN_ROWS, DEFAULT_SEED, &golden)
        .map_err(|e| e.to_string())?;
    let op = cli_explore(ctx, &golden, support)?;
    check_committed(
        &mut out,
        &format!("{name}@{GOLDEN_ROWS}"),
        report_digest(&op.json),
    );

    if let Some(last) = &last {
        layer_metrics(&mut out, &figures, last, &ctx.dir, support);
        let replay_wall: Vec<f64> = figures.iter().map(|f| f.wall_ms).collect();
        out.metric(
            "trace.overhead_frac",
            median(&replay_wall) / median(&op_ms) - 1.0,
            "ratio",
        );
    } else if ctx.trace {
        out.problem("no traced replay completed".into());
    } else {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", rss.iter().copied().fold(0.0, f64::max), "MB");
        out.metric("op_ms_p50", median(&op_ms), "ms");
    }
    out.samples = format!(
        "{{\"setup_s\":{},\"op_ms\":{},\"peak_rss_mb\":{},\"append_ack_ms\":{},\"refresh_ms\":{}}}",
        json_array(&setup_s),
        json_array(&op_ms),
        json_array(&rss),
        json_array(&st.ack_ms),
        json_array(&st.refresh_ms),
    );
    Ok(out)
}

/// `serve-append`: jobs on a 300k-row compas dataset, then a closed loop of
/// appends and refreshed results on one job.
pub fn serve_append(ctx: &Ctx) -> Result<Outcome, String> {
    let csv = ctx.dir.join("input.csv");
    let state = ctx.dir.join("state");
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut input = None;
    let mut st = LegStats::default();
    for _ in 0..ctx.setup_reps() {
        if let Some(mut old) = server.take() {
            old.stop()
                .map_err(|e| format!("hdx serve did not drain: {e}"))?;
        }
        let _ = std::fs::remove_dir_all(&state);
        let t = Instant::now();
        proc::generate(&ctx.hdx, "compas", SERVE_ROWS + SERVE_POOL, ctx.seed, &csv)
            .map_err(|e| e.to_string())?;
        let (header, data) = read_rows(&csv)?;
        let body = serve::submission(
            &csv_text(&header, &data[..SERVE_ROWS]),
            "\"stat\":\"fpr\",\"label_col\":\"y_true\",\"pred_col\":\"y_pred\"",
        );
        let started = ServerProc::start(&ctx.hdx, &state).map_err(|e| e.to_string())?;
        let leg = Leg {
            addr: started.addr,
            submission: body,
            base_rows: SERVE_ROWS as u64,
            pool: &data[SERVE_ROWS..],
            batch: BATCH,
        };
        st = LegStats::default();
        leg.job(&mut st, &mut Recorder::new());
        if st.failed > 0 {
            return Err(format!("warm-up job failed: {:?}", st.errors));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        let submission = leg.submission;
        server = Some(started);
        input = Some((header, data, submission));
    }
    let server = server.ok_or("no set-up ran")?;
    let (header, data, submission) = input.ok_or("no set-up ran")?;
    let leg = Leg {
        addr: server.addr,
        submission,
        base_rows: SERVE_ROWS as u64,
        pool: &data[SERVE_ROWS..],
        batch: BATCH,
    };
    // The warm-up job stays in the server's counts and in the result check.
    let mut st = LegStats {
        counts: st.counts,
        job_digests: st.job_digests,
        ..LegStats::default()
    };
    let start = Instant::now();
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    leg.run(
        &mut st,
        &mut out.rec,
        (start + half, MIN_OPS),
        (start + 2 * half, MIN_OPS),
    );
    let (rss, reference) = close_leg(
        ctx,
        &mut out,
        &leg,
        server,
        &st,
        &header,
        &data[..SERVE_ROWS],
    )?;
    let golden = ctx.dir.join("golden.csv");
    proc::generate(&ctx.hdx, "compas", GOLDEN_ROWS, DEFAULT_SEED, &golden)
        .map_err(|e| e.to_string())?;
    let (golden_header, golden_rows) = read_rows(&golden)?;
    let body = serve::run_job(
        &leg.submission,
        &csv_text(&golden_header, &golden_rows),
        None,
        &ctx.dir.join("golden"),
    )?;
    check_committed(
        &mut out,
        &format!("serve-append@{GOLDEN_ROWS}"),
        report_digest(&body),
    );

    if ctx.trace {
        out.attempted += 1;
        let base = csv_text(&header, &data[..SERVE_ROWS]);
        match pipeline::replay(&mut out.rec, Source::Text(&base), Stat::Fpr, 0.05) {
            Ok(replay) => {
                if report_digest(&replay.json) != reference {
                    out.fail_op("the replayed job differs from the runner's".into());
                }
                let figures = [ReplayFigures::of(&replay)];
                layer_metrics(&mut out, &figures, &replay, &ctx.dir, 0.05);
                // A served job also queues, checkpoints and seals, so the
                // replay is compared with the same pipeline run untraced.
                let untraced = pipeline::untraced_ms(Source::Text(&base), Stat::Fpr, 0.05)?;
                out.metric(
                    "trace.overhead_frac",
                    replay.wall_ms / untraced - 1.0,
                    "ratio",
                );
            }
            Err(e) => out.fail_op(e),
        }
    } else {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", rss, "MB");
        out.metric("op_ms_p50", median(&st.job_ms), "ms");
    }
    out.samples = format!(
        "{{\"setup_s\":{},\"op_ms\":{},\"submit_ack_ms\":{},\"append_ack_ms\":{},\"refresh_ms\":{}}}",
        json_array(&setup_s),
        json_array(&st.job_ms),
        json_array(&st.submit_ack_ms),
        json_array(&st.ack_ms),
        json_array(&st.refresh_ms),
    );
    Ok(out)
}
