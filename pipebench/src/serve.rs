//! The served leg: jobs submitted one after another, then a closed loop of
//! append → refreshed result on a single job, all against one `hdx serve`.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use hdx_core::CancelToken;
use hdx_serve::runner::{execute, JobRunOutcome};

use crate::http::{self, Response};
use crate::trace::Recorder;
use crate::util::{expo_value, report_digest, str_field, u64_field};

/// An operation that has not finished after this long has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// What the client saw over one server's lifetime; the server's own
/// counters on `/metrics` must agree with it.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub submits: u64,
    pub acked_rows: u64,
    pub refreshes: u64,
    pub shed: u64,
}

/// Samples and outcomes of the served operations.
#[derive(Default)]
pub struct LegStats {
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub job_ms: Vec<f64>,
    pub submit_ack_ms: Vec<f64>,
    pub job_digests: Vec<u64>,
    pub ack_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    /// Rows of the pool appended so far.
    pub appended: usize,
    /// The job the append cycles run on.
    pub cycle_job: Option<String>,
    /// The latest refreshed result.
    pub last_refresh: Option<String>,
}

impl LegStats {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// One server and the dataset its jobs run on.
pub struct Leg<'a> {
    pub addr: SocketAddr,
    /// `POST /jobs` body, the base dataset embedded.
    pub submission: String,
    /// Data rows in the base dataset.
    pub base_rows: u64,
    /// Rows to append, in order.
    pub pool: &'a [String],
    /// Rows per append.
    pub batch: usize,
}

/// Builds a `POST /jobs` body.
pub fn submission(csv: &str, fields: &str) -> String {
    format!("{{\"csv\":\"{}\",{fields}}}", hdx_serve::json::escape(csv))
}

fn expect(
    response: std::io::Result<Response>,
    want: u16,
    what: &str,
    counts: &mut Counts,
) -> Result<Response, String> {
    match response {
        Err(e) => Err(format!("{what}: {e}")),
        Ok(r) if r.status == want => Ok(r),
        Ok(r) => {
            if r.status == 429 || r.status == 503 {
                counts.shed += 1;
            }
            Err(format!("{what}: HTTP {} {}", r.status, r.body.trim()))
        }
    }
}

impl Leg<'_> {
    fn get(&self, path: &str) -> std::io::Result<Response> {
        http::call(self.addr, "GET", path, b"")
    }

    /// One job: `POST /jobs` → sealed result → `GET /jobs/<id>/result`.
    /// Returns the job id.
    pub fn job(&self, st: &mut LegStats, rec: &mut Recorder) -> Option<String> {
        rec.next_op();
        let op = rec.begin("serve.job");
        let outcome = self.job_inner(&mut st.counts, rec);
        let ms = rec.end(op);
        st.attempted += 1;
        match outcome {
            Ok((id, body, ack_ms)) => {
                st.job_ms.push(ms);
                st.submit_ack_ms.push(ack_ms);
                st.job_digests.push(report_digest(&body));
                Some(id)
            }
            Err(e) => {
                st.fail(e);
                None
            }
        }
    }

    fn job_inner(
        &self,
        counts: &mut Counts,
        rec: &mut Recorder,
    ) -> Result<(String, String, f64), String> {
        let (submitted, ack_ms) = rec.stage("serve.submit", || {
            http::call(self.addr, "POST", "/jobs", self.submission.as_bytes())
        });
        let submitted = expect(submitted, 202, "submit", counts)?;
        counts.submits += 1;
        let id = str_field(&submitted.body, "job_id")
            .ok_or("submit reply has no job_id")?
            .to_string();
        let wait = rec.begin("serve.wait");
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            let status = expect(self.get(&format!("/jobs/{id}")), 200, "status", counts)?;
            match str_field(&status.body, "state") {
                Some("done") => break,
                Some("failed") => return Err(format!("job failed: {}", status.body)),
                _ if Instant::now() > deadline => return Err("job timed out".into()),
                _ => {}
            }
        }
        rec.end(wait);
        let (result, _) = rec.stage("serve.fetch", || self.get(&format!("/jobs/{id}/result")));
        let result = expect(result, 200, "result", counts)?;
        Ok((id, result.body, ack_ms))
    }

    /// One cycle on job `id`: append a batch, wait until a sealed result
    /// covers it (status `folded_rows` ≥ the ack's `durable_rows`), fetch
    /// it. Returns `false` when the pool is exhausted.
    pub fn cycle(&self, id: &str, st: &mut LegStats, rec: &mut Recorder) -> bool {
        let Some(rows) = self.pool.get(st.appended..st.appended + self.batch) else {
            return false;
        };
        let mut body = rows.join("\n");
        body.push('\n');
        rec.next_op();
        let op = rec.begin("serve.cycle");
        let outcome = self.cycle_inner(id, &body, st, rec);
        rec.end(op);
        st.attempted += 1;
        match outcome {
            Ok((ack_ms, refresh_ms)) => {
                st.ack_ms.push(ack_ms);
                st.refresh_ms.push(refresh_ms);
            }
            Err(e) => st.fail(e),
        }
        true
    }

    fn cycle_inner(
        &self,
        id: &str,
        body: &str,
        st: &mut LegStats,
        rec: &mut Recorder,
    ) -> Result<(f64, f64), String> {
        let (acked, ack_ms) = rec.stage("serve.append", || {
            http::call(
                self.addr,
                "POST",
                &format!("/jobs/{id}/append"),
                body.as_bytes(),
            )
        });
        let acked = expect(acked, 202, "append", &mut st.counts)?;
        st.counts.acked_rows += self.batch as u64;
        st.appended += self.batch;
        let durable = u64_field(&acked.body, "durable_rows").ok_or("ack has no durable_rows")?;
        let wait = rec.begin("serve.refresh");
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            let status = expect(
                self.get(&format!("/jobs/{id}")),
                200,
                "status",
                &mut st.counts,
            )?;
            if u64_field(&status.body, "folded_rows").is_some_and(|f| f >= durable) {
                break;
            }
            if str_field(&status.body, "state") == Some("failed") {
                return Err(format!("re-mine failed: {}", status.body));
            }
            if Instant::now() > deadline {
                return Err("refresh timed out".into());
            }
        }
        let refresh_ms = rec.end(wait);
        st.counts.refreshes += 1;
        let (result, _) = rec.stage("serve.fetch", || self.get(&format!("/jobs/{id}/result")));
        let result = expect(result, 200, "refreshed result", &mut st.counts)?;
        let want = self.base_rows + st.appended as u64;
        if u64_field(&result.body, "n_rows") != Some(want) {
            return Err(format!("refreshed result does not cover {want} rows"));
        }
        st.last_refresh = Some(result.body);
        Ok((ack_ms, refresh_ms))
    }

    /// Jobs one after another until `until` (at least `min_jobs`), then
    /// append cycles on one fresh job until `end` (at least `min_cycles`).
    pub fn run(
        &self,
        st: &mut LegStats,
        rec: &mut Recorder,
        (until, min_jobs): (Instant, usize),
        (end, min_cycles): (Instant, usize),
    ) {
        let mut jobs = 0;
        while jobs < min_jobs || Instant::now() < until {
            self.job(st, rec);
            jobs += 1;
        }
        st.cycle_job = self.job(st, rec);
        let Some(id) = st.cycle_job.clone() else {
            return;
        };
        let mut cycles = 0;
        while (cycles < min_cycles || Instant::now() < end) && self.cycle(&id, st, rec) {
            cycles += 1;
        }
    }

    /// `GET /healthz` round trips: the HTTP floor under every request.
    pub fn http_floor_ms(&self, n: usize) -> Vec<f64> {
        (0..n)
            .filter_map(|_| {
                let t = Instant::now();
                let ok = self.get("/healthz").is_ok_and(|r| r.status == 200);
                ok.then(|| crate::util::ms(t.elapsed()))
            })
            .collect()
    }

    /// Scrapes `/metrics`, checks the page's grammar and that the server's
    /// counters agree with the client's. Returns (remines, shed).
    pub fn scrape(&self, counts: Counts) -> Result<(f64, f64), String> {
        let page = self.get("/metrics").map_err(|e| format!("metrics: {e}"))?;
        if page.status != 200 {
            return Err(format!("metrics: HTTP {}", page.status));
        }
        hdx_core::obs::expo::check_grammar(&page.body)
            .map_err(|e| format!("metrics page fails the grammar check: {e}"))?;
        let value = |name: &str| expo_value(&page.body, name).unwrap_or(f64::NAN);
        let submitted = value("hdx_serve_jobs_submitted_total");
        let appends = value("hdx_serve_ingest_appends_total");
        let remines = value("hdx_serve_ingest_remines_total");
        let shed = value("hdx_serve_admission_shed_total") + value("hdx_serve_ingest_shed_total");
        let agree = submitted == counts.submits as f64
            && appends == counts.acked_rows as f64
            && remines == counts.refreshes as f64
            && shed == counts.shed as f64;
        if !agree {
            return Err(format!(
                "server counters (submitted {submitted}, appended rows {appends}, \
                 remines {remines}, shed {shed}) disagree with the client's \
                 ({}, {}, {}, {})",
                counts.submits, counts.acked_rows, counts.refreshes, counts.shed
            ));
        }
        Ok((remines, shed))
    }
}

/// Runs a job in-process with `runner::execute` in a fresh `dir` holding
/// `csv` as its dataset (plus `wal`, a WAL directory to copy in, if any).
/// Returns the sealed result body.
pub fn run_job(
    submission: &str,
    csv: &str,
    wal: Option<&Path>,
    dir: &Path,
) -> Result<String, String> {
    let object = hdx_serve::json::parse_object(submission)?;
    let (spec, _) = hdx_serve::job::parse_submission(&object)?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(hdx_serve::DATA_FILE), csv).map_err(|e| e.to_string())?;
    if let Some(wal) = wal {
        copy_dir(wal, &dir.join(hdx_serve::WAL_DIR))?;
    }
    match execute(&spec, dir, CancelToken::new(), 1) {
        JobRunOutcome::Done(record) if record.ok => Ok(record.body),
        other => Err(format!("in-process job did not complete: {other:?}")),
    }
}

/// Copies the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Times the WAL's append path (`Wal::open` + `append_row` + `commit`) and
/// its read-only replay on a copy of `wal`. Returns (append ms, replay ms).
pub fn ingest_timings(wal: &Path, rows: &[String], scratch: &Path) -> Result<(f64, f64), String> {
    use hdx_core::ingest::{replay_dir, Wal, WalConfig};
    copy_dir(wal, scratch)?;
    let t = Instant::now();
    let (mut log, _) = Wal::open(scratch, WalConfig::default()).map_err(|e| e.to_string())?;
    for row in rows {
        log.append_row(row.as_bytes()).map_err(|e| e.to_string())?;
    }
    log.commit().map_err(|e| e.to_string())?;
    let append_ms = crate::util::ms(t.elapsed());
    drop(log);
    let t = Instant::now();
    replay_dir(scratch).map_err(|e| e.to_string())?;
    Ok((append_ms, crate::util::ms(t.elapsed())))
}
