//! Child processes of the `hdx` binary, reaped with their peak RSS.
//!
//! `std::process` does not expose a child's resource usage, so children
//! are reaped with `wait4(2)`, which returns it. Linux only.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Raw `wait` status; 0 means it exited with code 0.
    pub status: i32,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

/// Reaps `child`, returning its exit status and peak RSS; with `nohang`,
/// returns `None` at once if it is still running.
fn reap(child: &Child, nohang: bool) -> io::Result<Option<Exit>> {
    const WNOHANG: i32 = 1;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as the kernel expects; `pid` is our unreaped child.
        let rc = unsafe {
            wait4(
                pid,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut usage,
            )
        };
        if rc == pid {
            return Ok(Some(Exit {
                status,
                peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
            }));
        }
        if rc == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Reaps `child`, blocking until it exits.
fn wait(child: &Child) -> io::Result<Exit> {
    Ok(reap(child, false)?.expect("a blocking wait4 returns the child"))
}

/// CPU seconds (user + system) this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, exclusively borrowed `struct rusage`;
    // RUSAGE_SELF (0) is always valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&usage.utime) + t(&usage.stime)
}

/// Runs `cmd` to completion, returning its stdout and how it ended.
pub fn run_capture(cmd: &mut Command) -> io::Result<(Vec<u8>, Exit)> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut out = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut out);
    let exit = wait(&child)?;
    read?;
    Ok((out, exit))
}

/// Writes a generated dataset with `hdx generate`.
pub fn generate(hdx: &Path, dataset: &str, rows: usize, seed: u64, out: &Path) -> io::Result<()> {
    let (_, exit) = run_capture(
        Command::new(hdx)
            .arg("generate")
            .arg(dataset)
            .args(["--rows", &rows.to_string(), "--seed", &seed.to_string()])
            .arg("--out")
            .arg(out),
    )?;
    if exit.status != 0 {
        return Err(io::Error::other(format!(
            "hdx generate {dataset} failed (status {})",
            exit.status
        )));
    }
    Ok(())
}

/// A running `hdx serve` process on loopback.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
    /// The state directory.
    pub state_dir: PathBuf,
    reaped: bool,
}

/// Request bodies up to this size are admitted; a 300k-row dataset is ~10 MB.
const MAX_BODY_BYTES: usize = 64 << 20;
/// An idle server drains at once; one that takes longer is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

impl ServerProc {
    /// Starts `hdx serve` on an ephemeral loopback port over `state_dir`.
    pub fn start(hdx: &Path, state_dir: &Path) -> io::Result<Self> {
        let mut child = Command::new(hdx)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .args(["--max-body-bytes", &MAX_BODY_BYTES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Built before the address is known, so that `Drop` reaps the child
        // on every early return below.
        let mut server = Self {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            state_dir: state_dir.to_path_buf(),
            reaped: false,
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("hdx: serving on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!("hdx serve did not report its address: {line:?}"))
            })?;
        Ok(server)
    }

    /// The directory of job `id`.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.state_dir.join("jobs").join(id)
    }

    /// Drains the server with `POST /shutdown` and reaps it; kills it if it
    /// has not exited within `DRAIN_TIMEOUT`.
    pub fn stop(&mut self) -> io::Result<Exit> {
        let asked = crate::http::call(self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while asked.is_ok() && Instant::now() < deadline {
            if let Some(exit) = reap(&self.child, true)? {
                self.reaped = true;
                return Ok(exit);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
        Err(asked
            .err()
            .unwrap_or_else(|| io::Error::other("drain timed out")))
    }

    fn kill(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = wait(&self.child);
            self.reaped = true;
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}
