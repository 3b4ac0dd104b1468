//! Building the shipping `csqp` binary and running `csqp serve` as a child
//! process: start-up, `/metrics` scrapes, peak memory, and a clean
//! `/shutdown`.

use crate::client::Client;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a server may take to exit after `/shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// Builds `csqp` from the workspace in the current directory with
/// `cargo build --release` and returns the executable's path.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "csqp", "--bin", "csqp"])
        .arg("--message-format=json-render-diagnostics")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of csqp failed ({})", out.status));
    }
    // The artifact message of the `csqp` bin target names the executable.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"name\":\"csqp\""))
        .find_map(|l| {
            let rest = l.split_once("\"executable\":\"")?.1;
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .ok_or_else(|| "cargo reported no csqp executable".to_string())
}

/// One running `csqp serve` child.
pub struct Server {
    child: Mutex<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Drains the child's stdout so it never blocks on a full pipe.
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `csqp serve` on the given `(ssdl, csv)` members with two
    /// workers and shipping defaults otherwise, and waits until it listens.
    /// Its stderr goes to `log`.
    pub fn start(exe: &Path, members: &[(PathBuf, PathBuf)], log: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--key", "id", "--workers", "2", "--addr", "127.0.0.1:0"]);
        for (ssdl, csv) in members {
            cmd.arg("--ssdl").arg(ssdl).arg("--csv").arg(csv);
        }
        let log_path = log;
        let log = File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child: Mutex::new(child),
            addr: ([0, 0, 0, 0], 0).into(),
            pid,
            stdout: Some(reader),
        };
        let addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| format!("csqp serve did not start; see {}", log_path.display()))?;
        server.addr = addr.parse().map_err(|_| format!("bad listening address {addr:?}"))?;
        Ok(server)
    }

    /// Whether the process is still running.
    pub fn alive(&self) -> bool {
        matches!(self.child.lock().expect("child lock").try_wait(), Ok(None))
    }

    /// Scrapes `/metrics` into a map of unlabeled series.
    pub fn scrape(&self) -> Result<Metrics, String> {
        let resp = Client::new(self.addr).get("/metrics").map_err(|e| format!("/metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("/metrics answered {}", resp.status));
        }
        let text = String::from_utf8_lossy(&resp.body);
        let values = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains('{'))
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect();
        Ok(Metrics(values))
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Sends `/shutdown` and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(Some(status)) = self.child.lock().expect("child lock").try_wait() {
            return Err(format!("csqp serve died before /shutdown ({status})"));
        }
        let answered = Client::new(self.addr).get("/shutdown");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match self.child.lock().expect("child lock").try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {}
                _ => break None,
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.reap();
        match (answered, status) {
            (Ok(r), Some(s)) if r.status == 200 && s.success() => Ok(()),
            (Err(e), _) => Err(format!("/shutdown failed: {e}")),
            (_, Some(s)) => Err(format!("csqp serve exited with {s}")),
            (_, None) => Err("csqp serve did not exit after /shutdown".to_string()),
        }
    }

    /// Kills the process if it still runs, waits for it, and joins the
    /// stdout reader.
    fn reap(&mut self) {
        {
            let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One `/metrics` scrape: unlabeled series by Prometheus name.
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    /// A series' value; absent series read 0 (the registry renders a
    /// counter only once it has been bumped).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `later − self` for one series.
    pub fn delta(&self, later: &Metrics, name: &str) -> f64 {
        later.get(name) - self.get(name)
    }
}
