//! The HTTP/1.1 client, the answer check, and the closed-loop load
//! generator.

use crate::workload::{Digest, Query, Workload};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Socket read/write timeout: a stalled server fails the query instead of
/// hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Status line, headers and body as received.
    pub wire_bytes: u64,
}

/// One client connection, reused for as long as the server keeps it open.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Sends `GET target` over HTTP/1.1 and reads the whole response,
    /// framed by `Content-Length`, by `chunked` encoding, or by the server
    /// closing the connection. Connects first unless the previous response
    /// left the connection open.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        let mut reader = match self.conn.take() {
            Some(reader) => reader,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                stream.set_nodelay(true)?;
                BufReader::new(stream)
            }
        };
        reader
            .get_mut()
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: servebench\r\n\r\n").as_bytes())?;
        let mut line = String::new();
        let mut wire_bytes = reader.read_line(&mut line)? as u64;
        let mut parts = line.split_whitespace();
        let version = parts.next().unwrap_or_default().to_string();
        let status: u16 = match (version.starts_with("HTTP/1."), parts.next()) {
            (true, Some(code)) => code.parse().map_err(|_| bad(&line))?,
            _ => return Err(bad(&line)),
        };
        let mut length: Option<usize> = None;
        let mut chunked = false;
        let mut keep_alive = version == "HTTP/1.1";
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            wire_bytes += n as u64;
            let header = line.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else { return Err(bad(header)) };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad(header))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.to_ascii_lowercase().contains("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                wire_bytes += reader.read_line(&mut line)? as u64;
                let size = line.trim_end().split(';').next().unwrap_or_default();
                let size = usize::from_str_radix(size.trim(), 16).map_err(|_| bad(&line))?;
                if size == 0 {
                    // Trailer section, ended by an empty line.
                    loop {
                        line.clear();
                        let n = reader.read_line(&mut line)?;
                        wire_bytes += n as u64;
                        if n == 0 || line.trim_end().is_empty() {
                            break;
                        }
                    }
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                reader.read_exact(&mut body[start..])?;
                let mut crlf = [0u8; 2];
                reader.read_exact(&mut crlf)?;
                wire_bytes += size as u64 + 2;
            }
        } else if let Some(n) = length {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
            wire_bytes += n as u64;
        } else {
            // Framed by the close: the connection cannot carry another
            // request.
            wire_bytes += reader.read_to_end(&mut body)? as u64;
            keep_alive = false;
        }
        if keep_alive {
            self.conn = Some(reader);
        }
        Ok(Response { status, body, wire_bytes })
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed response: {what:?}"))
}

/// What one `/query` answer carried, once checked against the oracle.
#[derive(Debug, Clone)]
pub struct Answer {
    pub rows: u64,
    /// The trailer's `measured cost`: `k1 + k2·|result|` summed over the
    /// source queries the plan sent.
    pub cost: f64,
    /// Adaptive re-plans spliced into the pipeline (`N replans`).
    pub splices: u64,
    /// Capability-index candidates and federation members.
    pub candidates: u64,
    pub members: u64,
    /// `plan cache hit` in the trailer.
    pub cache_hit: bool,
}

/// Checks one `/query` response against the oracle. Without a limit the
/// row set must equal the oracle's; with `limit=n` the answer must carry
/// `min(n, |oracle|)` distinct rows, all of them in the oracle's set. The
/// trailer's row count must equal the rows received.
pub fn check_answer(q: &Query, resp: &Response) -> Result<Answer, String> {
    let body = std::str::from_utf8(&resp.body).map_err(|_| "answer is not UTF-8".to_string())?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, body.trim()));
    }
    let mut seen = HashSet::with_capacity(q.expected_rows());
    let mut trailer: Option<&str> = None;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if trailer.is_some() {
            return Err(format!("line after the trailer: {line}"));
        }
        if line.starts_with('(') {
            let d = row_digest(line, &q.attrs)?;
            if !q.expected.contains(&d) {
                return Err(format!("row not in the oracle's answer: {line}"));
            }
            if !seen.insert(d) {
                return Err(format!("duplicate row: {line}"));
            }
        } else if line.starts_with("ERR") {
            return Err(line.to_string());
        } else {
            trailer = Some(line);
        }
    }
    let t = trailer.ok_or("missing trailer")?;
    let field = |key: &str| -> Result<&str, String> {
        let rest = t.split_once(key).ok_or_else(|| format!("trailer lacks {key:?}: {t}"))?.1;
        Ok(rest.split([',', ')', ' ']).next().unwrap_or_default())
    };
    let number = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?} in {t}"));
    let rows = seen.len() as u64;
    let claimed = number(t.split(' ').next().unwrap_or_default())?;
    if claimed != rows as f64 {
        return Err(format!("trailer claims {claimed} rows, {rows} received"));
    }
    if rows as usize != q.expected_rows() {
        return Err(format!("{rows} rows, the oracle expects {}", q.expected_rows()));
    }
    let replans = t.split_once(" replans").ok_or("trailer lacks the replan count")?.0;
    let (candidates, members) =
        field("capindex ")?.split_once('/').ok_or_else(|| format!("bad capindex field: {t}"))?;
    Ok(Answer {
        rows,
        cost: number(field("measured cost ")?)?,
        splices: number(replans.rsplit(' ').next().unwrap_or_default())? as u64,
        candidates: number(candidates)? as u64,
        members: number(members)? as u64,
        cache_hit: field("plan cache ")? == "hit",
    })
}

/// Digest of one answer row `(a=1, b="x")`; the attribute names must be
/// the requested ones, in order.
fn row_digest(line: &str, attrs: &[String]) -> Result<u64, String> {
    let bad_row = || format!("malformed row: {line}");
    let mut rest = line.strip_prefix('(').and_then(|l| l.strip_suffix(')')).ok_or_else(bad_row)?;
    let mut digest = Digest::new();
    for (i, attr) in attrs.iter().enumerate() {
        if i > 0 {
            rest = rest.strip_prefix(", ").ok_or_else(bad_row)?;
        }
        rest = rest
            .strip_prefix(attr.as_str())
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| format!("row lacks {attr}: {line}"))?;
        if let Some(quoted) = rest.strip_prefix('"') {
            let end = quoted.find('"').ok_or_else(bad_row)?;
            if quoted[..end].contains('\\') {
                // An escaped quote or backslash: decode it the slow way.
                let mut value = String::new();
                let mut chars = quoted.char_indices();
                let end = loop {
                    match chars.next() {
                        Some((_, '\\')) => value.push(chars.next().ok_or_else(bad_row)?.1),
                        Some((j, '"')) => break j,
                        Some((_, c)) => value.push(c),
                        None => return Err(bad_row()),
                    }
                };
                digest.value(&value);
                rest = &quoted[end + 1..];
            } else {
                digest.value(&quoted[..end]);
                rest = &quoted[end + 1..];
            }
        } else {
            let end = rest.find(", ").unwrap_or(rest.len());
            digest.value(&rest[..end]);
            rest = &rest[end..];
        }
    }
    if !rest.is_empty() {
        return Err(format!("row has extra attributes: {line}"));
    }
    Ok(digest.finish())
}

/// The timed phase's tally.
#[derive(Default)]
pub struct LoadReport {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each correctly answered query, nanoseconds.
    pub latencies_ns: Vec<u64>,
    pub rows: u64,
    pub wire_bytes: u64,
    pub cost_sum: f64,
    pub splices: u64,
    pub cache_hits: u64,
    /// The first query whose answer reported a splice.
    pub spliced: Option<String>,
    pub max_candidates: u64,
    pub max_members: u64,
    pub wall: Duration,
    /// Correct answers completed in each second of the timed phase.
    pub per_second: Vec<u64>,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl LoadReport {
    pub fn answered(&self) -> u64 {
        self.attempted - self.failed
    }

    fn record(&mut self, q: &Query, latency: Duration, result: Outcome) {
        self.attempted += 1;
        match result {
            Ok((a, wire)) => {
                if a.splices > 0 && self.spliced.is_none() {
                    self.spliced = Some(q.cond.clone());
                }
                self.latencies_ns.push(latency.as_nanos() as u64);
                self.rows += a.rows;
                self.wire_bytes += wire;
                self.cost_sum += a.cost;
                self.splices += a.splices;
                self.cache_hits += u64::from(a.cache_hit);
                self.max_candidates = self.max_candidates.max(a.candidates);
                self.max_members = self.max_members.max(a.members);
            }
            Err((_, why)) => {
                self.failed += 1;
                if self.reasons.len() < 5 {
                    self.reasons.push(why);
                }
            }
        }
    }

    fn merge(&mut self, other: LoadReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ns.extend(other.latencies_ns);
        self.rows += other.rows;
        self.wire_bytes += other.wire_bytes;
        self.cost_sum += other.cost_sum;
        self.splices += other.splices;
        self.cache_hits += other.cache_hits;
        self.spliced = self.spliced.take().or(other.spliced);
        self.max_candidates = self.max_candidates.max(other.max_candidates);
        self.max_members = self.max_members.max(other.max_members);
        if self.per_second.len() < other.per_second.len() {
            self.per_second.resize(other.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(other.per_second) {
            *a += b;
        }
        for r in other.reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(r);
            }
        }
    }
}

/// A checked answer and its wire bytes, or whether the failure was a
/// transport one and why.
type Outcome = Result<(Answer, u64), (bool, String)>;

/// Sends one query and checks the answer.
fn one(client: &mut Client, q: &Query) -> (Duration, Outcome) {
    let t0 = Instant::now();
    let resp = client.get(&q.path);
    let latency = t0.elapsed();
    let result = match resp {
        Ok(r) => check_answer(q, &r).map(|a| (a, r.wire_bytes)).map_err(|e| (false, e)),
        Err(e) => Err((true, format!("transport: {e}"))),
    };
    let result = result.map_err(|(t, e)| (t, format!("{e} [query: {}]", q.cond)));
    (latency, result)
}

/// Sends `queries` one after another on one client (warm-up and set-up
/// probes).
pub fn run_sequential<'a>(
    addr: SocketAddr,
    queries: impl Iterator<Item = &'a Query>,
) -> LoadReport {
    let mut client = Client::new(addr);
    let mut report = LoadReport::default();
    let t0 = Instant::now();
    for q in queries {
        let (latency, result) = one(&mut client, q);
        report.record(q, latency, result);
    }
    report.wall = t0.elapsed();
    report
}

/// The closed loop: `clients` connections, each sending its next query
/// only once the previous answer is complete, walking the workload's
/// timed stream for `seconds`. `alive` tells whether the server process
/// still runs; once it has died the clients stop, and every query they
/// had sent and not seen answered counts as failed.
pub fn run_closed_loop(
    addr: SocketAddr,
    wl: &Workload,
    clients: usize,
    seconds: f64,
    alive: &(dyn Fn() -> bool + Sync),
) -> LoadReport {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let total = Mutex::new(LoadReport::default());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                let mut report = LoadReport::default();
                while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                    let Some(q) = wl.stream(next.fetch_add(1, Ordering::Relaxed)) else { break };
                    let (latency, result) = one(&mut client, q);
                    let transport = matches!(result, Err((true, _)));
                    if result.is_ok() {
                        let sec = t0.elapsed().as_secs() as usize;
                        if report.per_second.len() <= sec {
                            report.per_second.resize(sec + 1, 0);
                        }
                        report.per_second[sec] += 1;
                    }
                    report.record(q, latency, result);
                    if transport {
                        if !alive() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                total.lock().expect("no client thread panics holding the tally").merge(report);
            });
        }
    });
    let mut report = total.into_inner().expect("no client thread panics holding the tally");
    report.wall = t0.elapsed();
    report
}
