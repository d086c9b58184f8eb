//! The serve phase: an in-process `cmm_serve` daemon fed seeded NDJSON
//! traffic by one generator process (this binary's `gen` mode).
//!
//! The generator is single-threaded and multiplexes `nproc` connections
//! with `poll(2)`, split across two tenants. It runs an open loop at the
//! fixed quiet rate, an open loop at the fixed loaded rate, then a
//! closed loop. Open-loop latency is timed from each request's due time,
//! so a stall also counts against the requests queued behind it, and
//! the generator reports how late it sent each line.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cmm_core::{Compiler, Registry};
use cmm_loopir::{Interp, Limits, Tier};
use cmm_serve::json::{self, Json};
use cmm_serve::poll::{self, PollFd};
use cmm_serve::{PoolCache, Request, Response, ServeConfig, ServerHandle};

use crate::report::Report;
use crate::stats::{median, quantile, ratio};
use crate::trace::{Budget, Tracer};
use crate::Rng;

/// Open-loop rates, fixed once from the saturation this benchmark
/// measured at the commit that introduced it (closed loop with 2
/// connections on a 2-vCPU host: 243–383 requests/s, median about 295):
/// quiet is about 5 % of it, loaded about 45 %. They never change, so
/// later commits are compared at the same offered load.
pub const QUIET_RPS: f64 = 15.0;
pub const LOADED_RPS: f64 = 130.0;
/// At least this many loaded samples, so p99 has 10 samples beyond it.
const MIN_LOADED: usize = 1100;
/// The loaded phase starts with this long at the loaded rate whose
/// responses are checked but not timed: after the quiet phase the host
/// takes a few seconds to serve the jump in load at full speed.
const WARMUP_S: f64 = 3.0;
const MIN_QUIET: usize = 60;
const MIN_CLOSED_S: f64 = 3.0;
/// A run whose generator sent its p99 line later than this after the
/// line was due is rejected: the offered load was not the stated rate.
/// On a host with as many vCPUs as daemon workers the generator
/// competes with them for CPU, so a few milliseconds of lag are normal;
/// latency is timed from the due time, so that lag is counted in it.
pub const MAX_GEN_LAG_MS: f64 = 20.0;

/// Every extension set the traffic names: each template's own set, and
/// `None` (the daemon's default, all five).
pub const EXT_SETS: [&[&str]; 6] = [
    &[
        "ext-matrix",
        "ext-rcptr",
        "ext-cilk",
        "ext-tuples",
        "ext-transform",
    ],
    &[],
    &["ext-matrix"],
    &["ext-tuples", "ext-rcptr"],
    &["ext-cilk"],
    &["ext-matrix", "ext-transform"],
];

/// What a response must be for its request to count as correct.
#[derive(Clone, Debug)]
enum Expect {
    /// Code 0 with exactly this program output.
    Output(String),
    /// Code 0 with emitted C defining `main`.
    CSource,
    /// Code 0, no payload checked (`check`).
    Ok,
    /// This error code (hostile requests).
    Code(u64),
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Req {
    pub class: &'static str,
    pub line: String,
    expect: Expect,
    /// The fields the in-process replay needs.
    pub src: String,
    pub ext: Option<Vec<&'static str>>,
    pub threads: usize,
}

fn ext_json(ext: &Option<Vec<&'static str>>) -> String {
    match ext {
        None => String::new(),
        Some(names) => {
            let items: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            format!(", \"ext\": [{}]", items.join(", "))
        }
    }
}

/// A runnable template instance: source, the extensions it needs, and
/// the output the generator computed for it.
fn template(rng: &mut Rng) -> (String, &'static [&'static str], String) {
    match rng.below(5) {
        0 => {
            let (a, b, n) = (rng.range(1, 50), rng.range(0, 50), rng.range(10, 200));
            let s: i64 = (0..n).map(|i| (a * i + b) % 97).sum();
            (
                format!(
                    "int main() {{ int s = 0; for (int i = 0; i < {n}; i++) {{ s = s + ({a} * i + {b}) % 97; }} printInt(s); return 0; }}"
                ),
                EXT_SETS[1],
                format!("{s}\n"),
            )
        }
        1 => {
            let (n, a, b) = (rng.range(8, 64), rng.range(1, 20), rng.range(0, 20));
            let s: i64 = (0..n).map(|i| (i * a + b) % 101).sum();
            (
                format!(
                    "int main() {{ int n = {n}; Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], (i * {a} + {b}) % 101); int s = with ([0] <= [i] < [n]) fold(+, 0, v[i]); printInt(s); return 0; }}"
                ),
                EXT_SETS[2],
                format!("{s}\n"),
            )
        }
        2 => {
            let (a, b, k) = (rng.range(50, 500), rng.range(2, 9), rng.range(4, 16));
            let (q, r) = (a / b, a % b);
            let s: i64 = (0..k).map(|i| i * q + r).sum();
            (
                format!(
                    "(int, int) divmod(int a, int b) {{ return (a / b, a % b); }} int main() {{ int q = 0; int r = 0; (q, r) = divmod({a}, {b}); rc<int> c = rcAlloc(int, {k}); for (int i = 0; i < {k}; i++) {{ rcSet(c, i, i * q + r); }} int s = 0; for (int i = 0; i < {k}; i++) {{ s = s + rcGet(c, i); }} printInt(s); return 0; }}"
                ),
                EXT_SETS[3],
                format!("{s}\n"),
            )
        }
        3 => {
            let (a, b, x, y) = (
                rng.range(1, 20),
                rng.range(0, 20),
                rng.range(0, 100),
                rng.range(0, 100),
            );
            (
                format!(
                    "int f(int x) {{ return x * {a} + {b}; }} int main() {{ int a = 0; int b = 0; spawn a = f({x}); spawn b = f({y}); sync; printInt(a + b); return 0; }}"
                ),
                EXT_SETS[4],
                format!("{}\n", x * a + b + y * a + b),
            )
        }
        _ => {
            let (n, a) = (rng.range(8, 64), rng.range(1, 12));
            let clause = [
                "unroll i by 4",
                "split i by 4, iin, iout",
                "schedule i dynamic, 2",
            ][rng.below(3) as usize];
            let s: i64 = (0..n).map(|i| (i * a) % 13).sum();
            (
                format!(
                    "int main() {{ int n = {n}; Matrix int <1> v = init(Matrix int <1>, n); v = with ([0] <= [i] < [n]) genarray([n], (i * {a}) % 13) transform {clause}; int s = with ([0] <= [i] < [n]) fold(+, 0, v[i]); printInt(s); return 0; }}"
                ),
                EXT_SETS[5],
                format!("{s}\n"),
            )
        }
    }
}

/// The seeded request mix: mostly `run` of small templated programs,
/// then `compile` and `check` of the same templates, a fuel bomb (code
/// 5) and a type error (code 4).
fn request(rng: &mut Rng, id: usize, nproc: usize) -> Req {
    let (src, needs, out) = template(rng);
    // Most requests take the daemon's default (all five extensions); a
    // quarter name only the set their template needs. Composition cost
    // grows with the independently composable extensions named, so the
    // default keeps the median inside one mode of the latency
    // distribution.
    let ext = if rng.below(4) == 0 {
        Some(needs.to_vec())
    } else {
        None
    };
    let threads = 1 + rng.below(nproc as u64) as usize;
    let roll = rng.below(100);
    let (class, src, ext, expect, extra) = if roll < 80 {
        (
            "run",
            src,
            ext,
            Expect::Output(out),
            format!(", \"threads\": {threads}"),
        )
    } else if roll < 88 {
        ("compile", src, ext, Expect::CSource, String::new())
    } else if roll < 94 {
        ("check", src, ext, Expect::Ok, String::new())
    } else if roll < 97 {
        (
            "fuel_bomb",
            "int main() { int n = 0; while (1 > 0) { n = n + 1; } return 0; }".to_string(),
            None,
            Expect::Code(5),
            ", \"threads\": 1, \"fuel\": 20000".to_string(),
        )
    } else {
        (
            "type_error",
            "int main() { int x = 1; Matrix int <1> v = x; printInt(x); return 0; }".to_string(),
            None,
            Expect::Code(4),
            String::new(),
        )
    };
    let cmd = if class == "compile" {
        "compile"
    } else if class == "check" {
        "check"
    } else {
        "run"
    };
    let line = format!(
        "{{\"id\": \"{id}\", \"cmd\": \"{cmd}\", \"tenant\": \"tenant-{}\", \"src\": {}{}{extra}}}",
        id % 2,
        json::quote(&src),
        ext_json(&ext)
    );
    Req {
        class,
        line,
        expect,
        src,
        ext,
        threads,
    }
}

/// The requests of one phase, drawn from the workload seed.
pub fn phase_requests(seed: u64, phase: &str, n: usize, nproc: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ crate::fnv(phase));
    (0..n).map(|i| request(&mut rng, i, nproc)).collect()
}

/// Check one response line against what its request expects.
fn verdict(req: &Req, resp: &Json) -> Result<(), String> {
    let code = resp.get("code").and_then(Json::as_u64).unwrap_or(99);
    let output = resp.get("output").and_then(Json::as_str);
    let leaked = resp
        .get("metrics")
        .and_then(|m| m.get("leaked"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let err = || {
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    if leaked != 0 {
        return Err(format!("{leaked} buffers leaked"));
    }
    match &req.expect {
        Expect::Code(c) if code == *c => Ok(()),
        Expect::Code(c) => Err(format!("code {code}, expected {c}: {}", err())),
        _ if code != 0 => Err(format!("code {code}: {}", err())),
        Expect::Output(want) if output == Some(want.as_str()) => Ok(()),
        Expect::Output(want) => Err(format!("output {output:?}, expected {want:?}")),
        Expect::CSource if output.is_some_and(|c| c.contains("main(")) => Ok(()),
        Expect::CSource => Err("emitted C has no main".to_string()),
        Expect::Ok => Ok(()),
    }
}

/// Generator plan: the three phases and their sizes.
pub struct Plan {
    pub quiet: usize,
    pub loaded: usize,
    pub closed_s: f64,
}

impl Plan {
    /// Split `budget_s` over the phases: 20 % at the quiet rate, 50 %
    /// at the loaded rate, 30 % closed loop, each at least its floor.
    pub fn for_budget(budget_s: f64) -> Plan {
        Plan {
            quiet: ((budget_s * 0.2 * QUIET_RPS) as usize).max(MIN_QUIET),
            loaded: ((budget_s * 0.5 * LOADED_RPS) as usize).max(MIN_LOADED),
            closed_s: (budget_s * 0.3).max(MIN_CLOSED_S),
        }
    }
}

/// One generator record: a request's phase, class, times relative to
/// the generator's start (ns), verdict, and server-reported queue wait.
#[derive(Debug, Clone)]
pub struct Rec {
    pub phase: String,
    pub class: String,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub queue_ms: f64,
    pub ok: bool,
    pub why: String,
}

impl Rec {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests written and not yet answered, in order.
    pending: VecDeque<usize>,
}

/// Generator mode: connect, run the plan, print one record per request.
pub fn generator(addr: &str, seed: u64, plan: &Plan) -> Result<(), String> {
    let nproc = crate::host::nproc();
    let mut conns: Vec<Conn> = (0..nproc)
        .map(|_| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                buf: Vec::new(),
                pending: VecDeque::new(),
            })
        })
        .collect::<Result<_, String>>()?;
    let t0 = Instant::now();
    let unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    writeln!(out, "start {unix_ns}").map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed ^ crate::fnv("arrivals"));
    let warmup = (WARMUP_S * LOADED_RPS) as usize;
    for (phase, n, rate) in [
        ("quiet", plan.quiet, QUIET_RPS),
        ("warmup", warmup, LOADED_RPS),
        ("loaded", plan.loaded, LOADED_RPS),
    ] {
        let reqs = phase_requests(seed, phase, n, nproc);
        let start = t0.elapsed().as_nanos() as u64 + 20_000_000;
        let mut due = Vec::with_capacity(n);
        let mut t = start as f64;
        for _ in 0..n {
            // Poisson arrivals: exponential gaps at the phase's rate.
            t += -(1.0 - rng.unit()).ln() / rate * 1e9;
            due.push(t as u64);
        }
        run_phase(&mut conns, &reqs, phase, Some(&due), 0.0, t0, &mut out)?;
    }
    let reqs = phase_requests(seed, "closed", 1 << 16, nproc);
    run_phase(
        &mut conns,
        &reqs,
        "closed",
        None,
        plan.closed_s,
        t0,
        &mut out,
    )?;
    out.flush().map_err(|e| e.to_string())
}

/// Drive one phase. With `due`, request `k` goes out at `due[k]` on
/// connection `k % conns` (open loop); without, each connection sends
/// its next request as soon as the previous one is answered, for
/// `closed_s` seconds (closed loop).
fn run_phase(
    conns: &mut [Conn],
    reqs: &[Req],
    phase: &str,
    due: Option<&[u64]>,
    closed_s: f64,
    t0: Instant,
    out: &mut impl Write,
) -> Result<(), String> {
    let now = || t0.elapsed().as_nanos() as u64;
    let mut sent_at = vec![0u64; reqs.len()];
    let mut due_at = vec![0u64; reqs.len()];
    let mut next = 0usize;
    let mut answered = 0usize;
    let phase_start = now();
    let closed_end = phase_start + (closed_s * 1e9) as u64;
    let give_up = phase_start + 120_000_000_000;
    let send = |conn: &mut Conn, k: usize| -> Result<(), String> {
        let mut line = Vec::with_capacity(reqs[k].line.len() + 1);
        line.extend_from_slice(reqs[k].line.as_bytes());
        line.push(b'\n');
        // One write per line: with TCP_NODELAY the whole request leaves
        // in one segment and never waits on a delayed ACK.
        conn.stream
            .write_all(&line)
            .map_err(|e| format!("send: {e}"))?;
        conn.pending.push_back(k);
        Ok(())
    };
    if due.is_none() {
        for conn in conns.iter_mut() {
            let t = now();
            due_at[next] = t;
            sent_at[next] = t;
            send(conn, next)?;
            next += 1;
        }
    }
    loop {
        let t = now();
        if t > give_up {
            return Err(format!("{phase}: no progress within 120 s"));
        }
        match due {
            Some(due) => {
                if answered == reqs.len() {
                    break;
                }
                while next < reqs.len() && due[next] <= t {
                    due_at[next] = due[next];
                    sent_at[next] = now();
                    let c = next % conns.len();
                    send(&mut conns[c], next)?;
                    next += 1;
                }
            }
            None => {
                if t >= closed_end && conns.iter().all(|c| c.pending.is_empty()) {
                    break;
                }
            }
        }
        let wait_ns = match due {
            Some(due) if next < reqs.len() => due[next].saturating_sub(now()),
            _ => 50_000_000,
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd::new(c.stream.as_raw_fd(), poll::POLLIN))
            .collect();
        let ready =
            poll::wait(&mut fds, (wait_ns / 1_000_000) as i32).map_err(|e| e.to_string())?;
        if ready == 0 {
            if wait_ns < 1_000_000 {
                std::thread::sleep(Duration::from_nanos(wait_ns));
            }
            continue;
        }
        for (ci, fd) in fds.iter().enumerate() {
            if !fd.readable() {
                continue;
            }
            let conn = &mut conns[ci];
            let mut chunk = [0u8; 64 * 1024];
            let n = conn
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err(format!("{phase}: server closed connection {ci}"));
            }
            conn.buf.extend_from_slice(&chunk[..n]);
            while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                let done = now();
                let k = conn.pending.pop_front().ok_or("response without request")?;
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).to_string();
                let (ok, why, queue_ms) = match json::parse(&text) {
                    Ok(resp) => {
                        let q = resp
                            .get("metrics")
                            .and_then(|m| m.get("queue_ms"))
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                        match verdict(&reqs[k], &resp) {
                            Ok(()) => (true, String::new(), q),
                            Err(e) => (false, e, q),
                        }
                    }
                    Err(e) => (false, format!("bad response JSON: {e}"), 0.0),
                };
                answered += 1;
                writeln!(
                    out,
                    "rec {phase} {} {} {} {done} {queue_ms} {} {}",
                    reqs[k].class,
                    due_at[k],
                    sent_at[k],
                    ok as u8,
                    why.replace(['\n', '\r'], " ")
                )
                .map_err(|e| e.to_string())?;
                if due.is_none() && done < closed_end {
                    if next == reqs.len() {
                        return Err("closed loop ran out of requests".to_string());
                    }
                    due_at[next] = done;
                    sent_at[next] = done;
                    send(conn, next)?;
                    next += 1;
                }
            }
        }
    }
    Ok(())
}

/// Parse the generator's stdout.
fn parse_records(text: &str) -> (u128, Vec<Rec>) {
    let mut start = 0u128;
    let mut recs = Vec::new();
    for line in text.lines() {
        let mut f = line.splitn(10, ' ');
        match f.next() {
            Some("start") => start = f.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            Some("rec") => {
                let mut next = || f.next().unwrap_or("").to_string();
                let (phase, class) = (next(), next());
                let (due, sent, done, queue) = (next(), next(), next(), next());
                let (ok, why) = (next(), next());
                recs.push(Rec {
                    phase,
                    class,
                    due_ns: due.parse().unwrap_or(0),
                    sent_ns: sent.parse().unwrap_or(0),
                    done_ns: done.parse().unwrap_or(0),
                    queue_ms: queue.parse().unwrap_or(0.0),
                    ok: ok == "1",
                    why,
                });
            }
            _ => {}
        }
    }
    (start, recs)
}

/// Correct closed-loop responses per second: the median over the
/// phase's whole one-second windows. The host sometimes withdraws a
/// vCPU for seconds, which halves throughput while it lasts; the median
/// window reports the daemon's rate, not the length of that stall.
fn closed_rate(closed: &[&Rec]) -> f64 {
    let Some(start) = closed.iter().map(|r| r.due_ns).min() else {
        return 0.0;
    };
    let end = closed.iter().map(|r| r.done_ns).max().unwrap_or(start);
    let windows = ((end - start) / 1_000_000_000).max(1) as usize;
    let mut per_window = vec![0.0; windows];
    for r in closed.iter().filter(|r| r.ok) {
        if let Some(w) = per_window.get_mut(((r.done_ns - start) / 1_000_000_000) as usize) {
            *w += 1.0;
        }
    }
    median(&per_window)
}

/// Daemon configuration: `nproc` workers and per-session threads capped
/// at `nproc`; admission wide enough that the offered load is never
/// shed (a shed request would count as failed).
pub fn config(nproc: usize) -> ServeConfig {
    ServeConfig {
        workers: nproc,
        max_in_flight: 1024,
        session_threads: nproc,
        max_session_threads: nproc,
        ..ServeConfig::default()
    }
}

/// One `ping` roundtrip on `stream`, in nanoseconds.
pub fn ping(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> Result<u64, String> {
    let t = Instant::now();
    stream
        .write_all(b"{\"id\": \"p\", \"cmd\": \"ping\"}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.contains("\"code\": 0") {
        return Err(format!("ping answered {line}"));
    }
    Ok(t.elapsed().as_nanos() as u64)
}

pub fn connect(server: &ServerHandle) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Run the serve phase against `server` for about `budget_s` seconds.
pub fn phase(
    server: &ServerHandle,
    seed: u64,
    budget_s: f64,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let plan = Plan::for_budget(budget_s);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args([
            "gen",
            "--addr",
            &server.local_addr().to_string(),
            "--seed",
            &seed.to_string(),
            "--quiet",
            &plan.quiet.to_string(),
            "--loaded",
            &plan.loaded.to_string(),
            "--closed-s",
            &plan.closed_s.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("generator failed: {}", output.status));
    }
    let (gen_unix_ns, recs) = parse_records(&String::from_utf8_lossy(&output.stdout));
    let expected = plan.quiet + (WARMUP_S * LOADED_RPS) as usize + plan.loaded;
    let open = recs.iter().filter(|r| r.phase != "closed").count();
    rep.check("serve.generator", open == expected, || {
        format!("{open} open-loop responses for {expected} requests")
    });
    for r in &recs {
        rep.check(&format!("serve.{} {}", r.phase, r.class), r.ok, || {
            r.why.clone()
        });
    }
    let lat = |phase: &str| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.phase == phase)
            .map(Rec::latency_ms)
            .collect()
    };
    let (quiet, loaded) = (lat("quiet"), lat("loaded"));
    let lags: Vec<f64> = recs
        .iter()
        .filter(|r| r.phase == "quiet" || r.phase == "loaded")
        .map(Rec::lag_ms)
        .collect();
    let lag_p99 = quantile(&lags, 0.99);
    rep.check("serve.generator_lag", lag_p99 <= MAX_GEN_LAG_MS, || {
        format!("generator fell behind: p99 send lag {lag_p99:.3} ms > {MAX_GEN_LAG_MS} ms")
    });
    let closed: Vec<&Rec> = recs.iter().filter(|r| r.phase == "closed").collect();
    let closed_span_s = closed
        .iter()
        .map(|r| r.done_ns)
        .max()
        .zip(closed.iter().map(|r| r.due_ns).min())
        .map_or(1.0, |(hi, lo)| (hi - lo) as f64 / 1e9);
    let sat_rps = closed_rate(&closed);
    rep.e2e("loaded_p50_ms", median(&loaded), "ms");
    // The quiet median and the loaded tail move with the host's
    // second-scale stalls (10-seed spreads of 0.14–0.28 and 0.3–1.1 on
    // the host the benchmark was introduced on), wider than any
    // end-to-end bound, so they are reported without one.
    rep.layer("serve.quiet_p50_ms", median(&quiet), "ms");
    rep.layer("serve.loaded_p90_ms", quantile(&loaded, 0.90), "ms");
    rep.layer("serve.loaded_p99_ms", quantile(&loaded, 0.99), "ms");
    rep.e2e("sat_rps", sat_rps, "1/s");
    let queue: Vec<f64> = recs
        .iter()
        .filter(|r| r.phase == "quiet" || r.phase == "loaded")
        .map(|r| r.queue_ms)
        .collect();
    rep.layer("serve.queue_ms_p50", median(&queue), "ms");
    rep.layer("serve.queue_ms_p99", quantile(&queue, 0.99), "ms");
    rep.layer("serve.gen_lag_ms", lag_p99, "ms");
    rep.detail(
        "serve_samples",
        format!(
            "{{\"quiet\": {}, \"loaded\": {}, \"loaded_beyond_p99\": {}, \"closed\": {}, \"closed_s\": {closed_span_s:.3}, \"quiet_rps\": {QUIET_RPS}, \"loaded_rps\": {LOADED_RPS}}}",
            quiet.len(),
            loaded.len(),
            loaded.len() / 100,
            closed.len()
        ),
    );
    let stats = server.stats();
    let pc = stats.pool_cache;
    rep.layer(
        "serve.pool_cache_hit_ratio",
        ratio(pc.hits as f64, (pc.hits + pc.misses) as f64),
        "ratio",
    );

    if tracer.enabled() {
        // Client-side roundtrip spans, moved onto the tracer's clock.
        let offset = gen_unix_ns as i128 - tracer.epoch_unix_ns() as i128;
        for r in &recs {
            let op = tracer.op();
            let start_ns = (r.due_ns as i128 + offset).max(0) as u64;
            let name = format!("serve.roundtrip {} {}", r.phase, r.class);
            tracer.record_ns("bench", &name, op, start_ns, r.done_ns - r.due_ns);
        }
        attribute(server, seed, &recs, tracer, rep)?;
    }
    Ok(())
}

/// Replay each request class in-process through the same public calls
/// the daemon makes, with spans, and attribute the quiet roundtrip:
/// whatever the replay and the serve front end (ping, queue wait, JSON)
/// do not cover is unattributed.
fn attribute(
    server: &ServerHandle,
    seed: u64,
    recs: &[Rec],
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let nproc = crate::host::nproc();
    let (mut stream, mut reader) = connect(server)?;
    let pings: Vec<f64> = (0..200)
        .map(|_| ping(&mut stream, &mut reader).map(|ns| ns as f64))
        .collect::<Result<_, _>>()?;
    let ping_ns = median(&pings);
    rep.layer("serve.ping_us", ping_ns / 1e3, "us");
    let queue_ns = median(
        &recs
            .iter()
            .filter(|r| r.phase == "quiet")
            .map(|r| r.queue_ms * 1e6)
            .collect::<Vec<_>>(),
    );

    let registry = Registry::standard();
    let cache = PoolCache::new(8);
    let reqs = phase_requests(seed, "quiet", 400, nproc);
    let mut frontend_us = 0.0;
    for class in ["run", "compile", "check"] {
        let sample: Vec<&Req> = reqs.iter().filter(|r| r.class == class).take(24).collect();
        let rt: Vec<f64> = recs
            .iter()
            .filter(|r| r.phase == "quiet" && r.class == class)
            .map(|r| (r.done_ns - r.due_ns) as f64)
            .collect();
        if sample.is_empty() || rt.is_empty() {
            continue;
        }
        let roundtrip = median(&rt);
        let mut per_layer: Vec<std::collections::BTreeMap<&'static str, f64>> = Vec::new();
        let mut replay_total = Vec::new();
        for req in sample {
            let op = tracer.op();
            let root = tracer.begin("bench", &format!("serve.replay {class}"), op, None);
            replay_request(&registry, &cache, req, tracer, op, root)?;
            tracer.end(root);
            replay_total.push(tracer.duration_ns(root) as f64);
            per_layer.push(tracer.self_times(root));
        }
        // Every request of the class counts, attributed at its quiet
        // median.
        let count = recs.iter().filter(|r| r.class == class).count();
        let mut b = Budget::new(&format!("serve.{class}"), count, roundtrip);
        for layer in crate::trace::LAYERS {
            let v: Vec<f64> = per_layer
                .iter()
                .map(|m| m.get(layer).copied().unwrap_or(0.0))
                .collect();
            b.add(layer, median(&v));
        }
        if class == "run" {
            frontend_us = (roundtrip - median(&replay_total)) / 1e3;
        }
        // The daemon's own share: event loop and socket (a ping), queue
        // wait, and the request/response JSON (replayed inside).
        b.add("serve", ping_ns + queue_ns);
        rep.budgets.push(b);
    }
    rep.layer("serve.frontend_us", frontend_us, "us");
    Ok(())
}

/// The daemon's per-request calls, in order, each under its own span.
fn replay_request(
    registry: &Registry,
    cache: &PoolCache,
    req: &Req,
    tracer: &mut Tracer,
    op: u64,
    root: usize,
) -> Result<(), String> {
    let s = tracer.begin("serve", "json.parse", op, Some(root));
    let parsed = Request::parse(&req.line).map_err(|(_, e)| e)?;
    tracer.end(s);
    let names: Vec<&str> = match &req.ext {
        Some(v) => v.clone(),
        None => EXT_SETS[0].to_vec(),
    };
    let s = tracer.begin("core", "Registry::compiler", op, Some(root));
    let compiler = registry.compiler(&names).map_err(|e| e.to_string())?;
    tracer.end(s);
    let output = match req.class {
        "compile" => {
            let ir = compile_traced(&compiler, &parsed.src, tracer, op, root, true)?;
            let s = tracer.begin("loopir", "emit", op, Some(root));
            let c = cmm_loopir::emit::emit_program(&ir).map_err(|e| e.to_string())?;
            tracer.end(s);
            c
        }
        "check" => {
            compile_traced(&compiler, &parsed.src, tracer, op, root, true)?;
            String::new()
        }
        _ => {
            let ir = compile_traced(&compiler, &parsed.src, tracer, op, root, true)?;
            let s = tracer.begin("serve", "PoolCache::checkout", op, Some(root));
            let (pool, _, _) = cache.checkout(req.threads);
            tracer.end(s);
            let (out, _, _) =
                exec_traced(&ir, Arc::clone(&pool), Limits::default(), tracer, op, root)?;
            let s = tracer.begin("serve", "PoolCache::checkin", op, Some(root));
            cache.checkin(req.threads, pool);
            tracer.end(s);
            out
        }
    };
    let s = tracer.begin("serve", "json.render", op, Some(root));
    let line = Response::ok(&parsed.id, Some(output), None).to_line();
    tracer.end(s);
    std::hint::black_box(line);
    Ok(())
}

/// `Compiler::compile_metered` under a span, with its own per-pass
/// timings laid out back to back as child spans (parse → grammar;
/// build, check, optimize, lower → lang; emit → loopir). `with_emit`
/// false drops the emit pass from the attribution (a `run` or `check`
/// request never emits C).
pub fn compile_traced(
    compiler: &Compiler,
    src: &str,
    tracer: &mut Tracer,
    op: u64,
    parent: usize,
    skip_emit: bool,
) -> Result<cmm_loopir::IrProgram, String> {
    let start = Instant::now();
    let s = tracer.begin("core", "Compiler::compile_metered", op, Some(parent));
    let (ir, metrics) = compiler.compile_metered(src).map_err(|e| e.to_string())?;
    tracer.end(s);
    let mut at = start;
    for p in &metrics.passes {
        let layer = match p.name {
            "parse" => "grammar",
            "emit" => "loopir",
            _ => "lang",
        };
        if !(skip_emit && p.name == "emit") {
            tracer.record(layer, p.name, op, Some(s), at, p.nanos);
        }
        at += Duration::from_nanos(p.nanos);
    }
    if skip_emit {
        // The emit pass ran inside compile_metered but not in the
        // daemon's compile(); take it out of the parent span too.
        if let Some(e) = metrics.passes.iter().find(|p| p.name == "emit") {
            tracer.shorten(s, e.nanos);
        }
    }
    Ok(ir)
}

/// Resolve, VM lowering and execution of `ir` on `pool`, each under its
/// own span; fails unless the VM tier actually ran. Returns the printed
/// output, the resolve and VM-lowering times, and the id of the
/// `run_main` span.
pub fn exec_traced(
    ir: &cmm_loopir::IrProgram,
    pool: Arc<cmm_forkjoin::ForkJoinPool>,
    limits: Limits,
    tracer: &mut Tracer,
    op: u64,
    parent: usize,
) -> Result<(String, [u64; 2], usize), String> {
    let s = tracer.begin("loopir", "Interp::with_pool (resolve)", op, Some(parent));
    let interp = Interp::with_pool(ir, pool).with_limits(limits);
    tracer.end(s);
    let resolve_ns = tracer.duration_ns(s);
    let s = tracer.begin("loopir", "with_tier(Vm) (VM lowering)", op, Some(parent));
    let interp = interp.with_tier(Tier::Vm);
    tracer.end(s);
    let lower_ns = tracer.duration_ns(s);
    if interp.effective_tier() != Tier::Vm {
        return Err("VM lowering fell back to the tree tier".to_string());
    }
    let s = tracer.begin("loopir", "run_main (VM)", op, Some(parent));
    interp.run_main().map_err(|e| e.to_string())?;
    tracer.end(s);
    Ok((interp.output(), [resolve_ns, lower_ns], s))
}
