//! The serve phase: an in-process `copart serve` daemon scraped by a
//! separate load-generator process (this same binary, `gen` mode).
//!
//! The generator opens at most `nproc` keep-alive connections, one
//! thread each, and rotates `/status`, `/metrics` and `/trace?tail=4`.
//! Open-loop phases send on a fixed schedule and time every request
//! from when it was *due*, so a stall is charged to every request it
//! delays; a closed-loop phase then measures saturation throughput.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use copart_core::policies::PolicyKind;
use copart_serve::{serve_scenario, Scenario, ServeConfig};
use copart_telemetry::Json;
use copart_workloads::MixKind;

use crate::report::Report;
use crate::stats::{median_of, Samples};

/// The read endpoints the generator rotates through.
pub const PATHS: [&str; 3] = ["/status", "/metrics", "/trace?tail=4"];

/// The latency limit on a request's p99, milliseconds: a fifth of the
/// daemon's 25 ms epoch tick.
pub const LATENCY_LIMIT_MS: f64 = 5.0;

/// Worst generator lateness (p99, ms) a run may show and still count:
/// one daemon epoch tick. A generator that its host starves for a whole
/// tick cannot resolve the epoch-by-epoch interference it is there to
/// measure. (Lateness is the generator's own scheduling delay; time a
/// request waits on a busy connection is charged as latency instead.)
pub const LATE_LIMIT_MS: f64 = 25.0;

/// Epochs of the daemon trace compared byte for byte with the
/// one-shot reference run.
const REFERENCE_EPOCHS: u64 = 48;

/// One generator phase: a send rate (0 = closed loop) and its total
/// length.
#[derive(Debug, Clone, Copy)]
pub struct LoadPhase {
    pub rate: f64,
    pub seconds: f64,
}

/// One keep-alive client connection.
struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Sends one GET and reads the whole response: `(status, body)`.
    fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.stream = Some(BufReader::new(s));
        }
        let out = self.exchange(path);
        match &out {
            Ok((_, _, keep)) if *keep => {}
            _ => self.stream = None,
        }
        out.map(|(status, body, _)| (status, body))
    }

    fn exchange(&mut self, path: &str) -> io::Result<(u16, Vec<u8>, bool)> {
        let r = self.stream.as_mut().expect("connected above");
        write!(
            r.get_mut(),
            "GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n"
        )?;
        let mut line = String::new();
        r.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut keep = true;
        loop {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    length = v
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                } else if k.eq_ignore_ascii_case("connection") {
                    keep = !v.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0; length];
        r.read_exact(&mut body)?;
        Ok((status, body, keep))
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    path: usize,
    /// Due time to response end, nanoseconds.
    latency_ns: f64,
    /// Send time minus the later of due time and the connection
    /// becoming free: how late the generator itself ran.
    late_ns: f64,
    ok: bool,
    bytes: usize,
}

fn open_loop(
    addr: &str,
    conn_id: usize,
    conns: usize,
    phase: LoadPhase,
    t0: Instant,
) -> Vec<Sample> {
    let total = (phase.rate * phase.seconds).round() as usize;
    let mut conn = Conn::new(addr);
    let mut out = Vec::with_capacity(total / conns + 1);
    let mut free_at = t0;
    for i in (conn_id..total).step_by(conns) {
        let due = t0 + Duration::from_secs_f64(i as f64 / phase.rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due.max(free_at));
        let path = i % PATHS.len();
        let result = conn.get(PATHS[path]);
        free_at = Instant::now();
        let (ok, bytes) = match result {
            Ok((status, body)) => ((200..300).contains(&status), body.len()),
            Err(_) => (false, 0),
        };
        out.push(Sample {
            path,
            latency_ns: free_at.saturating_duration_since(due).as_nanos() as f64,
            late_ns: late.as_nanos() as f64,
            ok,
            bytes,
        });
    }
    out
}

fn closed_loop(addr: &str, conn_id: usize, seconds: f64) -> (u64, u64) {
    let mut conn = Conn::new(addr);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut ok, mut failed) = (0, 0);
    let mut i = conn_id;
    while Instant::now() < end {
        match conn.get(PATHS[i % PATHS.len()]) {
            Ok((status, _)) if (200..300).contains(&status) => ok += 1,
            _ => failed += 1,
        }
        i += 1;
    }
    (ok, failed)
}

fn run_threads<T: Send>(conns: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let body = &body;
        let joins: Vec<_> = (0..conns).map(|c| s.spawn(move || body(c))).collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Latencies of the picked requests; a failed request misses every
/// latency limit, so it counts as infinitely slow.
fn latencies(samples: &[Sample], pick: impl Fn(&Sample) -> bool) -> Samples {
    Samples::new(
        samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| if s.ok { s.latency_ns } else { f64::INFINITY })
            .collect(),
    )
}

fn ms(v: Option<f64>) -> String {
    v.map_or("none".to_string(), |ns| format!("{}", ns / 1e6))
}

/// The generator process. The phases are interleaved: each of
/// `windows` rounds runs every phase for `1/windows` of its length, so
/// a slow spell of the host lands in a few windows of every phase
/// rather than in the whole of one. Prints, as `key=value` lines on
/// stdout, one `win` line per phase window and one `sum` line per
/// phase.
pub fn generator(addr: &str, conns: usize, phases: &[LoadPhase], windows: usize) {
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); phases.len()];
    let mut closed: Vec<(u64, u64)> = vec![(0, 0); phases.len()];
    for _ in 0..windows {
        for (i, phase) in phases.iter().enumerate() {
            let window = LoadPhase {
                seconds: phase.seconds / windows as f64,
                ..*phase
            };
            if phase.rate == 0.0 {
                let t0 = Instant::now();
                let counts = run_threads(conns, |c| closed_loop(addr, c, window.seconds));
                let elapsed = t0.elapsed().as_secs_f64();
                let ok: u64 = counts.iter().map(|c| c.0).sum();
                let bad: u64 = counts.iter().map(|c| c.1).sum();
                closed[i].0 += ok + bad;
                closed[i].1 += bad;
                println!("win phase={i} rps={}", ok as f64 / elapsed);
            } else {
                let t0 = Instant::now() + Duration::from_millis(2);
                let got: Vec<Sample> =
                    run_threads(conns, |c| open_loop(addr, c, conns, window, t0))
                        .into_iter()
                        .flatten()
                        .collect();
                let lat = latencies(&got, |_| true);
                println!(
                    "win phase={i} p50_ms={} p99_ms={}",
                    ms(lat.median()),
                    ms(lat.percentile(99.0))
                );
                samples[i].extend(got);
            }
        }
    }
    for (i, phase) in phases.iter().enumerate() {
        if phase.rate == 0.0 {
            println!("sum phase={i} sent={} failed={}", closed[i].0, closed[i].1);
            continue;
        }
        let all = &samples[i];
        let path_p99 = |p: usize| ms(latencies(all, |s| s.path == p).percentile(99.0));
        let late = Samples::new(all.iter().map(|s| s.late_ns).collect());
        let metrics_bytes = Samples::new(
            all.iter()
                .filter(|s| s.path == 1 && s.ok)
                .map(|s| s.bytes as f64)
                .collect(),
        );
        println!(
            "sum phase={i} sent={} failed={} status_p99_ms={} metrics_p99_ms={} trace_p99_ms={} late_p99_ms={} metrics_bytes={}",
            all.len(),
            all.iter().filter(|s| !s.ok).count(),
            path_p99(0),
            path_p99(1),
            path_p99(2),
            ms(late.percentile(99.0)),
            metrics_bytes.median().unwrap_or(0.0),
        );
    }
}

/// The `key=value` fields of one generator line.
struct Line {
    fields: Vec<(String, String)>,
}

impl Line {
    fn parse(line: &str) -> Line {
        Line {
            fields: line
                .split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// A numeric field; a missing or refused (`none`) value is an error.
    fn num(&self, key: &str) -> Result<f64, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("generator reported no usable {key}"))
    }
}

/// Parses Prometheus text: every sample line must be `series value`.
fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, value) = l
                .rsplit_once(' ')
                .ok_or_else(|| format!("/metrics line without a value: {l:?}"))?;
            let value = value
                .parse::<f64>()
                .map_err(|_| format!("/metrics value does not parse: {l:?}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The daemon's trace files, concatenated in rotation order.
fn read_trace_dir(dir: &Path) -> Result<Vec<String>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let mut lines = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        lines.extend(text.lines().map(str::to_string));
    }
    Ok(lines)
}

/// The serve phase, run as a few blocks spread over the benchmark run.
/// Each block boots a fresh daemon (timing the boot), runs the
/// generator process against it, scrapes and checks its outputs, and
/// shuts it down.
pub struct ServePhase {
    scenario: Scenario,
    reference: Vec<String>,
    conns: usize,
    /// Per-block phase lengths, and the windows each is cut into.
    phases: Vec<LoadPhase>,
    windows: usize,
    /// Boot-until-listening seconds of each block's daemon.
    boot_s: Vec<f64>,
    /// Every `win` line and every `sum` line, tagged by phase.
    wins: Vec<Line>,
    sums: Vec<Line>,
    /// Each block's `/metrics` scrape after its load.
    scrapes: Vec<Vec<(String, f64)>>,
}

impl ServePhase {
    pub fn new(
        mix: MixKind,
        seed: u64,
        conns: usize,
        phases: Vec<LoadPhase>,
        windows: usize,
    ) -> Result<ServePhase, String> {
        let scenario = Scenario::new(mix, 4, PolicyKind::CoPart, seed, None)?;
        let reference = scenario.reference_trace(REFERENCE_EPOCHS)?;
        Ok(ServePhase {
            scenario,
            reference,
            conns,
            phases,
            windows,
            boot_s: Vec::new(),
            wins: Vec::new(),
            sums: Vec::new(),
            scrapes: Vec::new(),
        })
    }

    /// Runs one block in a fresh `dir`.
    pub fn block(&mut self, dir: &Path) -> Result<(), String> {
        fresh_dir(dir)?;
        let cfg = ServeConfig {
            trace_dir: Some(dir.join("trace")),
            state_dir: Some(dir.join("state")),
            ..ServeConfig::default()
        };
        let t = Instant::now();
        let handle = serve_scenario(&self.scenario, cfg)?;
        self.boot_s.push(t.elapsed().as_secs_f64());
        let addr = handle.addr().to_string();
        let gen = self.generate(&addr);
        // Scrape once more, then stop the daemon whatever the generator did.
        let mut conn = Conn::new(&addr);
        let metrics = conn.get("/metrics");
        let status = conn.get("/status");
        drop(conn);
        handle.shutdown();
        handle.join();

        for line in gen?.lines() {
            match line.split_whitespace().next() {
                Some("win") => self.wins.push(Line::parse(line)),
                Some("sum") => self.sums.push(Line::parse(line)),
                _ => {}
            }
        }
        let (code, body) = metrics.map_err(|e| format!("scraping /metrics: {e}"))?;
        if code != 200 {
            return Err(format!("/metrics answered {code}"));
        }
        self.scrapes
            .push(parse_prometheus(&String::from_utf8_lossy(&body))?);
        let (code, body) = status.map_err(|e| format!("fetching /status: {e}"))?;
        if code != 200 {
            return Err(format!("/status answered {code}"));
        }
        Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("/status JSON: {e:?}"))?;
        self.check_trace(&dir.join("trace"))
    }

    /// Runs the generator process to completion and returns its stdout.
    fn generate(&self, addr: &str) -> Result<String, String> {
        let spec: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("{}:{}", p.rate, p.seconds))
            .collect();
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let out = Command::new(exe)
            .args(["gen", "--addr", addr, "--conns", &self.conns.to_string()])
            .args(["--windows", &self.windows.to_string()])
            .args(["--phases", &spec.join(",")])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running the generator: {e}"))?;
        if !out.status.success() {
            return Err(format!("generator exited with {}", out.status));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    }

    /// The daemon trace's first epochs must be byte-identical to the
    /// one-shot reference run of the same scenario.
    fn check_trace(&self, dir: &Path) -> Result<(), String> {
        let trace = read_trace_dir(dir)?;
        let want = &self.reference;
        if trace.len() >= want.len() && trace[..want.len()] == want[..] {
            return Ok(());
        }
        let at = trace
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(trace.len().min(want.len()));
        Err(format!(
            "daemon trace differs from the reference run at line {} of {}",
            at + 1,
            want.len()
        ))
    }

    fn lines(lines: &[Line], phase: usize) -> impl Iterator<Item = &Line> {
        let tag = phase.to_string();
        lines
            .iter()
            .filter(move |l| l.fields.iter().any(|(k, v)| k == "phase" && *v == tag))
    }

    /// Median over every window of every block of a `win` field.
    pub fn window_median(&self, phase: usize, key: &str) -> Result<f64, String> {
        let values = Self::lines(&self.wins, phase)
            .map(|l| l.num(key))
            .collect::<Result<Vec<f64>, String>>()?;
        Samples::new(values)
            .median()
            .ok_or_else(|| format!("no windows for phase {phase}"))
    }

    /// Median over blocks of a `sum` field.
    pub fn block_median(&self, phase: usize, key: &str) -> Result<f64, String> {
        let values = Self::lines(&self.sums, phase)
            .map(|l| l.num(key))
            .collect::<Result<Vec<f64>, String>>()?;
        Samples::new(values)
            .median()
            .ok_or_else(|| format!("no summary for phase {phase}"))
    }

    /// Total over blocks of a `sum` field.
    pub fn block_total(&self, key: &str) -> Result<f64, String> {
        self.sums.iter().map(|l| l.num(key)).sum()
    }

    /// Worst generator lateness (p99, ms) of any open-loop phase of any
    /// block.
    pub fn late_p99_ms(&self) -> Result<f64, String> {
        self.sums
            .iter()
            .filter(|l| l.fields.iter().any(|(k, _)| k == "late_p99_ms"))
            .map(|l| l.num("late_p99_ms"))
            .try_fold(0.0, |worst: f64, v| Ok(worst.max(v?)))
    }

    /// A scraped series summed over blocks (0 when absent).
    pub fn prom_total(&self, name: &str) -> f64 {
        self.scrapes
            .iter()
            .flat_map(|s| s.iter().filter(|(n, _)| n == name))
            .map(|(_, v)| v)
            .sum()
    }

    /// A daemon histogram's mean in ms, from `_sum` over `_count`
    /// pooled over blocks.
    pub fn prom_mean_ms(&self, hist: &str) -> f64 {
        let count = self.prom_total(&format!("{hist}_count"));
        if count == 0.0 {
            return 0.0;
        }
        self.prom_total(&format!("{hist}_sum")) / count / 1e6
    }

    /// Reports the phase's metrics and returns its set-up seconds (the
    /// median boot). Phase 0 is the low open-loop rate, 1 the high one,
    /// 2 the closed loop.
    pub fn report(&self, r: &mut Report) -> Result<f64, String> {
        r.attempted += self.block_total("sent")? as u64;
        r.failed += self.block_total("failed")? as u64;
        for (phase, rate) in [(0, self.phases[0].rate), (1, self.phases[1].rate)] {
            let p99 = self.window_median(phase, "p99_ms")?;
            let verdict = if p99 <= LATENCY_LIMIT_MS {
                "meets"
            } else {
                "misses"
            };
            eprintln!("  serve at {rate} req/s: p99 {p99:.3} ms {verdict} the {LATENCY_LIMIT_MS} ms limit");
        }
        let late_ms = self.late_p99_ms()?;
        if late_ms > LATE_LIMIT_MS {
            return Err(format!(
                "the load generator fell behind: late p99 {late_ms:.3} ms > {LATE_LIMIT_MS} ms"
            ));
        }
        let boot_s = median_of(&self.boot_s);
        // Request latency and saturation track the host's CPU contention
        // too closely to hold an end-to-end bound on a shared host, so
        // they are per-layer figures; see README.md.
        let layer = &mut r.layer;
        layer.put("serve.req_ms_p50", self.window_median(0, "p50_ms")?, "ms");
        layer.put("serve.req_ms_p99", self.window_median(0, "p99_ms")?, "ms");
        layer.put(
            "serve.req_ms_p99_hi",
            self.window_median(1, "p99_ms")?,
            "ms",
        );
        layer.put("serve.sat_rps", self.window_median(2, "rps")?, "1/s");
        layer.put("serve.boot_s", boot_s, "s");
        layer.put(
            "serve.status_ms_p99",
            self.block_median(0, "status_p99_ms")?,
            "ms",
        );
        layer.put(
            "serve.metrics_ms_p99",
            self.block_median(0, "metrics_p99_ms")?,
            "ms",
        );
        layer.put(
            "serve.trace_ms_p99",
            self.block_median(0, "trace_p99_ms")?,
            "ms",
        );
        layer.put(
            "serve.metrics_bytes",
            self.block_median(0, "metrics_bytes")?,
            "bytes",
        );
        let misses = self.prom_total("copart_epoch_deadline_misses_total");
        layer.put("serve.deadline_misses", misses, "count");
        layer.put(
            "serve.tick_lag_ms_mean",
            self.prom_mean_ms("copart_tick_lag_ns"),
            "ms",
        );
        layer.put(
            "serve.epoch_ms_mean",
            self.prom_mean_ms("copart_epoch_ns"),
            "ms",
        );
        let snapshots = self.prom_total("copart_snapshots_written_total");
        layer.put("serve.snapshots", snapshots, "count");
        layer.put(
            "persist.snapshot_ms_mean",
            self.prom_mean_ms("copart_snapshot_ns"),
            "ms",
        );
        layer.put("gen.late_ms_p99", late_ms, "ms");
        Ok(boot_s)
    }
}
