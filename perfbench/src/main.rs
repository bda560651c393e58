//! End-to-end and per-layer benchmark of the CoPart reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hboth --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every run executes four phases against the repository's crates —
//! node, planner-scale, fleet and serve — checks each phase's output
//! through an independent public path, and prints one JSON object as
//! the last line of stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` also runs a traced twin of every node episode and
//! reports the per-layer metrics instead. See README.md.

mod fleet;
mod node;
mod plan;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use copart_core::scale::{ScaleConfig, ScalePopulation};
use copart_fleet::FleetConfig;
use copart_rng::derive_seed;
use copart_workloads::MixKind;

use report::Report;
use serve::LoadPhase;

/// The inputs one workload feeds every phase.
struct Workload {
    name: &'static str,
    /// Mix of the node phase and of the daemon.
    mix: MixKind,
    plan_apps: usize,
    plan_churn: f64,
    plan_population: ScalePopulation,
    fleet_nodes: usize,
    /// Tenants on each fleet run's churn tape.
    fleet_apps: u64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "hboth",
        mix: MixKind::HighBoth,
        plan_apps: 4000,
        plan_churn: 0.02,
        plan_population: ScalePopulation::FleetMix,
        fleet_nodes: 16,
        fleet_apps: 40,
    },
    Workload {
        name: "mboth-churn",
        mix: MixKind::ModerateBoth,
        plan_apps: 1000,
        plan_churn: 0.2,
        plan_population: ScalePopulation::Uniform,
        fleet_nodes: 12,
        fleet_apps: 32,
    },
];

/// The run is a sequence of rounds, each running a slice of every
/// phase, so that each metric samples the host over the whole run
/// rather than over one stretch of it: on a shared host, speed drifts
/// by tens of percent over tens of seconds. Each round's planner
/// populations and fleet churn tapes have their own seed, because the
/// seed picks which benchmarks are popular, and that moves planner and
/// fleet cost by tens of percent; ten draws average it out.
const ROUNDS: usize = 5;
/// Each round runs node episodes, a planner population and a fleet in
/// two slots, so that each phase samples the host at ten points.
const SLOTS: usize = 2 * ROUNDS;
/// Rounds that time one node set-up; the median is reported.
const SETUP_ROUNDS: [usize; 3] = [0, 2, 4];
/// Fleet epochs per fleet run.
const FLEET_EPOCHS: u64 = 12;
/// Rounds that boot a daemon and load it; the boots' median is the
/// daemon's set-up time.
const SERVE_ROUNDS: [usize; 3] = [0, 2, 4];
/// Control epochs per node episode; ground truth covers the second half.
const EPISODE_EPOCHS: usize = 400;
/// Planner epochs × population size per second of `--seconds`.
const PLAN_APP_EPOCHS_PER_S: f64 = 600_000.0;
/// Open-loop request rates, requests per second.
const RATE_LO: f64 = 2000.0;
const RATE_HI: f64 = 6000.0;
/// Requests per open-loop window: enough for a p99 with ten beyond.
const WINDOW_REQUESTS: f64 = 1000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

fn run(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} jobs {jobs}",
        w.name, args.seed, args.seconds
    );
    let s = args.seconds;

    let mut node = node::NodePhase::default();
    let episodes = SLOTS.max((s * 100.0) as usize / EPISODE_EPOCHS);

    let mut plans = plan::PlanPhase::default();
    // Planner epochs in inverse proportion to the population, so that
    // the phase gets about the same host time on every workload.
    let plan_epochs = (s * PLAN_APP_EPOCHS_PER_S / w.plan_apps as f64) as u32 / SLOTS as u32;

    copart_parallel::set_jobs(Some(jobs));
    let mut fleet = fleet::FleetPhase::default();
    fleet.warm_up(derive_seed(args.seed, 300))?;

    // Per serve block: the low rate sets the window count, since each
    // open-loop window must hold enough requests for a p99.
    let blocks = SERVE_ROUNDS.len() as f64;
    let lo_seconds = s * 0.2 / blocks;
    let windows = ((RATE_LO * lo_seconds / WINDOW_REQUESTS) as usize).max(1);
    let phases = vec![
        LoadPhase {
            rate: RATE_LO,
            seconds: lo_seconds,
        },
        LoadPhase {
            rate: RATE_HI,
            seconds: s * 0.08 / blocks,
        },
        LoadPhase {
            rate: 0.0,
            seconds: s * 0.04 / blocks,
        },
    ];
    let serve_seed = derive_seed(args.seed, 400);
    let mut serve = serve::ServePhase::new(w.mix, serve_seed, jobs, phases, windows)?;

    for round in 0..ROUNDS {
        let k = round as u64;
        if SETUP_ROUNDS.contains(&round) {
            node.set_up(w.mix, derive_seed(args.seed, 100 + k))?;
        }
        for slot in [2 * round, 2 * round + 1] {
            for e in (slot..episodes).step_by(SLOTS) {
                node.episode(derive_seed(args.seed, e as u64), EPISODE_EPOCHS, args.trace)?;
            }
            let plan_seed = derive_seed(args.seed, 200 + slot as u64);
            let mut cfg = ScaleConfig::new(w.plan_apps, plan_epochs, plan_seed);
            cfg.churn = w.plan_churn;
            cfg.population = w.plan_population;
            plans.run(&cfg);
            let fleet_seed = derive_seed(args.seed, 310 + slot as u64);
            let mut cfg = FleetConfig::new(w.fleet_nodes, w.fleet_apps, fleet_seed);
            cfg.horizon = FLEET_EPOCHS;
            fleet.run(cfg, &work_dir.join(format!("fleet-{slot}")))?;
        }
        if SERVE_ROUNDS.contains(&round) {
            serve.block(&work_dir.join(format!("serve-{k}")))?;
        }
    }

    plans.check()?;

    let mut r = Report::default();
    let span_file = work_dir.join(format!("spans-{}.jsonl", w.name));
    let node_s = node.report(&mut r, &span_file)?;
    let plan_s = plans.report(&mut r)?;
    fleet.report(&mut r);
    let serve_s = serve.report(&mut r)?;
    eprintln!(
        "  set-up: node {node_s:.3} s, planner {plan_s:.6} s, fleet {:.3} s, daemon boot {serve_s:.3} s",
        fleet.setup_s
    );
    let setup_s = node_s + plan_s + fleet.setup_s + serve_s;
    r.e2e.put("setup_s", setup_s, "s");
    r.e2e.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(r)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        return gen_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    match run(&args, &work_dir) {
        // Every output check passed. Refused or failed requests are the
        // system's failures, counted in `failed`, not a wrong output.
        Ok(r) => {
            let metrics = if args.trace { &r.layer } else { &r.e2e };
            println!(
                "{}",
                result_line(true, r.attempted, r.failed, &metrics.json())
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", result_line(false, 1, 1, "{}"));
            ExitCode::FAILURE
        }
    }
}

/// The load-generator process: `gen --addr A --conns N --windows W
/// --phases rate:seconds,...` (rate 0 is a closed loop).
fn gen_main(argv: &[String]) -> ExitCode {
    let mut addr = None;
    let mut conns = 1usize;
    let mut windows = 1usize;
    let mut phases = Vec::new();
    let mut it = argv.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--addr" => addr = Some(value.clone()),
            "--conns" => conns = value.parse().unwrap_or(1),
            "--windows" => windows = value.parse().unwrap_or(1),
            "--phases" => {
                for p in value.split(',') {
                    let parsed = p
                        .split_once(':')
                        .and_then(|(r, s)| Some((r.parse().ok()?, s.parse().ok()?)));
                    match parsed {
                        Some((rate, seconds)) => phases.push(LoadPhase { rate, seconds }),
                        None => {
                            eprintln!("perfbench gen: bad phase {p:?}");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            _ => {
                eprintln!("perfbench gen: unknown flag {flag}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("perfbench gen: --addr is required");
        return ExitCode::from(2);
    };
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    serve::generator(&addr, conns.clamp(1, cap), &phases, windows.max(1));
    ExitCode::SUCCESS
}
