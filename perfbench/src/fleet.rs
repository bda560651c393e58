//! The fleet phase: `run_fleet` over many simulated nodes fed by the
//! zipf-skewed churn tape, with node snapshots written to a state
//! directory at the end of each run.

use std::path::Path;
use std::time::Instant;

use copart_fleet::{check_fleet_trace, run_fleet, FleetConfig, FleetEvent};

use crate::report::Report;
use crate::stats::median_of;

/// What one fleet run produced.
pub struct FleetRun {
    /// Host seconds of the `run_fleet` call.
    pub wall_s: f64,
    pub epochs: u64,
    /// Sum over fleet epochs of the nodes active in that epoch.
    pub node_epochs: u64,
    /// Per-epoch fleet-wide p99 of per-node unfairness.
    pub unfairness_p99: Vec<f64>,
    pub placements: u64,
    pub migrations: u64,
    pub node_boots: u64,
    pub snapshots: u64,
    /// Snapshot files found in the state directory.
    pub snapshot_files: u64,
    /// Bytes of every snapshot file written.
    pub snapshot_bytes: u64,
}

/// Runs one fleet and checks its trace with `check_fleet_trace`.
pub fn run(cfg: &FleetConfig) -> Result<FleetRun, String> {
    let t = Instant::now();
    let outcome = run_fleet(cfg)?;
    let wall_s = t.elapsed().as_secs_f64();
    let stats = check_fleet_trace(&outcome.trace)?;
    let mut node_epochs = 0;
    let mut unfairness_p99 = Vec::new();
    for line in outcome.trace.lines() {
        if let FleetEvent::Summary {
            active_nodes,
            unfairness_p99: p99,
            ..
        } = FleetEvent::parse_json_line(line)?
        {
            node_epochs += active_nodes;
            unfairness_p99.push(p99);
        }
    }
    if stats.epochs != cfg.horizon || unfairness_p99.len() as u64 != cfg.horizon {
        return Err(format!(
            "fleet trace summarizes {} of {} epochs",
            stats.epochs, cfg.horizon
        ));
    }
    let agg = &outcome.aggregator;
    if stats.placements != agg.placements || stats.migrations != agg.migrations {
        return Err("fleet trace and aggregator disagree on placements/migrations".into());
    }
    let (snapshot_files, snapshot_bytes) = match &cfg.state_dir {
        Some(dir) => snapshot_files(dir)?,
        None => (0, 0),
    };
    Ok(FleetRun {
        wall_s,
        epochs: stats.epochs,
        node_epochs,
        unfairness_p99,
        placements: agg.placements,
        migrations: agg.migrations,
        node_boots: agg.node_boots,
        snapshots: outcome.snapshots_written,
        snapshot_files,
        snapshot_bytes,
    })
}

/// Count and total size of the `snap-*.json` files under `dir`,
/// recursively.
pub fn snapshot_files(dir: &Path) -> Result<(u64, u64), String> {
    let (mut count, mut bytes) = (0, 0);
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if meta.is_dir() {
            let (c, b) = snapshot_files(&entry.path())?;
            count += c;
            bytes += b;
        } else if name.starts_with("snap-") && name.ends_with(".json") {
            count += 1;
            bytes += meta.len();
        }
    }
    Ok((count, bytes))
}

/// The fleet phase's runs, reported together.
#[derive(Default)]
pub struct FleetPhase {
    /// Seconds of the warm-up run that fills the fleet's lazily built
    /// STREAM table, which every later run in the process reuses.
    pub setup_s: f64,
    runs: Vec<FleetRun>,
}

impl FleetPhase {
    /// The one-tenant, one-epoch warm-up run.
    pub fn warm_up(&mut self, seed: u64) -> Result<(), String> {
        let mut warm = FleetConfig::new(1, 1, seed);
        warm.horizon = 1;
        let t = Instant::now();
        run(&warm)?;
        self.setup_s = t.elapsed().as_secs_f64();
        Ok(())
    }

    /// One measured fleet run with its snapshots in a fresh `dir`.
    pub fn run(&mut self, mut cfg: FleetConfig, dir: &Path) -> Result<(), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        cfg.state_dir = Some(dir.to_path_buf());
        let r = run(&cfg)?;
        eprintln!(
            "  fleet run {}: {:.3} s, {} node epochs, {} placements, {} migrations, {} boots",
            self.runs.len(),
            r.wall_s,
            r.node_epochs,
            r.placements,
            r.migrations,
            r.node_boots
        );
        self.runs.push(r);
        Ok(())
    }

    pub fn report(&self, r: &mut Report) {
        let total = |f: fn(&FleetRun) -> u64| self.runs.iter().map(f).sum::<u64>();
        let wall: f64 = self.runs.iter().map(|run| run.wall_s).sum();
        let node_epochs = total(|run| run.node_epochs);
        r.attempted += total(|run| run.epochs);
        r.e2e.put(
            "fleet_epochs_per_s",
            total(|run| run.epochs) as f64 / wall,
            "1/s",
        );
        // Per-epoch p99 of per-node unfairness over the second half of
        // each run, once nodes have finished booting and profiling.
        let settled: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|run| {
                run.unfairness_p99[run.unfairness_p99.len() / 2..]
                    .iter()
                    .copied()
            })
            .collect();
        let layer = &mut r.layer;
        layer.put("fleet.unfairness_p99", median_of(&settled), "ratio");
        layer.put(
            "fleet.placements",
            total(|run| run.placements) as f64,
            "count",
        );
        layer.put(
            "fleet.migrations",
            total(|run| run.migrations) as f64,
            "count",
        );
        layer.put(
            "fleet.node_boots",
            total(|run| run.node_boots) as f64,
            "count",
        );
        layer.put("fleet.node_epochs", node_epochs as f64, "count");
        layer.put(
            "fleet.host_ms_per_node_epoch",
            wall * 1e3 / node_epochs as f64,
            "ms",
        );
        layer.put(
            "persist.snapshots",
            total(|run| run.snapshots) as f64,
            "count",
        );
        let files = total(|run| run.snapshot_files).max(1);
        layer.put(
            "persist.snapshot_bytes",
            total(|run| run.snapshot_bytes) as f64 / files as f64,
            "bytes",
        );
    }
}
