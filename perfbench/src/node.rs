//! The node phase: one simulated Xeon node running the CoPart policy
//! over a four-application mix as a closed loop of control epochs, with
//! an in-memory `RingRecorder` flight recorder (shared through
//! `copart_serve::SharedRing` so the benchmark can read it back).
//!
//! Ground truth (slowdowns, unfairness, throughput) is read straight
//! from the simulator's counters over the second half of each episode,
//! the way the paper's evaluation harness measures it.

use std::path::Path;
use std::time::Instant;

use copart_core::policies::{self, PolicyKind};
use copart_core::runtime::{ConsolidationRuntime, PeriodRecord, Phase};
use copart_core::{metrics, CoPartParams, SystemState};
use copart_rdt::{ClosId, RdtBackend, SimBackend};
use copart_serve::SharedRing;
use copart_sim::{AppSpec, Machine, MachineConfig};
use copart_telemetry::{CounterSnapshot, Recorder, TraceEvent};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

use crate::report::Report;
use crate::spans::{self, Layer, Span, TimedBackend, TimedRecorder};
use crate::stats::{mean_of_slice_medians, median_of, slice_medians, Samples};

/// Everything an episode needs that does not depend on the seed.
pub struct NodeInputs {
    pub machine: MachineConfig,
    pub specs: Vec<AppSpec>,
    /// Solo full-resource IPS per application (the Eq 1 numerators).
    pub full: Vec<f64>,
    pub stream: StreamReference,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub stream_table_s: f64,
    pub solo_refs_s: f64,
    /// Runtime build plus `profile()`.
    pub profile_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.stream_table_s + self.solo_refs_s + self.profile_s
    }
}

/// Measures the STREAM table and solo references, then builds and
/// profiles one runtime, timing each step.
pub fn set_up(mix: MixKind, seed: u64) -> Result<(NodeInputs, SetupTimes), String> {
    let machine = MachineConfig::xeon_gold_6130();
    let specs = WorkloadMix::build(mix, 4, machine.n_cores).specs();
    let t = Instant::now();
    let stream = StreamReference::compute(&machine, 4);
    let stream_table_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let full = policies::solo_full_ips(&machine, &specs);
    let solo_refs_s = t.elapsed().as_secs_f64();
    let inputs = NodeInputs {
        machine,
        specs,
        full,
        stream,
    };
    let t = Instant::now();
    let (mut rt, _) = build(&inputs, seed, |b| b)?;
    rt.profile().map_err(|e| format!("profiling: {e}"))?;
    let profile_s = t.elapsed().as_secs_f64();
    Ok((
        inputs,
        SetupTimes {
            stream_table_s,
            solo_refs_s,
            profile_s,
        },
    ))
}

/// A backend whose simulator can be read directly, bypassing any
/// decorator, for ground truth.
pub trait SimAccess: RdtBackend {
    fn sim_mut(&mut self) -> &mut SimBackend;
}

impl SimAccess for SimBackend {
    fn sim_mut(&mut self) -> &mut SimBackend {
        self
    }
}

impl SimAccess for TimedBackend<SimBackend> {
    fn sim_mut(&mut self) -> &mut SimBackend {
        &mut self.0
    }
}

type Built<B> = (ConsolidationRuntime<B>, Vec<ClosId>);

fn build<B: RdtBackend>(
    inputs: &NodeInputs,
    seed: u64,
    wrap: impl FnOnce(SimBackend) -> B,
) -> Result<Built<B>, String> {
    let mut sim = SimBackend::new(Machine::new(inputs.machine.clone()));
    let mut named = Vec::new();
    for spec in &inputs.specs {
        let g = sim
            .add_workload(spec.clone())
            .map_err(|e| format!("mix does not fit: {e}"))?;
        named.push((g, spec.name.clone()));
    }
    let groups = named.iter().map(|(g, _)| *g).collect();
    let params = CoPartParams {
        seed,
        ..CoPartParams::default()
    };
    let cfg = policies::dynamic_runtime_config(
        &inputs.machine,
        inputs.specs.len(),
        &inputs.stream,
        PolicyKind::CoPart,
        &params,
    );
    let rt = ConsolidationRuntime::new(wrap(sim), named, cfg)
        .map_err(|e| format!("initial partition: {e}"))?;
    Ok((rt, groups))
}

/// What one episode produced.
pub struct Episode {
    /// Host nanoseconds per `run_period_into`.
    pub epoch_ns: Vec<f64>,
    /// Host seconds of the whole epoch loop.
    pub loop_s: f64,
    /// Ground-truth σ/μ of slowdowns over the second half.
    pub unfairness: f64,
    /// Ground-truth geomean IPS / 1e9 over the second half.
    pub gips: f64,
    /// The flight recorder's contents as JSON lines.
    pub trace: String,
    pub transfers: u64,
    pub theta_retries: u64,
    pub matching_rounds: u64,
    /// Epochs that ended in the Exploring phase.
    pub exploring_epochs: u64,
    /// Spans of the epoch loop (traced episodes only).
    pub spans: Vec<Span>,
}

/// Runs one episode of `epochs` control epochs after profiling.
pub fn episode(inputs: &NodeInputs, seed: u64, epochs: usize) -> Result<Episode, String> {
    let mut plain = EpisodeRun::new(inputs, seed, epochs, false, |b| b)?;
    for _ in 0..epochs {
        plain.step()?;
    }
    plain.finish(inputs)
}

/// Runs an episode twice from the same seed: plainly, and with the
/// backend and recorder wrapped in the timing decorators and a span
/// recorded around every epoch. The two runtimes step alternately, one
/// epoch each, so a drift in host speed touches both alike and their
/// difference is the tracing overhead.
pub fn episode_pair(
    inputs: &NodeInputs,
    seed: u64,
    epochs: usize,
) -> Result<(Episode, Episode), String> {
    let mut plain = EpisodeRun::new(inputs, seed, epochs, false, |b| b)?;
    let mut traced = EpisodeRun::new(inputs, seed, epochs, true, TimedBackend)?;
    for _ in 0..epochs {
        plain.step()?;
        traced.step()?;
    }
    Ok((plain.finish(inputs)?, traced.finish(inputs)?))
}

fn read_truth<B: SimAccess>(
    rt: &mut ConsolidationRuntime<B>,
    groups: &[ClosId],
) -> Vec<CounterSnapshot> {
    let sim = rt.backend_mut().sim_mut();
    groups
        .iter()
        .map(|&g| sim.read_counters(g).expect("admitted group is live"))
        .collect()
}

fn ips_between(a: &[CounterSnapshot], b: &[CounterSnapshot]) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(s0, s1)| {
            s1.delta_since(s0)
                .and_then(|d| d.rates())
                .map_or(0.0, |r| r.ips)
        })
        .collect()
}

/// One episode in progress: a profiled runtime stepped epoch by epoch.
struct EpisodeRun<B: SimAccess> {
    rt: ConsolidationRuntime<B>,
    groups: Vec<ClosId>,
    ring: SharedRing,
    traced: bool,
    epochs: usize,
    record: PeriodRecord,
    /// Ground-truth counters at the start of the measured second half.
    start: Vec<CounterSnapshot>,
    epoch_ns: Vec<f64>,
    loop_s: f64,
    exploring_epochs: u64,
    spans: Vec<Span>,
}

impl<B: SimAccess> EpisodeRun<B> {
    fn new(
        inputs: &NodeInputs,
        seed: u64,
        epochs: usize,
        traced: bool,
        wrap: impl FnOnce(SimBackend) -> B,
    ) -> Result<Self, String> {
        let (mut rt, groups) = build(inputs, seed, wrap)?;
        let ring = SharedRing::new(epochs + 256);
        let recorder: Box<dyn Recorder + Send> = if traced {
            Box::new(TimedRecorder(ring.clone()))
        } else {
            Box::new(ring.clone())
        };
        rt.set_recorder(recorder);
        rt.profile().map_err(|e| format!("profiling: {e}"))?;
        let record = PeriodRecord {
            time_ns: 0,
            phase: rt.phase(),
            state: SystemState::default(),
            apps: Vec::new(),
            unfairness: 0.0,
        };
        let start = read_truth(&mut rt, &groups);
        Ok(EpisodeRun {
            rt,
            groups,
            ring,
            traced,
            epochs,
            record,
            start,
            epoch_ns: Vec::with_capacity(epochs),
            loop_s: 0.0,
            exploring_epochs: 0,
            spans: Vec::new(),
        })
    }

    /// Runs one control epoch, timed, and checks the state it applied.
    fn step(&mut self) -> Result<(), String> {
        let t_step = Instant::now();
        let k = self.epoch_ns.len();
        if k == self.epochs / 2 {
            self.start = read_truth(&mut self.rt, &self.groups);
        }
        if self.traced {
            spans::start();
            spans::set_epoch(self.rt.epoch());
        }
        let (rt, record) = (&mut self.rt, &mut self.record);
        let t0 = Instant::now();
        let outcome = spans::span(Layer::Epoch, || rt.run_period_into(record));
        self.epoch_ns.push(t0.elapsed().as_nanos() as f64);
        if self.traced {
            spans::append(&mut self.spans, spans::stop(), 0);
        }
        outcome.map_err(|e| format!("epoch {k} failed: {e}"))?;
        if !self.record.state.is_valid(&self.rt.config().budget) {
            return Err(format!("epoch {k} applied an invalid state"));
        }
        if self.record.phase == Phase::Exploring {
            self.exploring_epochs += 1;
        }
        self.loop_s += t_step.elapsed().as_secs_f64();
        Ok(())
    }

    /// Ground truth over the second half, and the output checks.
    fn finish(mut self, inputs: &NodeInputs) -> Result<Episode, String> {
        let end = read_truth(&mut self.rt, &self.groups);
        let ips = ips_between(&self.start, &end);
        let slowdowns: Vec<f64> = ips
            .iter()
            .zip(&inputs.full)
            .map(|(&i, &f)| metrics::slowdown(f, i))
            .collect();
        let events = self.ring.all();
        check_trace(&events, self.epochs)?;
        let snap = self.rt.metrics_snapshot();
        Ok(Episode {
            epoch_ns: self.epoch_ns,
            loop_s: self.loop_s,
            unfairness: metrics::unfairness(&slowdowns),
            gips: metrics::geomean(&ips) / 1e9,
            trace: events.iter().map(|e| e.to_json_line() + "\n").collect(),
            transfers: snap.counter("transfers"),
            theta_retries: snap.counter("theta_retries"),
            matching_rounds: snap.counter("matching_rounds"),
            exploring_epochs: self.exploring_epochs,
            spans: self.spans,
        })
    }
}

/// The flight recorder must hold every event: epochs gapless from 0,
/// simulated time never rewinding, and one event per control epoch
/// after the profiling probes.
fn check_trace(events: &[TraceEvent], epochs: usize) -> Result<(), String> {
    for (i, e) in events.iter().enumerate() {
        if e.epoch != i as u64 {
            return Err(format!(
                "trace event {i} has epoch {}: not gapless",
                e.epoch
            ));
        }
    }
    if let Some(i) = events.windows(2).position(|w| w[1].time_ns < w[0].time_ns) {
        return Err(format!("trace time rewinds at event {}", i + 1));
    }
    if events.len() < epochs {
        return Err(format!(
            "trace holds {} events for {epochs} epochs",
            events.len()
        ));
    }
    Ok(())
}

/// Consecutive epochs whose median is one slice of `epoch_ms_p50`.
const SLICE_EPOCHS: usize = 50;

/// The node phase's running totals over set-ups and episodes.
#[derive(Default)]
pub struct NodePhase {
    inputs: Option<NodeInputs>,
    setups: Vec<SetupTimes>,
    episodes: u64,
    epoch_ns: Vec<f64>,
    /// Median epoch time of every `SLICE_EPOCHS` epochs, in run order.
    slice_p50_ns: Vec<f64>,
    loop_s: f64,
    unfairness: Vec<f64>,
    gips: Vec<f64>,
    transfers: u64,
    theta_retries: u64,
    matching_rounds: u64,
    traced: Option<Traced>,
}

/// What the traced twins of the episodes recorded.
#[derive(Default)]
struct Traced {
    epoch_ns: Vec<f64>,
    /// Total epoch time of the plain runs the twins were paired with.
    untraced_ns: f64,
    spans: Vec<Span>,
}

/// Span epoch ids are `episode × EPISODE_ID_STRIDE + runtime epoch`.
const EPISODE_ID_STRIDE: u64 = 1_000_000;

impl NodePhase {
    /// One timed set-up; the last one's inputs feed the episodes.
    pub fn set_up(&mut self, mix: MixKind, seed: u64) -> Result<(), String> {
        let (inputs, times) = set_up(mix, seed)?;
        self.inputs = Some(inputs);
        self.setups.push(times);
        Ok(())
    }

    /// One episode, and under `traced` its twin with the timing
    /// decorators, which must reproduce the episode's outputs exactly.
    pub fn episode(&mut self, seed: u64, epochs: usize, traced: bool) -> Result<(), String> {
        let inputs = self.inputs.as_ref().ok_or("node episode before set-up")?;
        let ep = if traced {
            let (ep, twin) = episode_pair(inputs, seed, epochs)?;
            if twin.trace != ep.trace
                || twin.unfairness.to_bits() != ep.unfairness.to_bits()
                || twin.gips.to_bits() != ep.gips.to_bits()
            {
                return Err(format!(
                    "episode {}: the timing decorators changed the run's output",
                    self.episodes
                ));
            }
            let t = self.traced.get_or_insert_with(Traced::default);
            t.untraced_ns += ep.epoch_ns.iter().sum::<f64>();
            t.epoch_ns.extend(twin.epoch_ns);
            // Epoch ids restart with every runtime; the episode number
            // keeps them unique in the span file.
            spans::append(&mut t.spans, twin.spans, self.episodes * EPISODE_ID_STRIDE);
            ep
        } else {
            episode(inputs, seed, epochs)?
        };
        eprintln!(
            "  node episode {}: unfairness {:.4}, {:.3} GIPS, {} exploring epochs, epoch p50 {:.3} ms",
            self.episodes,
            ep.unfairness,
            ep.gips,
            ep.exploring_epochs,
            median_of(&ep.epoch_ns) / 1e6
        );
        self.episodes += 1;
        self.loop_s += ep.loop_s;
        self.slice_p50_ns
            .extend(slice_medians(&ep.epoch_ns, SLICE_EPOCHS));
        self.epoch_ns.extend(ep.epoch_ns);
        self.unfairness.push(ep.unfairness);
        self.gips.push(ep.gips);
        self.transfers += ep.transfers;
        self.theta_retries += ep.theta_retries;
        self.matching_rounds += ep.matching_rounds;
        Ok(())
    }

    /// Reports the phase's metrics and returns its set-up seconds (the
    /// median set-up). Traced spans are written to `span_file`.
    pub fn report(self, r: &mut Report, span_file: &Path) -> Result<f64, String> {
        let pick =
            |f: fn(&SetupTimes) -> f64| median_of(&self.setups.iter().map(f).collect::<Vec<_>>());
        r.layer
            .put("workloads.solo_refs_s", pick(|t| t.solo_refs_s), "s");
        r.layer
            .put("workloads.stream_table_s", pick(|t| t.stream_table_s), "s");
        r.layer.put("core.profile_s", pick(|t| t.profile_s), "s");
        let epochs = Samples::new(self.epoch_ns);
        eprintln!("  node epochs: {}", epochs.describe("ns"));
        r.attempted += epochs.len() as u64;
        r.e2e
            .put("epochs_per_s", epochs.len() as f64 / self.loop_s, "1/s");
        let p50_ns =
            mean_of_slice_medians(&self.slice_p50_ns).map_err(|e| format!("epoch: {e}"))?;
        r.e2e.put("epoch_ms_p50", p50_ns / 1e6, "ms");
        r.e2e.put(
            "epoch_ms_p99",
            epochs.need_percentile(99.0, "epoch")? / 1e6,
            "ms",
        );
        r.e2e
            .put("unfairness", median_of(&self.unfairness), "ratio");
        r.e2e.put("throughput_gips", median_of(&self.gips), "GIPS");
        r.layer
            .put("core.transfers", self.transfers as f64, "count");
        r.layer
            .put("core.theta_retries", self.theta_retries as f64, "count");
        r.layer
            .put("core.matching_rounds", self.matching_rounds as f64, "count");
        if let Some(t) = self.traced {
            report_spans(&t, r)?;
            spans::write_jsonl(span_file, &t.spans)
                .map_err(|e| format!("{}: {e}", span_file.display()))?;
            eprintln!(
                "  {} spans written to {}",
                t.spans.len(),
                span_file.display()
            );
        }
        Ok(pick(SetupTimes::total))
    }
}

/// Per-layer metrics from the traced episodes' span self times.
fn report_spans(t: &Traced, r: &mut Report) -> Result<(), String> {
    let own = spans::self_times_ns(&t.spans);
    let mut by_layer: [Vec<f64>; 5] = Default::default();
    let mut epoch_span_ns = 0.0;
    for (s, &self_ns) in t.spans.iter().zip(&own) {
        by_layer[s.layer as usize].push(self_ns as f64);
        if s.layer == Layer::Epoch {
            epoch_span_ns += s.duration_ns() as f64;
        }
    }
    let [control, advance, reads, writes, record] = by_layer.map(Samples::new);
    let sum = |s: &Samples| s.mean() * s.len() as f64;
    let n = control.len() as f64;
    let layer = &mut r.layer;
    layer.put(
        "sim.advance_ms_p50",
        advance.need_median("advance")? / 1e6,
        "ms",
    );
    layer.put(
        "sim.advance_ms_p99",
        advance.need_percentile(99.0, "advance")? / 1e6,
        "ms",
    );
    layer.put("sim.advance_share", sum(&advance) / epoch_span_ns, "ratio");
    layer.put("rdt.read_us_per_epoch", sum(&reads) / n / 1e3, "us");
    layer.put("rdt.writes", writes.len() as f64, "count");
    layer.put(
        "rdt.write_us_p50",
        writes.need_median("rdt write")? / 1e3,
        "us",
    );
    layer.put(
        "core.control_us_p50",
        control.need_median("control")? / 1e3,
        "us",
    );
    layer.put(
        "core.control_us_p99",
        control.need_percentile(99.0, "control")? / 1e3,
        "us",
    );
    layer.put(
        "telemetry.record_us_p50",
        record.need_median("record")? / 1e3,
        "us",
    );
    let traced = Samples::new(t.epoch_ns.clone());
    let untraced_mean_ns = t.untraced_ns / t.epoch_ns.len() as f64;
    let overhead_us = (traced.mean() - untraced_mean_ns) / 1e3;
    layer.put("trace.overhead_us_per_epoch", overhead_us, "us");
    let covered = sum(&control) + sum(&advance) + sum(&reads) + sum(&writes) + sum(&record);
    eprintln!(
        "  traced epochs: {}; layer self times cover {:.6} of the epoch spans; overhead {overhead_us:.2} us/epoch",
        traced.describe("ns"),
        covered / epoch_span_ns
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_decorators_change_nothing() {
        let (inputs, _) = set_up(MixKind::HighBoth, 7).expect("set-up");
        let (plain, traced) = episode_pair(&inputs, 7, 60).expect("episode pair");
        assert_eq!(plain.trace, traced.trace, "trace bytes");
        assert_eq!(plain.unfairness.to_bits(), traced.unfairness.to_bits());
        assert_eq!(plain.gips.to_bits(), traced.gips.to_bits());
        assert!(plain.spans.is_empty());
        let epochs = traced
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Epoch)
            .count();
        assert_eq!(epochs, 60, "one epoch span per control epoch");
    }

    #[test]
    fn a_trace_with_a_gap_fails_the_check() {
        let (inputs, _) = set_up(MixKind::HighBoth, 7).expect("set-up");
        let ring = SharedRing::new(512);
        let mut rt = build(&inputs, 7, |b| b).expect("build").0;
        rt.set_recorder(Box::new(ring.clone()));
        rt.profile().expect("profile");
        rt.run_periods(8).expect("epochs");
        let mut events = ring.all();
        check_trace(&events, 8).expect("an intact trace passes");
        events.remove(3);
        assert!(check_trace(&events, 7).is_err());
    }
}
