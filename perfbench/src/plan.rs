//! The planner-scale phase: thousands of synthetic applications whose
//! classifier verdicts churn every epoch, with `Explorer::plan_into`
//! driven in a closed loop and timed call by call. No machine is
//! simulated.
//!
//! The loop reproduces `copart_core::scale::run_planner_scale` through
//! the planner's public API — same verdict draws, same decision
//! application, same FNV-1a decision digest — so the digest of the timed
//! run can be checked against the library harness run on the same
//! configuration.

use std::time::Instant;

use copart_core::fsm::AppState;
use copart_core::next_state::AppClassification;
use copart_core::planner::{Explorer, PlanDecision, PlanScratch};
use copart_core::runtime::RuntimeConfig;
use copart_core::scale::{run_planner_scale, ScaleConfig, ScalePopulation};
use copart_core::{metrics, CoPartParams, ResilienceConfig, SystemState, WaysBudget};
use copart_rdt::MbaLevel;
use copart_rng::XorShift64Star;
use copart_workloads::fleet::MixSampler;
use copart_workloads::stream::StreamReference;
use copart_workloads::Category;

use crate::report::Report;
use crate::stats::{mean_of_slice_medians, slice_medians, Samples};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn uniform_state(rng: &mut XorShift64Star) -> AppState {
    match rng.gen_range(0..3u8) {
        0 => AppState::Supply,
        1 => AppState::Maintain,
        _ => AppState::Demand,
    }
}

/// Demand-biased on a sensitive dimension, Supply-biased otherwise.
fn biased_state(rng: &mut XorShift64Star, sensitive: bool) -> AppState {
    match (rng.gen_range(0..10u8), sensitive) {
        (0..=5, true) | (9, false) => AppState::Demand,
        (6..=8, _) => AppState::Maintain,
        _ => AppState::Supply,
    }
}

fn draw(rng: &mut XorShift64Star, category: Option<Category>) -> AppClassification {
    match category {
        None => AppClassification {
            llc: uniform_state(rng),
            mba: uniform_state(rng),
            slowdown: 1.0 + rng.gen_range(0.0..3.0),
        },
        Some(c) => {
            let llc = biased_state(rng, c.llc_sensitive());
            let mba = biased_state(rng, c.bw_sensitive());
            let span = if c.llc_sensitive() || c.bw_sensitive() {
                3.0
            } else {
                0.5
            };
            AppClassification {
                llc,
                mba,
                slowdown: 1.0 + rng.gen_range(0.0..span),
            }
        }
    }
}

/// What one timed planner run produced.
pub struct PlanRun {
    cfg: ScaleConfig,
    /// FNV-1a digest of every decision and resulting allocation.
    digest: u64,
    /// Host nanoseconds per `plan_into` call.
    plan_ns: Vec<f64>,
    /// Host seconds to draw the population and build the planner.
    setup_s: f64,
    transfers: u64,
    matching_rounds: u64,
}

/// Drives `cfg.epochs` planner epochs, timing every `plan_into` call.
pub fn run(cfg: &ScaleConfig) -> PlanRun {
    let t_setup = Instant::now();
    let budget = WaysBudget {
        first_way: 0,
        total_ways: cfg.n_apps as u32 * cfg.ways_per_app,
        mba_cap: MbaLevel::MAX,
    };
    let rt_cfg = RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget,
        stream: StreamReference::from_table([1.0; 10]),
        resilience: ResilienceConfig::default(),
        planner: Default::default(),
    };
    let mut rng = XorShift64Star::seed_from_u64(cfg.seed ^ 0x5ca1_ab1e);
    let categories: Vec<Option<Category>> = match cfg.population {
        ScalePopulation::Uniform => vec![None; cfg.n_apps],
        ScalePopulation::FleetMix => {
            let sampler = MixSampler::new(cfg.seed);
            (0..cfg.n_apps)
                .map(|_| Some(sampler.sample(rng.next_f64()).category()))
                .collect()
        }
    };
    let mut classes: Vec<AppClassification> =
        categories.iter().map(|&c| draw(&mut rng, c)).collect();
    let mut slowdowns: Vec<f64> = classes.iter().map(|c| c.slowdown).collect();
    let mut state = SystemState::equal_split(cfg.n_apps, &budget, MbaLevel::MAX);
    let mut explorer = Explorer::new(cfg.seed);
    let mut scratch = PlanScratch::default();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let churned = ((cfg.churn * cfg.n_apps as f64).ceil() as usize).min(cfg.n_apps);
    let mut digest = FNV_OFFSET;
    fnv(&mut digest, cfg.n_apps as u64);
    fnv(&mut digest, u64::from(cfg.epochs));
    let mut plan_ns = Vec::with_capacity(cfg.epochs as usize);
    let (mut transfers, mut matching_rounds) = (0u64, 0u64);
    for epoch in 0..cfg.epochs {
        for _ in 0..churned {
            let i = rng.gen_range(0..cfg.n_apps);
            classes[i] = draw(&mut rng, categories[i]);
            slowdowns[i] = classes[i].slowdown;
        }
        let unfairness = metrics::unfairness(&slowdowns);
        explorer.record_best(unfairness, &state, epoch > 0);

        let t0 = Instant::now();
        let stats = explorer.plan_into(&rt_cfg, &state, &classes, unfairness, &mut scratch);
        plan_ns.push(t0.elapsed().as_nanos() as f64);

        matching_rounds += u64::from(stats.matching_rounds);
        let tag: u64 = match &stats.decision {
            PlanDecision::Transfer => {
                state.allocs.clone_from(&scratch.proposal.allocs);
                explorer.transfer_applied();
                transfers += 1;
                1
            }
            PlanDecision::ThetaRetry => {
                state.allocs.clone_from(&scratch.proposal.allocs);
                explorer.retry_applied();
                2
            }
            PlanDecision::Converge(settle) => {
                if let Some((_, best)) = settle {
                    state.allocs.clone_from(&best.allocs);
                }
                explorer.settle(unfairness);
                explorer.restart();
                3
            }
        };
        fnv(&mut digest, u64::from(epoch));
        fnv(&mut digest, tag);
        fnv(&mut digest, u64::from(stats.matching_rounds));
        for a in &state.allocs {
            fnv(&mut digest, u64::from(a.ways));
            fnv(&mut digest, u64::from(a.mba.percent()));
        }
    }
    PlanRun {
        cfg: cfg.clone(),
        digest,
        plan_ns,
        setup_s,
        transfers,
        matching_rounds,
    }
}

/// The output check: a timed run's digest must equal the library
/// harness's digest for the same configuration.
pub fn check_digest(cfg: &ScaleConfig, digest: u64) -> Result<(), String> {
    let reference = run_planner_scale(cfg).digest;
    if digest == reference {
        Ok(())
    } else {
        Err(format!(
            "planner digest {digest:#018x} differs from run_planner_scale's {reference:#018x}"
        ))
    }
}

/// Consecutive `plan_into` calls whose median is one slice of
/// `plan_us_p50`.
const SLICE_PLANS: usize = 100;

/// The phase's runs, one population each.
#[derive(Default)]
pub struct PlanPhase {
    runs: Vec<PlanRun>,
}

impl PlanPhase {
    pub fn run(&mut self, cfg: &ScaleConfig) {
        self.runs.push(run(cfg));
    }

    /// Checks every run's digest against the library harness.
    pub fn check(&self) -> Result<(), String> {
        self.runs
            .iter()
            .try_for_each(|run| check_digest(&run.cfg, run.digest))
    }

    /// Reports the phase's metrics and returns its set-up seconds (the
    /// median population build).
    pub fn report(&self, r: &mut Report) -> Result<f64, String> {
        let plans = Samples::new(
            self.runs
                .iter()
                .flat_map(|run| run.plan_ns.iter().copied())
                .collect(),
        );
        eprintln!("  plan_into: {}", plans.describe("ns"));
        let n = plans.len() as f64;
        let transfers: u64 = self.runs.iter().map(|run| run.transfers).sum();
        let rounds: u64 = self.runs.iter().map(|run| run.matching_rounds).sum();
        r.attempted += plans.len() as u64;
        let slices: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|run| slice_medians(&run.plan_ns, SLICE_PLANS))
            .collect();
        let p50_ns = mean_of_slice_medians(&slices).map_err(|e| format!("plan: {e}"))?;
        r.e2e.put("plan_us_p50", p50_ns / 1e3, "us");
        r.e2e.put(
            "plan_us_p99",
            plans.need_percentile(99.0, "plan")? / 1e3,
            "us",
        );
        r.layer
            .put("matching.rounds_per_plan", rounds as f64 / n, "ratio");
        r.layer
            .put("core.transfer_ratio", transfers as f64 / n, "ratio");
        let setups: Vec<f64> = self.runs.iter().map(|run| run.setup_s).collect();
        Ok(crate::stats::median_of(&setups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(population: ScalePopulation) -> ScaleConfig {
        let mut cfg = ScaleConfig::new(96, 40, 0xBE7C);
        cfg.population = population;
        cfg
    }

    #[test]
    fn digest_matches_the_library_harness() {
        for population in [ScalePopulation::Uniform, ScalePopulation::FleetMix] {
            let cfg = small(population);
            let timed = run(&cfg);
            assert_eq!(timed.plan_ns.len(), 40);
            check_digest(&cfg, timed.digest).expect("same decisions as the harness");
        }
    }

    #[test]
    fn a_planted_wrong_digest_fails_the_check() {
        let cfg = small(ScalePopulation::FleetMix);
        let mut phase = PlanPhase::default();
        phase.run(&cfg);
        phase.check().expect("an honest run passes");
        phase.runs[0].digest ^= 1;
        assert!(phase.check().is_err());
    }
}
