//! `ensemble`: one op is one seeded τ-leap ensemble cell, run through
//! `mfu_sim::ensemble::run_ensemble` at every vertex of the scenario's
//! parameter box.

use std::time::Instant;

use mfu_lang::scenarios::{Scenario, ScenarioRegistry};
use mfu_obs::{Counter, Metrics, Obs, Tracer};
use mfu_sim::ensemble::{run_ensemble, EnsembleOptions};
use mfu_sim::gillespie::{SimulationAlgorithm, SimulationOptions, Simulator};
use mfu_sim::policy::ConstantPolicy;
use mfu_sim::tauleap::TauLeapOptions;

use crate::bound::timed;
use crate::cold::Traced;
use crate::layers::Tally;
use crate::manifest::Entry;
use crate::report::Measured;

/// Ensemble settings shared by every cell.
pub struct Config {
    pub replications: usize,
    pub epsilon: f64,
    pub default_scale: usize,
    pub grid_intervals: usize,
    pub record_stride: usize,
    pub base_seed: u64,
}

impl Config {
    pub fn from_manifest(entry: &Entry, seed: u64) -> Result<Config, String> {
        Ok(Config {
            replications: entry.count("replications")?,
            epsilon: entry.number("epsilon")?,
            default_scale: entry.count("default_scale")?,
            grid_intervals: entry.count("grid_intervals")?,
            record_stride: entry.count("record_stride")?,
            base_seed: seed,
        })
    }
}

/// A cell ready to run: the set-up's output.
pub struct Cell {
    name: String,
    simulator: Simulator,
    counts: Vec<i64>,
    thetas: Vec<Vec<f64>>,
    sim_options: SimulationOptions,
}

/// An ensemble answer: final-time mean and standard deviation of every
/// coordinate at every vertex, by bit pattern.
pub type Outcome = Result<Vec<u64>, String>;

/// Compiles every scenario and builds its simulator, adding the layer
/// times to `tally`. Traced, it also times each source's content hash.
pub fn set_up(
    scenarios: &[Scenario],
    config: &Config,
    trace: bool,
    tally: &mut Tally,
) -> Result<Vec<Cell>, String> {
    scenarios
        .iter()
        .map(|scenario| {
            let name = scenario.name();
            if trace {
                let (hashed, hash_ns) = timed(|| mfu_lang::source_hash(scenario.source()));
                hashed.map_err(|e| format!("{name}: {e}"))?;
                tally.add("lang.hash_ns", hash_ns);
                tally.add("lang.hashes", 1.0);
            }
            let (model, compile_ns) = timed(|| scenario.compile());
            let model = model.map_err(|e| format!("{name}: {e}"))?;
            let population = model
                .population_model()
                .map_err(|e| format!("{name}: {e}"))?;
            let scale = scenario.default_scale().unwrap_or(config.default_scale);
            let (simulator, new_ns) = timed(|| Simulator::new(population, scale));
            let simulator = simulator.map_err(|e| format!("{name}: {e}"))?;
            for (key, value) in [
                ("lang.compile_ns", compile_ns),
                ("lang.compiles", 1.0),
                ("sim.new_ns", new_ns),
                ("sim.news", 1.0),
            ] {
                tally.add(key, value);
            }
            Ok(Cell {
                name: name.to_string(),
                counts: model.initial_counts(scale),
                thetas: model.params().vertices(),
                sim_options: SimulationOptions::new(scenario.horizon())
                    .record_stride(config.record_stride)
                    .algorithm(SimulationAlgorithm::TauLeap(TauLeapOptions::new(
                        config.epsilon,
                    ))),
                simulator,
            })
        })
        .collect()
}

/// Runs one cell on `simulator`.
fn run_cell(cell: &Cell, simulator: &Simulator, config: &Config) -> Outcome {
    let options = EnsembleOptions {
        replications: config.replications,
        base_seed: config.base_seed,
        threads: 1,
        grid_intervals: config.grid_intervals,
        ..EnsembleOptions::default()
    };
    let mut bits = Vec::new();
    for theta in &cell.thetas {
        let summary = run_ensemble(
            simulator,
            &cell.counts,
            || ConstantPolicy::new(theta.clone()),
            &cell.sim_options,
            &options,
        )
        .map_err(|e| format!("{}: ensemble failed: {e}", cell.name))?;
        let last = summary.times().len() - 1;
        let (mean, sd) = (summary.mean_at(last), summary.std_dev_at(last));
        for (&mu, &sigma) in mean.as_slice().iter().zip(sd.as_slice()) {
            let (lo, hi) = (mu - 2.0 * sigma, mu + 2.0 * sigma);
            if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
                return Err(format!(
                    "{}: band [{lo}, {hi}] is not finite and ordered",
                    cell.name
                ));
            }
            bits.extend([mu.to_bits(), sigma.to_bits()]);
        }
    }
    Ok(bits)
}

/// The traced twin of a cell: the same ensemble on a simulator recording
/// its work counters.
fn traced_cell(cell: &Cell, config: &Config, tally: &mut Tally) -> Outcome {
    let started = Instant::now();
    let metrics = Metrics::enabled();
    let simulator = cell.simulator.clone().with_obs(Obs {
        metrics: metrics.clone(),
        tracer: Tracer::disabled(),
    });
    let (outcome, ns) = timed(|| run_cell(cell, &simulator, config));
    let snapshot = metrics.snapshot().expect("metrics are enabled");
    for (key, counter) in [
        ("sim.events", Counter::SimEventsFired),
        ("sim.tau_steps", Counter::SimTauLeapSteps),
        ("sim.fallback_steps", Counter::SimTauFallbackSteps),
        ("sim.propensity_evals", Counter::SimPropensityEvals),
        ("sim.poisson_draws", Counter::SimPoissonDraws),
        ("sim.tau_halvings", Counter::SimTauHalvings),
    ] {
        tally.add(key, snapshot.counter(counter) as f64);
    }
    tally.add("sim.ensemble_ns", ns);
    tally.add("trace.attributed_ns", ns);
    tally.add("trace.e2e_ns", started.elapsed().as_nanos() as f64);
    outcome
}

/// Runs the cells once, untraced, recording per-op and pass times into
/// `m` and returning the outcomes.
fn pass(cells: &[Cell], config: &Config, m: &mut Measured) -> Vec<Outcome> {
    let started = Instant::now();
    let mut op_ms = Vec::with_capacity(cells.len());
    let outcomes = cells
        .iter()
        .map(|cell| {
            let (outcome, ns) = timed(|| run_cell(cell, &cell.simulator, config));
            op_ms.push(ns * 1e-6);
            outcome
        })
        .collect();
    m.pass(&op_ms, started.elapsed().as_secs_f64());
    outcomes
}

/// Runs `scenarios` as a workload: a warm-up pass, then timed (or paired
/// traced) passes with every answer checked. Before each pass the cells
/// are set up `setups_per_pass` times, each a set-up sample; the last
/// set-up's cells serve the pass.
pub fn run(
    scenarios: &[Scenario],
    config: &Config,
    passes: usize,
    setups_per_pass: usize,
    trace: bool,
    m: &mut Measured,
    setup_tally: &mut Tally,
) -> Result<Option<Traced>, String> {
    let mut cells = set_up(scenarios, config, trace, setup_tally)?;
    let mut scratch = Measured::default();
    let reference = pass(&cells, config, &mut scratch);
    let mut traced = Traced::default();
    let rounds = if trace { passes.div_ceil(2) } else { passes };
    for _ in 0..rounds {
        for _ in 0..setups_per_pass {
            let started = Instant::now();
            cells = set_up(scenarios, config, false, &mut Tally::default())?;
            m.setup_s.push(started.elapsed().as_secs_f64());
        }
        let outcomes = pass(&cells, config, m);
        for (i, cell) in cells.iter().enumerate() {
            let check = outcomes[i].clone().map(|_| ());
            m.judge(&cell.name, check, None);
            if outcomes[i] != reference[i] {
                m.problem(format!(
                    "{}: summary differs from the warm-up pass",
                    cell.name
                ));
            }
        }
        if trace {
            let mut tally = Tally::default();
            let started = Instant::now();
            for (i, cell) in cells.iter().enumerate() {
                if traced_cell(cell, config, &mut tally) != outcomes[i] {
                    m.problem(format!(
                        "{}: traced summary differs from the untraced one",
                        cell.name
                    ));
                }
            }
            traced.traced_s += started.elapsed().as_secs_f64();
            traced.untraced_s += m.pass_s.last().copied().unwrap_or(0.0);
            traced.passes.push(tally);
        }
    }
    Ok(trace.then_some(traced))
}

pub fn workload(
    entry: &Entry,
    seed: u64,
    seconds: u64,
    trace: bool,
    m: &mut Measured,
) -> Result<(Option<Traced>, Tally), String> {
    let registry = ScenarioRegistry::with_builtins();
    let scenarios = entry
        .names("scenarios")?
        .iter()
        .map(|name| {
            registry
                .get(name)
                .cloned()
                .ok_or_else(|| format!("no registry scenario `{name}`"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let config = Config::from_manifest(entry, seed)?;
    let mut setup_tally = Tally::default();
    let traced = run(
        &scenarios,
        &config,
        entry.passes(seconds)?,
        entry.count("setups_per_pass")?,
        trace,
        m,
        &mut setup_tally,
    )?;
    m.print_best(scenarios.iter().map(Scenario::name));
    Ok((traced, setup_tally))
}
