//! Batched SoA evaluation must be invisible: no batched call site may
//! change a single bit of any analysis result. These tests sweep the
//! scenario registry and compare, bit for bit,
//!
//! * differential-hull bounds of the shared-grid kernel against the scalar
//!   per-(coordinate, side) scan it replaced (`scalar_oracle`),
//! * Pontryagin coordinate extremes (`PontryaginOptions::batch_drift`),
//! * seeded τ-leap ensemble summaries
//!   (`EnsembleOptions::batch_propensities`, lockstep replication
//!   batching),
//!
//! the latter two with batching on versus off. Together with the property
//! suite in `crates/lang/tests/vm_equivalence.rs` (random expressions ×
//! widths × lane-varying inputs) this is the end-to-end half of the
//! batched-VM equivalence harness: the VM proves each instruction pass is
//! lane-exact, these tests prove no call site reorders the arithmetic
//! around it.

#[path = "../crates/core/src/hull/scalar_oracle.rs"]
mod scalar_oracle;

use mean_field_uncertain::core::hull::{DifferentialHull, HullOptions};
use mean_field_uncertain::core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mean_field_uncertain::lang::scenarios::ScenarioRegistry;
use mean_field_uncertain::num::StateVec;
use mean_field_uncertain::obs::{Counter, Obs};
use mean_field_uncertain::sim::ensemble::{run_ensemble, EnsembleOptions, EnsembleSummary};
use mean_field_uncertain::sim::gillespie::{SimulationOptions, Simulator};
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::tauleap::TauLeapOptions;

fn assert_states_bit_identical(a: &[StateVec], b: &[StateVec], what: &str, name: &str) {
    assert_eq!(a.len(), b.len(), "{name}: {what} length");
    for (k, (sa, sb)) in a.iter().zip(b).enumerate() {
        assert_eq!(sa.dim(), sb.dim(), "{name}: {what} dim at node {k}");
        for i in 0..sa.dim() {
            assert_eq!(
                sa[i].to_bits(),
                sb[i].to_bits(),
                "{name}: {what} differs at node {k}, coordinate {i}: {} vs {}",
                sa[i],
                sb[i]
            );
        }
    }
}

/// The hull's rectangle-point enumeration is exponential in the dimension
/// (the scalar oracle's even more so), so the registry sweep keeps to the
/// models the oracle can integrate in test time.
const MAX_HULL_DIM: usize = 6;

#[test]
fn hull_bounds_are_bit_identical_to_the_scalar_oracle() {
    let registry = ScenarioRegistry::with_builtins();
    let mut checked = 0usize;
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        if model.dim() > MAX_HULL_DIM {
            continue;
        }
        let drift = model.drift();
        let horizon = scenario.horizon().min(1.0);
        let options = HullOptions {
            step: 1e-2,
            time_intervals: 10,
            ..Default::default()
        };
        let obs = Obs::with_metrics();
        let shared = DifferentialHull::new(&drift, options)
            .with_obs(obs.clone())
            .bounds(&model.initial_state(), horizon)
            .unwrap();
        let oracle =
            scalar_oracle::scalar_bounds(&drift, &options, &model.initial_state(), horizon)
                .unwrap();
        let name = model.name();
        assert_eq!(shared.times(), oracle.times.as_slice(), "{name}: time grid");
        assert_states_bit_identical(shared.lower(), &oracle.lower, "hull lower bound", name);
        assert_states_bit_identical(shared.upper(), &oracle.upper, "hull upper bound", name);
        let vertex_evals = obs
            .metrics
            .snapshot()
            .unwrap()
            .counter(Counter::CoreHullVertexEvals);
        assert_eq!(vertex_evals, oracle.vertex_evals, "{name}: vertex evals");
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} scenarios fit the hull sweep");
}

#[test]
fn pontryagin_extremes_are_bit_identical_with_batching_on_and_off() {
    let registry = ScenarioRegistry::with_builtins();
    let mut checked = 0usize;
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        if model.dim() > MAX_HULL_DIM {
            continue;
        }
        let drift = model.drift();
        let horizon = scenario.horizon().min(1.0);
        let extremes_with = |batch: bool| {
            let solver = PontryaginSolver::new(PontryaginOptions {
                grid_intervals: 40,
                batch_drift: batch,
                ..Default::default()
            });
            solver
                .coordinate_extremes(&drift, &model.initial_state(), horizon, 0)
                .unwrap()
        };
        let (lo_on, hi_on) = extremes_with(true);
        let (lo_off, hi_off) = extremes_with(false);
        assert_eq!(
            lo_on.to_bits(),
            lo_off.to_bits(),
            "{}: lower extreme {lo_on} vs {lo_off}",
            model.name()
        );
        assert_eq!(
            hi_on.to_bits(),
            hi_off.to_bits(),
            "{}: upper extreme {hi_on} vs {hi_off}",
            model.name()
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} scenarios fit the Pontryagin sweep"
    );
}

fn assert_summaries_bit_identical(a: &EnsembleSummary, b: &EnsembleSummary, name: &str) {
    assert_eq!(a.times(), b.times(), "{name}: summary grid");
    assert_eq!(a.replications(), b.replications(), "{name}: replications");
    for k in 0..a.times().len() {
        let (ma, mb) = (a.mean_at(k), b.mean_at(k));
        let (sa, sb) = (a.std_dev_at(k), b.std_dev_at(k));
        for i in 0..ma.dim() {
            assert_eq!(
                ma[i].to_bits(),
                mb[i].to_bits(),
                "{name}: mean at ({k}, {i})"
            );
            assert_eq!(
                sa[i].to_bits(),
                sb[i].to_bits(),
                "{name}: std dev at ({k}, {i})"
            );
        }
    }
    let finals_a: Vec<StateVec> = a.final_states().to_vec();
    let finals_b: Vec<StateVec> = b.final_states().to_vec();
    assert_states_bit_identical(&finals_a, &finals_b, "final states", name);
}

#[test]
fn tau_leap_ensemble_summaries_are_bit_identical_with_batching_on_and_off() {
    let registry = ScenarioRegistry::with_builtins();
    for scenario in registry.iter() {
        let model = scenario.compile().unwrap();
        let population = model.population_model().unwrap();
        let scale = 300;
        let horizon = scenario.horizon().min(1.0);
        let sim_options = SimulationOptions::new(horizon).tau_leap(TauLeapOptions::default());
        let summary_with = |batch: bool| {
            let simulator = Simulator::new(population.clone(), scale).unwrap();
            run_ensemble(
                &simulator,
                &model.initial_counts(scale),
                || ConstantPolicy::new(model.params().midpoint()),
                &sim_options,
                &EnsembleOptions {
                    replications: 4,
                    base_seed: 17,
                    // one worker pins the Welford merge order; the batching
                    // knob is then the only degree of freedom
                    threads: 1,
                    grid_intervals: 8,
                    batch_propensities: batch,
                },
            )
            .unwrap()
        };
        assert_summaries_bit_identical(&summary_with(true), &summary_with(false), model.name());
    }
}
