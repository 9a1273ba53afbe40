//! A served bound query replicated in-process with a timer around every
//! layer: the same public calls, options and order as
//! `QueryService::bound` on a cache miss, so its answer must be
//! bit-identical to the served one.

use std::time::Instant;

use mfu_core::artifact::{ArtifactCost, BoundArtifact, BoundMethod, ParamRange};
use mfu_core::hull::DifferentialHull;
use mfu_core::pontryagin::PontryaginSolver;
use mfu_lang::scenarios::Scenario;
use mfu_lang::CompiledModel;
use mfu_obs::{Counter, Metrics, Obs, Tracer};
use mfu_serve::protocol::{bound_response, error_response, Request};
use mfu_serve::service::ServiceOptions;

use crate::layers::{Tally, TimedDrift};
use crate::served::{Answer, Outcome};

/// Times `f`, returning its value and nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as f64)
}

/// Runs one cold bound query layer by layer, adding to `tally`.
pub fn traced_bound(
    scenario: &Scenario,
    method: BoundMethod,
    line: &str,
    options: &ServiceOptions,
    tally: &mut Tally,
) -> Outcome {
    let started = Instant::now();
    let (parsed, parse_ns) = timed(|| Request::parse(line.trim_end()));
    if !matches!(parsed, Ok(Request::Bound(_))) {
        return Err(format!(
            "request did not parse as a bound query: {parsed:?}"
        ));
    }
    let source = scenario.source();
    let (hashed, hash_ns) = timed(|| mfu_lang::source_hash(source));
    let (compiled, compile_ns) = timed(|| mfu_lang::compile(source));
    tally.add("serve.parse_ns", parse_ns);
    tally.add("serve.parses", 1.0);
    tally.add("lang.hash_ns", hash_ns);
    tally.add("lang.hashes", 1.0);
    tally.add("lang.compile_ns", compile_ns);
    tally.add("lang.compiles", 1.0);
    let (hash, _) = hashed.map_err(|e| e.to_string())?;
    let model = compiled.map_err(|e| e.to_string())?;

    let metrics = Metrics::enabled();
    let obs = Obs {
        metrics: metrics.clone(),
        tracer: Tracer::disabled(),
    };
    let name = scenario.name();
    let horizon = scenario.horizon();
    let (computed, engine_ns) = timed(|| match method {
        BoundMethod::Pontryagin => pontryagin(&model, name, horizon, options, obs, tally),
        BoundMethod::Hull => hull(&model, horizon, options, obs, tally),
    });
    let snapshot = metrics.snapshot().expect("metrics are enabled");
    let count = |counter| snapshot.counter(counter);
    match method {
        BoundMethod::Pontryagin => {
            tally.add("pmp.engine_ns", engine_ns);
            tally.add("pmp.sweeps", count(Counter::CorePontryaginSweeps) as f64);
            tally.add("pmp.rk4_steps", count(Counter::CoreRk4Steps) as f64);
            tally.add(
                "pmp.jacobian_evals",
                count(Counter::CoreJacobianEvals) as f64,
            );
            tally.add(
                "pmp.restarts",
                count(Counter::CorePontryaginRestarts) as f64,
            );
            tally.add(
                "pmp.escalations",
                count(Counter::CorePontryaginEscalations) as f64,
            );
        }
        BoundMethod::Hull => {
            tally.add("hull.engine_ns", engine_ns);
            tally.add(
                "hull.vertex_evals",
                count(Counter::CoreHullVertexEvals) as f64,
            );
        }
    }
    let cost = ArtifactCost {
        wall_ns: engine_ns as u64,
        rk4_steps: count(Counter::CoreRk4Steps),
        jacobian_evals: count(Counter::CoreJacobianEvals),
        sweeps: count(Counter::CorePontryaginSweeps),
        hull_vertex_evals: count(Counter::CoreHullVertexEvals),
    };
    let artifact = computed.map(|(lower, upper, truncated)| BoundArtifact {
        model: name.to_string(),
        model_hash: hash.to_string(),
        method,
        horizon,
        param_box: model
            .params()
            .names()
            .iter()
            .zip(model.params().intervals())
            .map(|(name, iv)| ParamRange {
                name: name.clone(),
                lo: iv.lo(),
                hi: iv.hi(),
            })
            .collect(),
        species: model.species().to_vec(),
        lower,
        upper,
        truncated,
        cost,
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let (response, serialise_ns) = timed(|| match &artifact {
        Ok(artifact) => bound_response(artifact, false, elapsed_ns),
        Err(message) => error_response(message),
    });
    tally.add("serve.serialise_ns", serialise_ns);
    tally.add("serve.serialised", 1.0);
    tally.add("serve.bytes", response.len() as f64);
    tally.add(
        "trace.attributed_ns",
        parse_ns + hash_ns + compile_ns + engine_ns + serialise_ns,
    );
    tally.add("trace.e2e_ns", started.elapsed().as_nanos() as f64);
    artifact.map(|a| Answer::of(&a))
}

type Bounds = Result<(Vec<f64>, Vec<f64>, bool), String>;

fn pontryagin(
    model: &CompiledModel,
    name: &str,
    horizon: f64,
    options: &ServiceOptions,
    obs: Obs,
    tally: &mut Tally,
) -> Bounds {
    let solver = PontryaginSolver::new(options.pontryagin).with_obs(obs);
    let reduced_x0 = model.reduced_initial_state();
    let full_x0 = model.initial_state();
    let reduced_dim = reduced_x0.dim();
    let reduced = TimedDrift::new(model.reduced_drift());
    let full = TimedDrift::new(model.drift());
    let mut lower = Vec::with_capacity(model.dim());
    let mut upper = Vec::with_capacity(model.dim());
    let mut result = Ok(());
    for coordinate in 0..model.dim() {
        let (drift, x0) = if coordinate < reduced_dim {
            (&reduced, &reduced_x0)
        } else {
            (&full, &full_x0)
        };
        let extremes = solver
            .minimize_coordinate(drift, x0, horizon, coordinate)
            .and_then(|lo| {
                let hi = solver.maximize_coordinate(drift, x0, horizon, coordinate)?;
                Ok((lo, hi))
            });
        match extremes {
            Ok((lo, hi)) => {
                tally.add("pmp.solves", 2.0);
                tally.add(
                    "pmp.converged",
                    f64::from(u8::from(lo.converged()) + u8::from(hi.converged())),
                );
                lower.push(lo.objective_value());
                upper.push(hi.objective_value());
            }
            Err(e) => {
                result = Err(format!("Pontryagin bound failed on `{name}`: {e}"));
                break;
            }
        }
    }
    let drift_ns = reduced.drain_into(tally) + full.drain_into(tally);
    tally.add("pmp.drift_ns", drift_ns);
    result.map(|()| (lower, upper, false))
}

fn hull(
    model: &CompiledModel,
    horizon: f64,
    options: &ServiceOptions,
    obs: Obs,
    tally: &mut Tally,
) -> Bounds {
    let drift = TimedDrift::new(model.drift());
    let bounds = DifferentialHull::new(&drift, options.hull)
        .with_obs(obs)
        .bounds(&model.initial_state(), horizon);
    let drift_ns = drift.drain_into(tally);
    tally.add("hull.drift_ns", drift_ns);
    match bounds {
        Ok(bounds) => {
            let (lo, hi) = bounds.final_bounds();
            Ok((
                lo.as_slice().to_vec(),
                hi.as_slice().to_vec(),
                bounds.truncated_at().is_some(),
            ))
        }
        Err(e) => {
            let message = e.to_string();
            if message.contains("diverged") {
                tally.add("hull.diverged", 1.0);
            }
            Err(message)
        }
    }
}
