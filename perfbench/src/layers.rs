//! Per-layer accounting for the traced run: a tally of times and work
//! counts taken around calls into each crate's public functions, and the
//! per-layer metrics derived from it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mfu_core::drift::ImpreciseDrift;
use mfu_ctmc::params::ParamSpace;
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::StateVec;

/// Sums keyed by layer quantity. Keys ending in `_ns` (times) and
/// `serve.bytes` vary from run to run; every other key is a work count
/// that must repeat exactly for a fixed op list and seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn is_exact(key: &str) -> bool {
        !key.ends_with("_ns") && key != "serve.bytes"
    }

    /// The exact (work-count) entries.
    pub fn exact(&self) -> BTreeMap<&'static str, f64> {
        self.0
            .iter()
            .filter(|(k, _)| Self::is_exact(k))
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Work counts of `passes` if they all agree, else the first key that
    /// differs.
    pub fn agreeing(passes: &[Tally]) -> Result<(), String> {
        let first = passes.first().map(Tally::exact).unwrap_or_default();
        for pass in passes.iter().skip(1) {
            let counts = pass.exact();
            if counts != first {
                let key = first
                    .keys()
                    .chain(counts.keys())
                    .find(|k| first.get(*k) != counts.get(*k))
                    .copied()
                    .unwrap_or("?");
                return Err(format!(
                    "per-layer count `{key}` differs between traced passes: {:?} vs {:?}",
                    first.get(key),
                    counts.get(key)
                ));
            }
        }
        Ok(())
    }

    /// The mean of every key over `passes`.
    pub fn mean(passes: &[Tally]) -> Tally {
        let mut out = Tally::default();
        for pass in passes {
            for (k, v) in &pass.0 {
                out.add(k, v / passes.len() as f64);
            }
        }
        out
    }

    /// Adds the entries of `other` whose key this tally lacks.
    pub fn fill_from(&mut self, other: &Tally) {
        for (k, v) in &other.0 {
            self.0.entry(k).or_insert(*v);
        }
    }
}

/// An [`ImpreciseDrift`] that delegates every method the service's box
/// wrapper delegates, counting and timing each evaluation.
pub struct TimedDrift<D> {
    inner: D,
    calls: AtomicU64,
    lanes: AtomicU64,
    ns: AtomicU64,
}

impl<D: ImpreciseDrift> TimedDrift<D> {
    pub fn new(inner: D) -> Self {
        TimedDrift {
            inner,
            calls: AtomicU64::new(0),
            lanes: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    fn record(&self, lanes: usize, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.lanes.fetch_add(lanes as u64, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds this adapter's calls, lanes and time to the `vm.*` entries and
    /// returns the drift nanoseconds (summed over threads).
    pub fn drain_into(&self, tally: &mut Tally) -> f64 {
        let ns = self.ns.swap(0, Ordering::Relaxed) as f64;
        tally.add("vm.calls", self.calls.swap(0, Ordering::Relaxed) as f64);
        tally.add("vm.lanes", self.lanes.swap(0, Ordering::Relaxed) as f64);
        tally.add("vm.drift_ns", ns);
        ns
    }
}

impl<D: ImpreciseDrift> ImpreciseDrift for TimedDrift<D> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn params(&self) -> &ParamSpace {
        self.inner.params()
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        let started = Instant::now();
        self.inner.drift_into(x, theta, out);
        self.record(1, started);
    }

    fn drift_batch_into(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut SoaBatch) {
        let started = Instant::now();
        self.inner.drift_batch_into(x, theta, out);
        self.record(x.width(), started);
    }

    fn theta_refinement(&self) -> usize {
        self.inner.theta_refinement()
    }
}

/// One per-layer metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Per-layer metrics from a traced run's tally. `t` holds per-pass means
/// of the traced passes, completed by set-up and probe entries.
pub fn metrics(t: &Tally, overhead_ratio: f64) -> Vec<Metric> {
    let per = |num: &str, den: &str, scale: f64| {
        let d = t.get(den);
        if d > 0.0 {
            t.get(num) / d * scale
        } else {
            0.0
        }
    };
    let pmp_self = t.get("pmp.engine_ns") - t.get("pmp.drift_ns");
    let hull_self = t.get("hull.engine_ns") - t.get("hull.drift_ns");
    let steps = t.get("sim.tau_steps") + t.get("sim.fallback_steps");
    let share = |num: f64| if steps > 0.0 { num / steps } else { 0.0 };
    vec![
        (
            "serve.parse_us",
            per("serve.parse_ns", "serve.parses", 1e-3),
            "us",
        ),
        (
            "serve.hit_us",
            per("serve.hit_ns", "serve.hits", 1e-3),
            "us",
        ),
        (
            "serve.serialise_us",
            per("serve.serialise_ns", "serve.serialised", 1e-3),
            "us",
        ),
        (
            "serve.net_us",
            per("serve.net_ns", "serve.round_trips", 1e-3),
            "us",
        ),
        (
            "serve.response_bytes",
            per("serve.bytes", "serve.serialised", 1.0),
            "bytes",
        ),
        (
            "serve.artifact_hit_ratio",
            per("serve.artifact_hits", "serve.lookups", 1.0),
            "ratio",
        ),
        (
            "serve.model_hit_ratio",
            per("serve.model_hits", "serve.lookups", 1.0),
            "ratio",
        ),
        ("serve.evictions", t.get("serve.evictions"), "count"),
        (
            "lang.source_hash_us",
            per("lang.hash_ns", "lang.hashes", 1e-3),
            "us",
        ),
        (
            "lang.compile_us",
            per("lang.compile_ns", "lang.compiles", 1e-3),
            "us",
        ),
        ("vm.drift_calls", t.get("vm.calls"), "count"),
        ("vm.drift_lanes", t.get("vm.lanes"), "count"),
        ("vm.drift_ms", t.get("vm.drift_ns") * 1e-6, "ms"),
        ("pmp.sweeps", t.get("pmp.sweeps"), "count"),
        ("pmp.rk4_steps", t.get("pmp.rk4_steps"), "count"),
        ("pmp.jacobian_evals", t.get("pmp.jacobian_evals"), "count"),
        ("pmp.restarts", t.get("pmp.restarts"), "count"),
        ("pmp.escalations", t.get("pmp.escalations"), "count"),
        (
            "pmp.converged_share",
            per("pmp.converged", "pmp.solves", 1.0),
            "ratio",
        ),
        ("pmp.self_ms", pmp_self * 1e-6, "ms"),
        (
            "pmp.ms_per_sweep",
            per("pmp.engine_ns", "pmp.sweeps", 1e-6),
            "ms",
        ),
        ("hull.vertex_evals", t.get("hull.vertex_evals"), "count"),
        ("hull.self_ms", hull_self * 1e-6, "ms"),
        (
            "hull.ns_per_vertex_eval",
            per("hull.engine_ns", "hull.vertex_evals", 1.0),
            "ns",
        ),
        ("hull.diverged", t.get("hull.diverged"), "count"),
        ("sim.events", t.get("sim.events"), "count"),
        ("sim.tau_steps", t.get("sim.tau_steps"), "count"),
        ("sim.fallback_steps", t.get("sim.fallback_steps"), "count"),
        (
            "sim.fallback_share",
            share(t.get("sim.fallback_steps")),
            "ratio",
        ),
        (
            "sim.propensity_evals_per_step",
            share(t.get("sim.propensity_evals")),
            "ratio",
        ),
        ("sim.poisson_draws", t.get("sim.poisson_draws"), "count"),
        ("sim.tau_halvings", t.get("sim.tau_halvings"), "count"),
        ("sim.ensemble_ms", t.get("sim.ensemble_ns") * 1e-6, "ms"),
        (
            "sim.ns_per_event",
            per("sim.ensemble_ns", "sim.events", 1.0),
            "ns",
        ),
        (
            "sim.simulator_new_us",
            per("sim.new_ns", "sim.news", 1e-3),
            "us",
        ),
        ("trace.overhead_ratio", overhead_ratio, "x"),
        (
            "trace.unattributed_ms",
            (t.get("trace.e2e_ns") - t.get("trace.attributed_ns")) * 1e-6,
            "ms",
        ),
    ]
}
