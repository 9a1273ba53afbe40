//! The differential-hull over-approximation (Section IV-B, Theorem 4).
//!
//! The hull replaces the `d`-dimensional differential inclusion by a
//! `2d`-dimensional ODE on a pair of vectors `(x̲, x̄)` such that every
//! solution of the inclusion stays coordinate-wise between them. Its
//! right-hand side pins coordinate `i` to the corresponding bound and
//! optimises the drift coordinate over the remaining rectangle
//! `[x̲, x̄]` *and* over `Θ`:
//!
//! ```text
//!  ẋ̲_i = min { f_i(x, ϑ) : x ∈ [x̲, x̄], x_i = x̲_i, ϑ ∈ Θ }
//!  ẋ̄_i = max { f_i(x, ϑ) : x ∈ [x̲, x̄], x_i = x̄_i, ϑ ∈ Θ }
//! ```
//!
//! The optimisation over the rectangle is performed by corner enumeration
//! (optionally refined with edge midpoints); the optimisation over `Θ`
//! scans [`ImpreciseDrift::theta_candidates`] as
//! [`ImpreciseDrift::coordinate_range`] does. The paper (Figures 4 and 5)
//! shows that this method is cheap and accurate for small parameter ranges
//! but becomes very loose — eventually trivial — as the range grows, which
//! is exactly the behaviour reproduced by the benchmarks.
//!
//! # The shared grid
//!
//! All `2d` (coordinate, side) problems enumerate points of one grid: each
//! coordinate takes the values `{x̲_j, x̄_j, (x̲_j + x̄_j)/2}` (the midpoint
//! only with [`HullOptions::refine_midpoints`], repeated values dropped), and
//! a pinned problem is the slice of that grid with `x_i` fixed. One RK4
//! stage therefore evaluates the drift once per grid point × Θ candidate —
//! `3^d · C` lanes in a single [`ImpreciseDrift::drift_batch_into`] call —
//! and then runs the `2d` min/max reductions over lane indices. Enumerating
//! each pinned slice separately costs `2d · 3^(d−1) · C` lanes: 1.5× as many
//! at `d = 2`, 2× at `d = 3`, 5.3× at `d = 8`. Each reduction visits its
//! points and candidates in the order of the per-slice scan and replays the
//! `coordinate_range` arithmetic, so the bounds are bit-identical to it; the
//! tests keep that scan as the oracle. The grid still grows as `3^d`: a
//! grid too large to allocate fails the integration with
//! [`CoreError::InvalidInput`] before anything is allocated for it.

use std::cell::{Cell, RefCell};

use mfu_guard::{BudgetTracker, RunBudget, DIVERGENCE_CAP};
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::ode::{OdeSystem, Rk4, Rk4Workspace};
use mfu_num::{NumError, StateVec};
use mfu_obs::{Counter, Field, Obs};

use crate::drift::ImpreciseDrift;
use crate::{CoreError, Result};

#[cfg(test)]
mod scalar_oracle;

/// Coordinate-wise lower/upper bounds on a time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct HullBounds {
    times: Vec<f64>,
    lower: Vec<StateVec>,
    upper: Vec<StateVec>,
    truncated_at: Option<f64>,
}

impl HullBounds {
    /// The time grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// When the wall-clock budget tripped mid-integration, the time up to
    /// which the bounds are valid; `None` for a completed integration.
    ///
    /// Truncated bounds still over-approximate the inclusion on the grid
    /// they cover — they just stop short of the requested horizon.
    pub fn truncated_at(&self) -> Option<f64> {
        self.truncated_at
    }

    /// Lower bounds aligned with [`HullBounds::times`].
    pub fn lower(&self) -> &[StateVec] {
        &self.lower
    }

    /// Upper bounds aligned with [`HullBounds::times`].
    pub fn upper(&self) -> &[StateVec] {
        &self.upper
    }

    /// Lower bound of coordinate `i` as a time series.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lower_series(&self, i: usize) -> Vec<f64> {
        self.lower.iter().map(|s| s[i]).collect()
    }

    /// Upper bound of coordinate `i` as a time series.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn upper_series(&self, i: usize) -> Vec<f64> {
        self.upper.iter().map(|s| s[i]).collect()
    }

    /// Bounds at the final time, as `(lower, upper)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are empty (cannot happen for constructed values).
    pub fn final_bounds(&self) -> (&StateVec, &StateVec) {
        (
            self.lower.last().expect("non-empty"),
            self.upper.last().expect("non-empty"),
        )
    }

    /// Returns `true` when `state` lies between the bounds at grid index `k`
    /// (up to `tolerance`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or dimensions disagree.
    pub fn contains_at(&self, k: usize, state: &StateVec, tolerance: f64) -> bool {
        (0..state.dim()).all(|i| {
            state[i] >= self.lower[k][i] - tolerance && state[i] <= self.upper[k][i] + tolerance
        })
    }
}

/// Options for the differential-hull integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HullOptions {
    /// Fixed RK4 step used to integrate the `2d`-dimensional hull ODE.
    pub step: f64,
    /// Number of time intervals of the reported bound grid.
    pub time_intervals: usize,
    /// When `true`, edge midpoints of the rectangle are added to the corner
    /// enumeration (helps for drifts that are not monotone in the state).
    pub refine_midpoints: bool,
    /// Optional clamp applied to both bounds after every report interval
    /// (e.g. `[0, 1]` for densities); `None` leaves the bounds unclamped.
    pub clamp: Option<(f64, f64)>,
    /// Run budget; only the wall-clock cap applies to the hull integration,
    /// checked once per report interval. A tripped deadline returns the
    /// bounds accumulated so far with
    /// [`HullBounds::truncated_at`] set instead of discarding them.
    pub budget: RunBudget,
}

impl Default for HullOptions {
    fn default() -> Self {
        HullOptions {
            step: 1e-3,
            time_intervals: 100,
            refine_midpoints: true,
            clamp: None,
            budget: RunBudget::unlimited(),
        }
    }
}

/// The differential-hull analysis of an imprecise drift.
pub struct DifferentialHull<D> {
    drift: D,
    options: HullOptions,
    obs: Obs,
}

impl<D: ImpreciseDrift> DifferentialHull<D> {
    /// Creates the analysis with the given options.
    pub fn new(drift: D, options: HullOptions) -> Self {
        DifferentialHull {
            drift,
            options,
            obs: Obs::none(),
        }
    }

    /// Attaches an observability bundle; [`DifferentialHull::bounds`] then
    /// reports how many rectangle points its per-(coordinate, side)
    /// reductions visited.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The options in use.
    pub fn options(&self) -> &HullOptions {
        &self.options
    }

    /// Integrates the hull ODE from the degenerate box `[x0, x0]` over
    /// `[0, t_end]` and reports the bounds on a uniform grid.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatches, invalid horizons, a
    /// non-finite initial condition, a rectangle grid too large to
    /// allocate ([`CoreError::InvalidInput`], before integrating), or
    /// integration failure.
    pub fn bounds(&self, x0: &StateVec, t_end: f64) -> Result<HullBounds> {
        if x0.dim() != self.drift.dim() {
            return Err(CoreError::invalid_input(
                "initial condition dimension mismatch",
            ));
        }
        if t_end <= 0.0 || !t_end.is_finite() {
            return Err(CoreError::invalid_input(
                "time horizon must be positive and finite",
            ));
        }
        if !x0.is_finite() {
            return Err(NumError::non_finite("initial condition").into());
        }
        let dim = self.drift.dim();
        let system = HullOde::new(&self.drift, self.options.refine_midpoints);
        system.reserve_grid()?;

        // combined state: [lower | upper]
        let mut combined = StateVec::zeros(2 * dim);
        for i in 0..dim {
            combined[i] = x0[i];
            combined[dim + i] = x0[i];
        }

        let intervals = self.options.time_intervals.max(1);
        let dt = t_end / intervals as f64;
        // `with_step` rejects a non-positive step
        let step = Rk4::with_step(self.options.step.min(dt)).step();
        // every report interval is split into the same whole number of steps
        let n_steps = (dt / step).ceil().max(1.0) as usize;
        let h = dt / n_steps as f64;
        let mut workspace = Rk4Workspace::new(2 * dim);

        let mut times = Vec::with_capacity(intervals + 1);
        let mut lower = Vec::with_capacity(intervals + 1);
        let mut upper = Vec::with_capacity(intervals + 1);
        let split = |c: &StateVec| {
            let lo: StateVec = (0..dim).map(|i| c[i]).collect();
            let hi: StateVec = (0..dim).map(|i| c[dim + i]).collect();
            (lo, hi)
        };
        let (lo0, hi0) = split(&combined);
        times.push(0.0);
        lower.push(lo0);
        upper.push(hi0);

        let mut tracker = BudgetTracker::start(&self.options.budget);
        let mut truncated_at = None;
        for k in 1..=intervals {
            if tracker.expired_now() {
                truncated_at = times.last().copied();
                break;
            }
            for s in 0..n_steps {
                let t = h * s as f64;
                Rk4::step_in_place_with(&system, t, &mut combined, h, &mut workspace);
                if !combined.is_finite() {
                    return Err(NumError::non_finite(format!("RK4 step at t = {t}")).into());
                }
            }
            if mfu_guard::state_diverged(combined.as_slice(), DIVERGENCE_CAP) {
                return Err(CoreError::Diverged {
                    analysis: "differential hull",
                    time: dt * k as f64,
                });
            }
            if let Some((clamp_lo, clamp_hi)) = self.options.clamp {
                for v in combined.as_mut_slice() {
                    *v = v.clamp(clamp_lo, clamp_hi);
                }
            }
            // Keep the box well-formed: floating-point noise can make a lower
            // bound overtake its upper bound when the box collapses.
            for i in 0..dim {
                if combined[i] > combined[dim + i] {
                    let mid = 0.5 * (combined[i] + combined[dim + i]);
                    combined[i] = mid;
                    combined[dim + i] = mid;
                }
            }
            let (lo, hi) = split(&combined);
            times.push(dt * k as f64);
            lower.push(lo);
            upper.push(hi);
        }
        let vertex_evals = system.vertex_evals.get();
        self.obs
            .metrics
            .add(Counter::CoreHullVertexEvals, vertex_evals);
        if self.obs.tracer.is_enabled() {
            self.obs.tracer.event(
                "hull_bounds",
                &[
                    ("dim", Field::U64(dim as u64)),
                    ("t_end", Field::F64(t_end)),
                    ("intervals", Field::U64(intervals as u64)),
                    ("vertex_evals", Field::U64(vertex_evals)),
                ],
            );
        }
        Ok(HullBounds {
            times,
            lower,
            upper,
            truncated_at,
        })
    }
}

/// The `2d`-dimensional hull ODE.
struct HullOde<'a, D> {
    drift: &'a D,
    dim: usize,
    refine_midpoints: bool,
    /// The Θ scan list of [`ImpreciseDrift::coordinate_range`], precomputed
    /// once (it does not depend on the state).
    theta_candidates: Vec<Vec<f64>>,
    // `OdeSystem::rhs` takes `&self`, so the eval tally lives in a `Cell`;
    // the hull ODE is integrated on one thread, making this sound and free.
    vertex_evals: Cell<u64>,
    scratch: RefCell<HullScratch>,
}

/// The values one coordinate takes on the shared grid.
#[derive(Debug, Clone, Copy, Default)]
struct Slots {
    /// `x̲_j`, `x̄_j` and the midpoint, each dropped when equal to the value
    /// kept before it (`Vec::dedup`); then `x̄_j` once more if that dropped
    /// its bit pattern (`−0.0` against `+0.0`), for the pinned upper side.
    values: [f64; 4],
    /// Number of values visited while the coordinate is free.
    free: usize,
    /// Number of values on the grid, the pinned-only extra included.
    len: usize,
    /// Index of the value bit-identical to `x̄_j`.
    upper: usize,
    /// Grid-point distance between consecutive values (coordinate 0
    /// varies fastest).
    stride: usize,
}

impl Slots {
    fn new(lo: f64, hi: f64, refine_midpoints: bool) -> Self {
        let mut slots = Slots {
            values: [lo; 4],
            len: 1,
            ..Slots::default()
        };
        slots.push_unless_repeated(hi);
        if refine_midpoints && hi > lo {
            slots.push_unless_repeated(0.5 * (lo + hi));
        }
        slots.free = slots.len;
        let kept = slots.values[..slots.len]
            .iter()
            .position(|v| v.to_bits() == hi.to_bits());
        slots.upper = kept.unwrap_or_else(|| {
            slots.values[slots.len] = hi;
            slots.len += 1;
            slots.len - 1
        });
        slots
    }

    /// Appends `v` unless it equals the last kept value, as `Vec::dedup`.
    fn push_unless_repeated(&mut self, v: f64) {
        if v != self.values[self.len - 1] {
            self.values[self.len] = v;
            self.len += 1;
        }
    }
}

/// Reusable buffers of the hull ODE's right-hand side. The batches are
/// reserved for the largest grid up front, so after the first stage a
/// stage allocates nothing.
#[derive(Default)]
struct HullScratch {
    lower: Vec<f64>,
    upper: Vec<f64>,
    slots: Vec<Slots>,
    /// Multi-index of the pinned-slice walk.
    index: Vec<usize>,
    /// Grid points × Θ candidates, lane `point · C + candidate`.
    x: SoaBatch,
    thetas: SoaBatch,
    drifts: SoaBatch,
}

impl<'a, D: ImpreciseDrift> HullOde<'a, D> {
    fn new(drift: &'a D, refine_midpoints: bool) -> Self {
        HullOde {
            drift,
            dim: drift.dim(),
            refine_midpoints,
            theta_candidates: drift.theta_candidates(),
            vertex_evals: Cell::new(0),
            scratch: RefCell::new(HullScratch::default()),
        }
    }

    /// Reserves the batch buffers for the largest grid a box can span —
    /// every coordinate at its most slots — so no stage allocates, and a
    /// grid too large to allocate fails here, before any stage runs.
    ///
    /// The check must be on the largest grid, not the current box's: the
    /// integration starts from a degenerate box whose grid is one point,
    /// and on a chain like `ring_48` the box widens one coordinate per
    /// stage, so the grid would grow for hundreds of stages before a
    /// per-stage check could fail.
    fn reserve_grid(&self) -> Result<()> {
        let n_cands = self.theta_candidates.len();
        let n_params = self.drift.params().dim();
        // at most 3 values (`x̲`, `x̄`, midpoint) per coordinate, 2 without
        // midpoints; the pinned-only extra only appears when `x̲ == x̄`
        let slots: usize = if self.refine_midpoints { 3 } else { 2 };
        let too_large = || {
            CoreError::invalid_input(format!(
                "differential hull: the rectangle grid of a {}-dimensional box \
                 ({slots}^{} points × {n_cands} Θ candidates) is too large to \
                 allocate; corner enumeration grows exponentially with the dimension",
                self.dim, self.dim
            ))
        };
        let lanes = u32::try_from(self.dim)
            .ok()
            .and_then(|dim| slots.checked_pow(dim))
            .and_then(|points| points.checked_mul(n_cands))
            .ok_or_else(too_large)?;
        lanes
            .checked_mul(2 * self.dim + n_params)
            .and_then(|values| values.checked_mul(std::mem::size_of::<f64>()))
            .ok_or_else(too_large)?;
        let scratch = &mut *self.scratch.borrow_mut();
        scratch
            .x
            .try_reserve(self.dim, lanes)
            .and_then(|()| scratch.thetas.try_reserve(n_params, lanes))
            .and_then(|()| scratch.drifts.try_reserve(self.dim, lanes))
            .map_err(|_| too_large())
    }

    /// Builds the slot lists of the box `[scratch.lower, scratch.upper]`
    /// and fills the batch buffers with the grid.
    fn prepare_grid(&self, scratch: &mut HullScratch) {
        let n_cands = self.theta_candidates.len();
        let n_params = self.drift.params().dim();
        scratch.slots.clear();
        let mut points = 1;
        for j in 0..self.dim {
            let mut slots = Slots::new(scratch.lower[j], scratch.upper[j], self.refine_midpoints);
            slots.stride = points;
            points *= slots.len;
            scratch.slots.push(slots);
        }
        let lanes = points * n_cands;
        // the Θ lanes depend on the width only: refill them when it changes
        if scratch.thetas.width() != lanes || scratch.thetas.rows() != n_params {
            scratch.thetas.reset(n_params, lanes);
            for r in 0..n_params {
                let row = scratch.thetas.row_mut(r);
                for chunk in row.chunks_exact_mut(n_cands) {
                    for (value, candidate) in chunk.iter_mut().zip(&self.theta_candidates) {
                        *value = candidate[r];
                    }
                }
            }
        }
        scratch.x.reset(self.dim, lanes);
        for (j, slots) in scratch.slots.iter().enumerate() {
            let run = slots.stride * n_cands;
            let row = scratch.x.row_mut(j);
            for (k, chunk) in row.chunks_exact_mut(run).enumerate() {
                chunk.fill(slots.values[k % slots.len]);
            }
        }
    }

    /// The extreme of drift coordinate `pin` over the grid slice with
    /// `x_pin` at its lower (`want_max == false`) or upper bound.
    ///
    /// Replays the per-slice scan: the free coordinates' values in
    /// multi-index order (lowest coordinate fastest), at each point the
    /// `extremal_theta` scan over the candidates for the direction
    /// `±e_pin`, the same strict comparisons, and `StateVec::dot`'s sum
    /// over every coordinate, zero terms included — so a non-finite drift
    /// in another coordinate still turns `0·∞` into NaN, and even the sign
    /// of a zero matches.
    fn extreme_over_slice(&self, scratch: &mut HullScratch, pin: usize, want_max: bool) -> f64 {
        let n_cands = self.theta_candidates.len();
        let width = scratch.drifts.width();
        let drifts = scratch.drifts.as_slice();
        let slots = &scratch.slots;
        let sign = if want_max { 1.0 } else { -1.0 };
        // `StateVec::dot` with the direction `sign · e_pin`, term for term
        let dot_pin = |lane: usize| -> f64 {
            (0..self.dim)
                .map(|i| drifts[i * width + lane] * if i == pin { sign } else { 0.0 })
                .sum()
        };

        let pin_slot = if want_max { slots[pin].upper } else { 0 };
        let mut point = pin_slot * slots[pin].stride;
        let index = &mut scratch.index;
        index.clear();
        index.resize(self.dim, 0);
        let mut visited = 0u64;
        let mut best = if want_max {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        loop {
            visited += 1;
            // the `extremal_theta` scan for `sign · e_pin`
            let mut extreme = f64::NEG_INFINITY;
            for lane in point * n_cands..(point + 1) * n_cands {
                let value = dot_pin(lane);
                if value > extreme {
                    extreme = value;
                }
            }
            let value = if want_max { extreme } else { -extreme };
            if (want_max && value > best) || (!want_max && value < best) {
                best = value;
            }
            // advance the multi-index over the free coordinates
            let mut j = 0;
            loop {
                if j == self.dim {
                    self.vertex_evals.set(self.vertex_evals.get() + visited);
                    return best;
                }
                if j != pin {
                    index[j] += 1;
                    if index[j] < slots[j].free {
                        point += slots[j].stride;
                        break;
                    }
                    point -= (slots[j].free - 1) * slots[j].stride;
                    index[j] = 0;
                }
                j += 1;
            }
        }
    }

    /// The hull derivative on the box `[scratch.lower, scratch.upper]`: a
    /// single batched drift pass over the shared grid, then the `2d`
    /// reductions.
    fn evaluate_box(&self, scratch: &mut HullScratch, out: &mut StateVec) {
        self.prepare_grid(scratch);
        self.drift.drift_batch_into(
            &scratch.x,
            &BatchTheta::PerLane(&scratch.thetas),
            &mut scratch.drifts,
        );
        for i in 0..self.dim {
            out[i] = self.extreme_over_slice(scratch, i, false);
            out[self.dim + i] = self.extreme_over_slice(scratch, i, true);
        }
    }
}

impl<D: ImpreciseDrift> OdeSystem for HullOde<'_, D> {
    fn dim(&self) -> usize {
        2 * self.dim
    }

    fn rhs(&self, _t: f64, combined: &StateVec, out: &mut StateVec) {
        let scratch = &mut *self.scratch.borrow_mut();
        let (lower, upper_raw) = combined.as_slice().split_at(self.dim);
        scratch.lower.clear();
        scratch.lower.extend_from_slice(lower);
        // ensure a well-formed box even at intermediate RK stages
        scratch.upper.clear();
        scratch
            .upper
            .extend(lower.iter().zip(upper_raw).map(|(lo, hi)| lo.max(*hi)));
        self.evaluate_box(scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::inclusion::DifferentialInclusion;
    use crate::signal::PiecewiseSignal;
    use mfu_ctmc::params::ParamSpace;
    use scalar_oracle::{scalar_bounds, ScalarHullOde};

    fn decay_drift(lo: f64, hi: f64) -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("rate", lo, hi).unwrap();
        FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0]
        })
    }

    #[test]
    fn hull_of_scalar_decay_matches_extreme_exponentials() {
        // For ẋ = -ϑx with x ≥ 0, the hull ODE is exact:
        // lower bound decays at rate ϑmax, upper bound at rate ϑmin.
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default());
        let bounds = hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let k = bounds.times().len() - 1;
        assert!((bounds.lower()[k][0] - (-2.0f64).exp()).abs() < 1e-4);
        assert!((bounds.upper()[k][0] - (-1.0f64).exp()).abs() < 1e-4);
        let (lo, hi) = bounds.final_bounds();
        assert!(lo[0] <= hi[0]);
    }

    #[test]
    fn hull_contains_arbitrary_switching_solutions() {
        let drift = decay_drift(1.0, 3.0);
        let hull = DifferentialHull::new(&drift, HullOptions::default());
        let bounds = hull.bounds(&StateVec::from([1.0]), 2.0).unwrap();

        let inclusion = DifferentialInclusion::new(&drift);
        let signal = PiecewiseSignal::new(vec![0.5, 1.2], vec![vec![3.0], vec![1.0], vec![2.0]]);
        let traj = inclusion
            .solve_fixed_step(&signal, StateVec::from([1.0]), 2.0, 1e-3)
            .unwrap();
        for (k, &t) in bounds.times().iter().enumerate() {
            let state = traj.at(t).unwrap();
            assert!(bounds.contains_at(k, &state, 1e-6), "violated at t = {t}");
        }
    }

    #[test]
    fn hull_widens_with_parameter_range() {
        let narrow = DifferentialHull::new(decay_drift(1.0, 1.5), HullOptions::default())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        let wide = DifferentialHull::new(decay_drift(0.5, 3.0), HullOptions::default())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        let last = narrow.times().len() - 1;
        let narrow_width = narrow.upper()[last][0] - narrow.lower()[last][0];
        let wide_width = wide.upper()[last][0] - wide.lower()[last][0];
        assert!(wide_width > narrow_width);
    }

    #[test]
    fn coupled_system_hull_is_conservative() {
        // ẋ0 = ϑ(x1 - x0), ẋ1 = x0 - x1 : bounded coupling, hull must contain
        // both constant-parameter solutions.
        let theta = ParamSpace::single("coupling", 0.5, 2.0).unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * (x[1] - x[0]);
            dx[1] = x[0] - x[1];
        });
        let hull = DifferentialHull::new(&drift, HullOptions::default());
        let x0 = StateVec::from([1.0, 0.0]);
        let bounds = hull.bounds(&x0, 2.0).unwrap();
        let inclusion = DifferentialInclusion::new(&drift);
        for rate in [0.5, 1.0, 2.0] {
            let traj = inclusion.solve_constant(&[rate], x0.clone(), 2.0).unwrap();
            for (k, &t) in bounds.times().iter().enumerate() {
                let state = traj.at(t).unwrap();
                // tolerance covers the linear-interpolation error of the
                // reference trajectory between its adaptive nodes
                assert!(
                    bounds.contains_at(k, &state, 1e-3),
                    "rate {rate}, t {t}: state {state} vs [{}, {}]",
                    bounds.lower()[k],
                    bounds.upper()[k]
                );
            }
        }
    }

    #[test]
    fn clamping_keeps_bounds_in_the_simplex() {
        let drift = decay_drift(1.0, 10.0);
        let options = HullOptions {
            clamp: Some((0.0, 1.0)),
            ..HullOptions::default()
        };
        let bounds = DifferentialHull::new(&drift, options)
            .bounds(&StateVec::from([1.0]), 5.0)
            .unwrap();
        for (lo, hi) in bounds.lower().iter().zip(bounds.upper().iter()) {
            assert!(lo[0] >= 0.0 && hi[0] <= 1.0);
        }
    }

    #[test]
    fn input_validation() {
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default());
        assert!(hull.bounds(&StateVec::from([1.0, 2.0]), 1.0).is_err());
        assert!(hull.bounds(&StateVec::from([1.0]), 0.0).is_err());
        assert_eq!(hull.options().time_intervals, 100);
    }

    #[test]
    fn vertex_evaluations_are_counted_and_deterministic() {
        let obs = Obs::with_metrics();
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default())
            .with_obs(obs.clone());
        hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let first = obs
            .metrics
            .snapshot()
            .unwrap()
            .counter(Counter::CoreHullVertexEvals);
        assert!(first > 0);
        // the enumeration is deterministic: a second identical integration
        // performs exactly the same number of vertex evaluations
        hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let second = obs
            .metrics
            .snapshot()
            .unwrap()
            .counter(Counter::CoreHullVertexEvals);
        assert_eq!(second, 2 * first);
    }

    fn assert_bits_eq(shared: &[f64], oracle: &[f64], what: &str) {
        assert_eq!(shared.len(), oracle.len(), "{what}: length");
        for (i, (a, b)) in shared.iter().zip(oracle).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
        }
    }

    /// Integrates `drift` with the shared grid and with the scalar oracle
    /// and asserts bit-identical bounds and equal vertex counts.
    fn assert_bounds_match_oracle<D: ImpreciseDrift>(
        drift: &D,
        options: HullOptions,
        x0: &StateVec,
        t_end: f64,
    ) {
        let obs = Obs::with_metrics();
        let shared = DifferentialHull::new(drift, options)
            .with_obs(obs.clone())
            .bounds(x0, t_end)
            .unwrap();
        let oracle = scalar_bounds(drift, &options, x0, t_end).unwrap();
        assert_eq!(shared.times(), oracle.times.as_slice());
        for k in 0..oracle.times.len() {
            let what = |side: &str| format!("{side} bound at node {k}");
            assert_bits_eq(
                shared.lower()[k].as_slice(),
                oracle.lower[k].as_slice(),
                &what("lower"),
            );
            assert_bits_eq(
                shared.upper()[k].as_slice(),
                oracle.upper[k].as_slice(),
                &what("upper"),
            );
        }
        let counted = obs.metrics.snapshot().unwrap();
        assert_eq!(
            counted.counter(Counter::CoreHullVertexEvals),
            oracle.vertex_evals
        );
    }

    /// One right-hand-side evaluation of both kernels on `combined`.
    fn assert_rhs_matches_oracle<D: ImpreciseDrift>(
        drift: &D,
        refine_midpoints: bool,
        combined: &[f64],
    ) {
        let combined: StateVec = combined.iter().copied().collect();
        let shared = HullOde::new(drift, refine_midpoints);
        let oracle = ScalarHullOde::new(drift, refine_midpoints);
        let shared_out = shared.rhs_owned(0.0, &combined);
        let oracle_out = oracle.rhs_owned(0.0, &combined);
        assert_bits_eq(
            shared_out.as_slice(),
            oracle_out.as_slice(),
            &format!("rhs at {combined}"),
        );
        assert_eq!(shared.vertex_evals.get(), oracle.vertex_evals.get());
    }

    /// The hull derivative of both kernels on an explicit box, bypassing
    /// the `max` that lifts the upper bound (whose choice between `−0.0`
    /// and `+0.0` is unspecified).
    fn assert_box_matches_oracle<D: ImpreciseDrift>(
        drift: &D,
        refine_midpoints: bool,
        lower: &[f64],
        upper: &[f64],
    ) {
        let shared = HullOde::new(drift, refine_midpoints);
        let mut shared_out = StateVec::zeros(2 * lower.len());
        {
            let scratch = &mut *shared.scratch.borrow_mut();
            scratch.lower = lower.to_vec();
            scratch.upper = upper.to_vec();
            shared.evaluate_box(scratch, &mut shared_out);
        }
        let oracle = ScalarHullOde::new(drift, refine_midpoints);
        let mut oracle_out = StateVec::zeros(2 * lower.len());
        let (lower, upper): (StateVec, StateVec) = (
            lower.iter().copied().collect(),
            upper.iter().copied().collect(),
        );
        oracle.rhs_on_box(&lower, &upper, &mut oracle_out);
        assert_bits_eq(
            shared_out.as_slice(),
            oracle_out.as_slice(),
            &format!("derivative on [{lower}, {upper}]"),
        );
        assert_eq!(shared.vertex_evals.get(), oracle.vertex_evals.get());
    }

    #[test]
    fn slot_lists_follow_the_dedup_rule() {
        let one_ulp_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let lists = |lo: f64, hi: f64, refine: bool| {
            let slots = Slots::new(lo, hi, refine);
            (slots.values[..slots.len].to_vec(), slots.free, slots.upper)
        };
        assert_eq!(lists(0.25, 0.75, true), (vec![0.25, 0.75, 0.5], 3, 1));
        assert_eq!(lists(0.25, 0.75, false), (vec![0.25, 0.75], 2, 1));
        assert_eq!(lists(0.5, 0.5, true), (vec![0.5], 1, 0));
        // the midpoint of [1, 1 + ulp] rounds to 1: not adjacent to its
        // duplicate, so `dedup` keeps it
        let hi = one_ulp_up(1.0);
        assert_eq!(lists(1.0, hi, true), (vec![1.0, hi, 1.0], 3, 1));
        // −0.0 == +0.0, but the pinned upper side needs +0.0's own bits
        let (values, free, upper) = lists(-0.0, 0.0, true);
        assert_eq!((free, upper), (1, 1));
        assert_eq!(values[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(values[1].to_bits(), 0.0f64.to_bits());
    }

    fn coupled_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("coupling", 0.5, 2.0).unwrap();
        FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * (x[1] - x[0]);
            dx[1] = x[0] - x[1];
        })
    }

    #[test]
    fn shared_grid_bounds_are_bit_identical_to_the_scalar_oracle() {
        // the coupled 2-d drift exercises midpoint refinement and a
        // non-trivial rectangle enumeration; a refined Θ adds grid candidates
        let x0 = StateVec::from([1.0, 0.0]);
        let refined = coupled_drift().with_theta_refinement(2);
        for refine_midpoints in [true, false] {
            let options = HullOptions {
                refine_midpoints,
                ..HullOptions::default()
            };
            assert_bounds_match_oracle(&refined, options, &x0, 1.0);
            assert_bounds_match_oracle(&coupled_drift(), options, &x0, 1.0);
        }
        // three coordinates and two parameters: a 3^3-point grid, 4 vertices
        let theta = ParamSpace::new(vec![
            ("infect", mfu_ctmc::params::Interval::new(1.0, 3.0).unwrap()),
            (
                "recover",
                mfu_ctmc::params::Interval::new(0.5, 1.0).unwrap(),
            ),
        ])
        .unwrap();
        let sir = FnDrift::new(3, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0] * x[1] + 0.1 * x[2];
            dx[1] = th[0] * x[0] * x[1] - th[1] * x[1];
            dx[2] = th[1] * x[1] - 0.1 * x[2];
        });
        let options = HullOptions {
            step: 1e-2,
            time_intervals: 20,
            clamp: Some((0.0, 1.0)),
            ..HullOptions::default()
        };
        assert_bounds_match_oracle(&sir, options, &StateVec::from([0.7, 0.3, 0.0]), 2.0);
    }

    #[test]
    fn shared_grid_counts_vertex_evals_like_the_scalar_oracle() {
        // per stage, 2d slices of the grid are walked: the count is the
        // scalar scan's, not the number of drift lanes
        let obs = Obs::with_metrics();
        let drift = decay_drift(1.0, 2.0);
        DifferentialHull::new(&drift, HullOptions::default())
            .with_obs(obs.clone())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        let oracle =
            scalar_bounds(&drift, &HullOptions::default(), &StateVec::from([1.0]), 1.0).unwrap();
        let counted = obs
            .metrics
            .snapshot()
            .unwrap()
            .counter(Counter::CoreHullVertexEvals);
        assert_eq!(counted, oracle.vertex_evals);
        assert!(counted > 0);
    }

    #[test]
    fn shared_grid_rhs_matches_the_oracle_on_edge_boxes() {
        let one_ulp_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        // 1.0 has an even mantissa, so the midpoint of [1, 1 + ulp] rounds
        // back to the lower end; one ulp higher it rounds to the upper end
        let even = 1.0;
        assert_eq!(0.5 * (even + one_ulp_up(even)), even);
        let odd = one_ulp_up(1.0);
        assert_eq!(0.5 * (odd + one_ulp_up(odd)), one_ulp_up(odd));
        let drift = coupled_drift().with_theta_refinement(2);
        for refine_midpoints in [true, false] {
            // the degenerate box of the first stage
            assert_rhs_matches_oracle(&drift, refine_midpoints, &[0.3, 0.6, 0.3, 0.6]);
            // 1-ulp-wide boxes: midpoint equal to the lower, then the upper end
            for lo in [even, odd] {
                let hi = one_ulp_up(lo);
                assert_rhs_matches_oracle(&drift, refine_midpoints, &[lo, 0.5, hi, 0.75]);
                assert_rhs_matches_oracle(&drift, refine_midpoints, &[0.5, lo, 0.75, hi]);
            }
            // an upper bound below the lower one is lifted to it
            assert_rhs_matches_oracle(&drift, refine_midpoints, &[0.4, 0.6, 0.2, 0.9]);
        }
    }

    #[test]
    fn shared_grid_rhs_keeps_signed_zeros_and_infinities() {
        // drifts that see the sign of a zero state and return signed zeros
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        let signed = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[1].signum() - x[0];
            dx[1] = -0.0 * th[0] * x[0].signum();
        });
        for refine_midpoints in [true, false] {
            // x̲ = −0.0 against x̄ = +0.0: equal values, different bits
            for (lower, upper) in [
                ([-0.0, -0.0], [0.0, 0.0]),
                ([-0.0, 0.5], [0.0, 0.5]),
                ([0.5, -0.0], [0.7, 0.0]),
                ([0.0, -0.0], [-0.0, 0.0]),
            ] {
                assert_box_matches_oracle(&signed, refine_midpoints, &lower, &upper);
                let combined = [lower, upper].concat();
                assert_rhs_matches_oracle(&signed, refine_midpoints, &combined);
            }
        }
        // an infinite drift in a non-pinned coordinate turns the replayed
        // `0·∞` into NaN, which never wins a comparison
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        let blowup = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0];
            dx[1] = if x[0] > 0.6 {
                f64::INFINITY
            } else if x[0] < 0.4 {
                f64::NEG_INFINITY
            } else {
                x[0] - x[1]
            };
        });
        for refine_midpoints in [true, false] {
            assert_rhs_matches_oracle(&blowup, refine_midpoints, &[0.5, 0.5, 0.7, 0.6]);
            assert_rhs_matches_oracle(&blowup, refine_midpoints, &[0.3, 0.5, 0.7, 0.6]);
            assert_rhs_matches_oracle(&blowup, refine_midpoints, &[0.7, 0.5, 0.7, 0.6]);
        }
    }

    /// Counts [`ImpreciseDrift::drift_batch_into`] calls and checks each
    /// batch is a full grid: every distinct value of every coordinate
    /// paired with every other and with every Θ candidate.
    struct CountingDrift<D> {
        inner: D,
        calls: Cell<u64>,
    }

    impl<D: ImpreciseDrift> ImpreciseDrift for CountingDrift<D> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn params(&self) -> &ParamSpace {
            self.inner.params()
        }

        fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
            self.inner.drift_into(x, theta, out);
        }

        fn theta_refinement(&self) -> usize {
            self.inner.theta_refinement()
        }

        fn drift_batch_into(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut SoaBatch) {
            self.calls.set(self.calls.get() + 1);
            let mut lanes = self.theta_candidates().len();
            for j in 0..x.rows() {
                let mut distinct: Vec<u64> = x.row(j).iter().map(|v| v.to_bits()).collect();
                distinct.sort_unstable();
                distinct.dedup();
                lanes *= distinct.len();
            }
            assert_eq!(x.width(), lanes, "a batch is not the full grid");
            self.inner.drift_batch_into(x, theta, out);
        }
    }

    #[test]
    fn one_drift_batch_per_rhs_stage() {
        let drift = CountingDrift {
            inner: coupled_drift().with_theta_refinement(1),
            calls: Cell::new(0),
        };
        let options = HullOptions::default();
        let t_end = 1.0;
        DifferentialHull::new(&drift, options)
            .bounds(&StateVec::from([1.0, 0.0]), t_end)
            .unwrap();
        // the integration's step count: every report interval in equal steps
        let dt = t_end / options.time_intervals as f64;
        let steps = options.time_intervals * (dt / options.step.min(dt)).ceil() as usize;
        assert_eq!(drift.calls.get(), 4 * steps as u64);
    }

    #[test]
    fn expired_deadline_returns_partial_bounds_instead_of_discarding_them() {
        let options = HullOptions {
            budget: RunBudget::unlimited().wall_clock(std::time::Duration::ZERO),
            ..HullOptions::default()
        };
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), options);
        let bounds = hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        // the deadline was already expired, so only the initial node survives
        assert_eq!(bounds.truncated_at(), Some(0.0));
        assert_eq!(bounds.times(), &[0.0]);
        assert_eq!(bounds.lower().len(), 1);

        let unbudgeted = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        assert_eq!(unbudgeted.truncated_at(), None);
    }

    #[test]
    fn divergent_integration_is_diagnosed_with_a_time() {
        // ẋ = ϑx with ϑ ∈ [200, 300] blows past the divergence cap well
        // before the horizon while every intermediate value is still finite.
        let theta = ParamSpace::single("rate", 200.0, 300.0).unwrap();
        let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[0]
        });
        let options = HullOptions {
            step: 0.02,
            ..HullOptions::default()
        };
        let err = DifferentialHull::new(drift, options)
            .bounds(&StateVec::from([1.0]), 2.0)
            .unwrap_err();
        match err {
            CoreError::Diverged { analysis, time } => {
                assert_eq!(analysis, "differential hull");
                assert!(time > 0.0 && time <= 2.0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn series_accessors_are_consistent() {
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default());
        let bounds = hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let lo = bounds.lower_series(0);
        let hi = bounds.upper_series(0);
        assert_eq!(lo.len(), bounds.times().len());
        for k in 0..lo.len() {
            assert_eq!(lo[k], bounds.lower()[k][0]);
            assert_eq!(hi[k], bounds.upper()[k][0]);
            assert!(lo[k] <= hi[k] + 1e-12);
        }
    }
}
