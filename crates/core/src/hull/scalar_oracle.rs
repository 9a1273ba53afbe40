//! Scalar reference for the differential hull: the per-(coordinate, side)
//! corner scan that the shared-grid kernel replaced, kept as the test
//! oracle for it.
//!
//! For every pinned coordinate `i` and side it enumerates the rectangle
//! points with `x_i` fixed, one at a time, and takes the extreme of
//! [`ImpreciseDrift::coordinate_range`] over them; [`scalar_bounds`]
//! integrates that right-hand side with [`Integrator::final_state`] per
//! report interval. The shared grid must match it bit for bit, vertex
//! count included.
//!
//! Used by `mfu-core`'s unit tests and, included by path, by the
//! registry-wide `tests/batch_invariance.rs`, so it names items through
//! the crate paths (`mfu_core::…`) both can resolve.

use std::cell::Cell;

use mfu_core::drift::ImpreciseDrift;
use mfu_core::hull::HullOptions;
use mfu_core::CoreError;
use mfu_guard::DIVERGENCE_CAP;
use mfu_num::ode::{Integrator, OdeSystem, Rk4};
use mfu_num::StateVec;

/// The `2d`-dimensional hull ODE, evaluated by one scalar scan per
/// (coordinate, side).
pub struct ScalarHullOde<'a, D> {
    drift: &'a D,
    refine_midpoints: bool,
    /// Rectangle points visited so far, summed over all scans.
    pub vertex_evals: Cell<u64>,
}

impl<'a, D: ImpreciseDrift> ScalarHullOde<'a, D> {
    /// The hull ODE of `drift`.
    pub fn new(drift: &'a D, refine_midpoints: bool) -> Self {
        ScalarHullOde {
            drift,
            refine_midpoints,
            vertex_evals: Cell::new(0),
        }
    }

    /// The hull derivative on the box `[lower, upper]`, taken as given.
    pub fn rhs_on_box(&self, lower: &StateVec, upper: &StateVec, out: &mut StateVec) {
        let dim = self.drift.dim();
        for i in 0..dim {
            out[i] = self.extreme_over_box(lower, upper, i, lower[i], false);
            out[dim + i] = self.extreme_over_box(lower, upper, i, upper[i], true);
        }
    }

    /// Visits the corner (and optionally midpoint) points of the rectangle
    /// `[lower, upper]` with coordinate `pin` fixed to `pin_value`; the
    /// first free coordinate varies fastest.
    fn for_each_rect_point<F: FnMut(&StateVec)>(
        &self,
        lower: &StateVec,
        upper: &StateVec,
        pin: usize,
        pin_value: f64,
        mut visit: F,
    ) {
        let free: Vec<usize> = (0..lower.dim()).filter(|&i| i != pin).collect();
        let candidates: Vec<Vec<f64>> = free
            .iter()
            .map(|&i| {
                let mut v = vec![lower[i], upper[i]];
                if self.refine_midpoints && upper[i] > lower[i] {
                    v.push(0.5 * (lower[i] + upper[i]));
                }
                v.dedup();
                v
            })
            .collect();
        let mut point = lower.clone();
        point[pin] = pin_value;
        let mut indices = vec![0usize; free.len()];
        loop {
            for (slot, &coord) in free.iter().enumerate() {
                point[coord] = candidates[slot][indices[slot]];
            }
            visit(&point);
            let mut slot = 0;
            loop {
                if slot == free.len() {
                    return;
                }
                indices[slot] += 1;
                if indices[slot] < candidates[slot].len() {
                    break;
                }
                indices[slot] = 0;
                slot += 1;
            }
        }
    }

    /// The extreme of drift coordinate `pin` over the rectangle points with
    /// `x_pin = pin_value` and over `Θ`.
    fn extreme_over_box(
        &self,
        lower: &StateVec,
        upper: &StateVec,
        pin: usize,
        pin_value: f64,
        want_max: bool,
    ) -> f64 {
        let mut best = if want_max {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        self.for_each_rect_point(lower, upper, pin, pin_value, |point| {
            self.vertex_evals.set(self.vertex_evals.get() + 1);
            let (lo, hi) = self.drift.coordinate_range(point, pin);
            let value = if want_max { hi } else { lo };
            if (want_max && value > best) || (!want_max && value < best) {
                best = value;
            }
        });
        best
    }
}

impl<D: ImpreciseDrift> OdeSystem for ScalarHullOde<'_, D> {
    fn dim(&self) -> usize {
        2 * self.drift.dim()
    }

    fn rhs(&self, _t: f64, combined: &StateVec, out: &mut StateVec) {
        let dim = self.drift.dim();
        let lower: StateVec = (0..dim).map(|i| combined[i]).collect();
        let upper_raw: StateVec = (0..dim).map(|i| combined[dim + i]).collect();
        let upper = lower.component_max(&upper_raw);
        self.rhs_on_box(&lower, &upper, out);
    }
}

/// Bounds of the scalar hull on its report grid, with its vertex count.
pub struct ScalarBounds {
    /// The report grid.
    pub times: Vec<f64>,
    /// Lower bounds on the grid.
    pub lower: Vec<StateVec>,
    /// Upper bounds on the grid.
    pub upper: Vec<StateVec>,
    /// Rectangle points visited over the whole integration.
    pub vertex_evals: u64,
}

/// Integrates the scalar hull ODE from `[x0, x0]` over `[0, t_end]` with
/// `options` (its budget aside), as `DifferentialHull::bounds` does.
///
/// # Errors
///
/// Returns the integrator's error or [`CoreError::Diverged`].
pub fn scalar_bounds<D: ImpreciseDrift>(
    drift: &D,
    options: &HullOptions,
    x0: &StateVec,
    t_end: f64,
) -> Result<ScalarBounds, CoreError> {
    let dim = drift.dim();
    let system = ScalarHullOde::new(drift, options.refine_midpoints);
    let mut combined = StateVec::zeros(2 * dim);
    for i in 0..dim {
        combined[i] = x0[i];
        combined[dim + i] = x0[i];
    }
    let intervals = options.time_intervals.max(1);
    let dt = t_end / intervals as f64;
    let solver = Rk4::with_step(options.step.min(dt));
    let split = |c: &StateVec| -> (StateVec, StateVec) {
        (
            (0..dim).map(|i| c[i]).collect(),
            (0..dim).map(|i| c[dim + i]).collect(),
        )
    };
    let (lo0, hi0) = split(&combined);
    let mut bounds = ScalarBounds {
        times: vec![0.0],
        lower: vec![lo0],
        upper: vec![hi0],
        vertex_evals: 0,
    };
    for k in 1..=intervals {
        combined = solver.final_state(&system, 0.0, combined, dt)?;
        if mfu_guard::state_diverged(combined.as_slice(), DIVERGENCE_CAP) {
            return Err(CoreError::Diverged {
                analysis: "differential hull",
                time: dt * k as f64,
            });
        }
        if let Some((clamp_lo, clamp_hi)) = options.clamp {
            combined = combined.clamp_scalar(clamp_lo, clamp_hi);
        }
        for i in 0..dim {
            if combined[i] > combined[dim + i] {
                let mid = 0.5 * (combined[i] + combined[dim + i]);
                combined[i] = mid;
                combined[dim + i] = mid;
            }
        }
        let (lo, hi) = split(&combined);
        bounds.times.push(dt * k as f64);
        bounds.lower.push(lo);
        bounds.upper.push(hi);
    }
    bounds.vertex_evals = system.vertex_evals.get();
    Ok(bounds)
}
