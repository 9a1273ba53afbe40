use crate::{NumError, Result, StateVec};

use super::{check_inputs, Integrator, OdeSystem, Trajectory};

/// Classic fourth-order Runge–Kutta integrator with a fixed step size.
///
/// Fourth-order accurate and allocation-free in the inner loop. This is the
/// solver of choice for the forward/backward passes of the Pontryagin sweep,
/// where a fixed time grid shared by the state and the costate is required.
///
/// # Example
///
/// ```
/// use mfu_num::ode::{FnSystem, Integrator, Rk4};
/// use mfu_num::StateVec;
///
/// let decay = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
/// let end = Rk4::with_step(1e-2).final_state(&decay, 0.0, StateVec::from(vec![1.0]), 1.0)?;
/// assert!((end[0] - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok::<(), mfu_num::NumError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4 {
    step: f64,
}

impl Rk4 {
    /// Creates an RK4 integrator with the given step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    pub fn with_step(step: f64) -> Self {
        assert!(
            step > 0.0 && step.is_finite(),
            "RK4 step must be positive and finite"
        );
        Rk4 { step }
    }

    /// The configured step size.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Performs a single RK4 step of size `h` from `(t, x)`, writing into `x`.
    ///
    /// Exposed for callers that manage their own time grid (e.g. the
    /// forward–backward Pontryagin sweep). Allocates its stage buffers;
    /// loops that step many times use [`Rk4::step_in_place_with`].
    pub fn step_in_place(system: &dyn OdeSystem, t: f64, x: &mut StateVec, h: f64) {
        Rk4::step_in_place_with(system, t, x, h, &mut Rk4Workspace::new(x.dim()));
    }

    /// [`Rk4::step_in_place`] on caller-owned stage buffers: the same
    /// arithmetic in the same order, so the result is bit-identical, with
    /// no allocation. `system.rhs` must write every coordinate of its
    /// output, since the buffers keep the previous step's values.
    ///
    /// # Panics
    ///
    /// Panics if `workspace` was built for a dimension other than `x.dim()`.
    pub fn step_in_place_with(
        system: &dyn OdeSystem,
        t: f64,
        x: &mut StateVec,
        h: f64,
        workspace: &mut Rk4Workspace,
    ) {
        assert_eq!(
            workspace.tmp.dim(),
            x.dim(),
            "RK4 workspace dimension mismatch"
        );
        let Rk4Workspace {
            k1,
            k2,
            k3,
            k4,
            tmp,
        } = workspace;

        system.rhs(t, x, k1);

        tmp.copy_from(x);
        tmp.add_scaled(0.5 * h, k1);
        system.rhs(t + 0.5 * h, tmp, k2);

        tmp.copy_from(x);
        tmp.add_scaled(0.5 * h, k2);
        system.rhs(t + 0.5 * h, tmp, k3);

        tmp.copy_from(x);
        tmp.add_scaled(h, k3);
        system.rhs(t + h, tmp, k4);

        x.add_scaled(h / 6.0, k1);
        x.add_scaled(h / 3.0, k2);
        x.add_scaled(h / 3.0, k3);
        x.add_scaled(h / 6.0, k4);
    }
}

/// The four stage slopes and the stage state of one RK4 step, kept across
/// steps by [`Rk4::step_in_place_with`].
#[derive(Debug, Clone)]
pub struct Rk4Workspace {
    k1: StateVec,
    k2: StateVec,
    k3: StateVec,
    k4: StateVec,
    tmp: StateVec,
}

impl Rk4Workspace {
    /// Stage buffers for a `dim`-dimensional system.
    pub fn new(dim: usize) -> Self {
        Rk4Workspace {
            k1: StateVec::zeros(dim),
            k2: StateVec::zeros(dim),
            k3: StateVec::zeros(dim),
            k4: StateVec::zeros(dim),
            tmp: StateVec::zeros(dim),
        }
    }
}

impl Default for Rk4 {
    fn default() -> Self {
        Rk4::with_step(1e-3)
    }
}

impl Integrator for Rk4 {
    fn integrate(
        &self,
        system: &dyn OdeSystem,
        t0: f64,
        x0: StateVec,
        t_end: f64,
    ) -> Result<Trajectory> {
        check_inputs(system, t0, &x0, t_end)?;
        let dim = system.dim();
        let span = t_end - t0;
        let n_steps = (span / self.step).ceil().max(1.0) as usize;
        let h = span / n_steps as f64;

        let mut traj = Trajectory::with_capacity(dim, n_steps + 1);
        let mut x = x0;
        traj.push(t0, x.clone())?;
        if span == 0.0 {
            return Ok(traj);
        }
        for k in 0..n_steps {
            let t = t0 + h * k as f64;
            Rk4::step_in_place(system, t, &mut x, h);
            if !x.is_finite() {
                return Err(NumError::non_finite(format!("RK4 step at t = {t}")));
            }
            let t_next = if k + 1 == n_steps {
                t_end
            } else {
                t0 + h * (k + 1) as f64
            };
            traj.push(t_next, x.clone())?;
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn fourth_order_accuracy_on_exponential() {
        let sys = FnSystem::new(1, |_t, x: &StateVec, dx: &mut StateVec| dx[0] = -x[0]);
        let exact = (-1.0f64).exp();
        let end = Rk4::with_step(1e-2)
            .final_state(&sys, 0.0, StateVec::from([1.0]), 1.0)
            .unwrap();
        assert!((end[0] - exact).abs() < 1e-9);
    }

    #[test]
    fn order_of_convergence_is_about_four() {
        let sys = FnSystem::new(1, |t, _x: &StateVec, dx: &mut StateVec| {
            dx[0] = (t).cos() * (t).sin()
        });
        let exact = 0.5 * (1.0f64.sin()).powi(2);
        let err = |h: f64| {
            let end = Rk4::with_step(h)
                .final_state(&sys, 0.0, StateVec::from([0.0]), 1.0)
                .unwrap();
            (end[0] - exact).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        // halving the step should reduce the error roughly by 2^4 = 16
        let order = (e1 / e2).log2();
        assert!(order > 3.0, "observed order {order} too low");
    }

    #[test]
    fn reused_workspace_steps_are_bit_identical() {
        let sys = FnSystem::new(2, |t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = x[1] * t.cos();
            dx[1] = -x[0] - 0.3 * x[1];
        });
        let mut fresh = StateVec::from([1.0, -0.5]);
        let mut reused = fresh.clone();
        let mut workspace = Rk4Workspace::new(2);
        for k in 0..50 {
            let t = 0.05 * k as f64;
            Rk4::step_in_place(&sys, t, &mut fresh, 0.05);
            Rk4::step_in_place_with(&sys, t, &mut reused, 0.05, &mut workspace);
            for i in 0..2 {
                assert_eq!(fresh[i].to_bits(), reused[i].to_bits());
            }
        }
    }

    #[test]
    fn oscillator_conserves_energy_approximately() {
        let sys = FnSystem::new(2, |_t, x: &StateVec, dx: &mut StateVec| {
            dx[0] = x[1];
            dx[1] = -x[0];
        });
        let traj = Rk4::with_step(1e-3)
            .integrate(
                &sys,
                0.0,
                StateVec::from([1.0, 0.0]),
                2.0 * std::f64::consts::PI,
            )
            .unwrap();
        let end = traj.last_state();
        assert!((end[0] - 1.0).abs() < 1e-6);
        assert!(end[1].abs() < 1e-6);
    }

    #[test]
    fn trajectory_times_cover_the_whole_interval() {
        let sys = FnSystem::new(1, |_t, _x: &StateVec, dx: &mut StateVec| dx[0] = 1.0);
        let traj = Rk4::with_step(0.3)
            .integrate(&sys, 0.0, StateVec::from([0.0]), 1.0)
            .unwrap();
        assert!((traj.first_time() - 0.0).abs() < 1e-15);
        assert!((traj.last_time() - 1.0).abs() < 1e-15);
        // end state equals elapsed time for ẋ = 1
        assert!((traj.last_state()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_backwards_integration() {
        let sys = FnSystem::new(1, |_t, _x: &StateVec, dx: &mut StateVec| dx[0] = 1.0);
        assert!(Rk4::default()
            .integrate(&sys, 1.0, StateVec::from([0.0]), 0.0)
            .is_err());
    }
}
