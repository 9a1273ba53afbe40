//! Mean-field approximation of uncertain and imprecise stochastic models.
//!
//! This crate is the core of the reproduction of Bortolussi & Gast, *Mean
//! Field Approximation of Uncertain Stochastic Models* (DSN 2016). It builds
//! on the modelling substrate of [`mfu_ctmc`] and the numerical substrate of
//! [`mfu_num`] and provides the analyses the paper develops:
//!
//! * [`drift`] — the *imprecise drift* `f(x, ϑ)` (Definition 3) as a trait,
//!   with adapters for population models and plain closures;
//! * [`signal`] — deterministic parameter signals `ϑ(t)` used to select
//!   solutions of the differential inclusion;
//! * [`inclusion`] — the mean-field differential inclusion
//!   `ẋ ∈ F(x) = {f(x, ϑ) : ϑ ∈ Θ}` (Theorem 1) and its solutions under
//!   parameter signals;
//! * [`uncertain`] — the uncertain scenario (Corollary 1): parameter sweeps,
//!   envelopes over constant `ϑ`, and per-`ϑ` fixed points;
//! * [`hull`] — the differential-hull over-approximation (Section IV-B,
//!   Theorem 4);
//! * [`pontryagin`] — transient bounds via Pontryagin's maximum principle
//!   (Section IV-C): forward–backward sweeps, extremal bang-bang controls and
//!   linear templates;
//! * [`reachability`] — reach tubes `[x_i^min(t), x_i^max(t)]` over a time
//!   grid, combining the Pontryagin sweeps;
//! * [`templates`] — template-polyhedron refinement of the reachable set at a
//!   fixed time (the convex-polygon extension discussed in Section IV-C);
//! * [`asymptotic`] — boxes containing the asymptotic reachable set `A_F`
//!   (Theorem 2);
//! * [`birkhoff`] — the Birkhoff-centre construction for two-dimensional
//!   systems (Section V-C) used for the steady-state analysis (Theorems 2–3);
//! * [`robust`] — robust tuning of design parameters against worst-case
//!   imprecise behaviour (Section VI-C).
//!
//! Two infrastructure modules round the analyses out: [`artifact`] defines
//! the serializable [`artifact::BoundArtifact`] every bounding method can
//! produce (the shared currency of the CLI, the `mfu-serve` caches and the
//! benches), and [`json`] is the workspace's hand-rolled JSON
//! reader/writer backing it (the vendored `serde` is a no-op stub).
//!
//! # Quick start
//!
//! Bound the transient behaviour of a one-dimensional imprecise model:
//!
//! ```
//! use mfu_core::drift::FnDrift;
//! use mfu_core::pontryagin::{PontryaginOptions, PontryaginSolver};
//! use mfu_ctmc::params::ParamSpace;
//! use mfu_num::StateVec;
//!
//! // ẋ = -ϑ x with ϑ ∈ [1, 2]: at time 1 the reachable interval is
//! // [e^{-2}, e^{-1}] (attained by the constant extreme controls).
//! let theta = ParamSpace::single("rate", 1.0, 2.0)?;
//! let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
//!     dx[0] = -th[0] * x[0];
//! });
//! let solver = PontryaginSolver::new(PontryaginOptions::default());
//! let x0 = StateVec::from(vec![1.0]);
//! let hi = solver.maximize_coordinate(&drift, &x0, 1.0, 0)?;
//! let lo = solver.minimize_coordinate(&drift, &x0, 1.0, 0)?;
//! assert!((hi.objective_value() - (-1.0f64).exp()).abs() < 1e-3);
//! assert!((lo.objective_value() - (-2.0f64).exp()).abs() < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod error;

// the hull's scalar test oracle is also compiled into the root integration
// tests, so it names items by the `mfu_core::` paths both crates resolve
#[cfg(test)]
extern crate self as mfu_core;

pub mod artifact;
pub mod asymptotic;
pub mod birkhoff;
pub mod drift;
pub mod hull;
pub mod inclusion;
pub mod json;
pub mod pontryagin;
pub mod reachability;
pub mod robust;
pub mod signal;
pub mod templates;
pub mod uncertain;

pub use error::CoreError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
