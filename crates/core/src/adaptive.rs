//! Adaptive-step OPM (paper §III-B and Eq. 25).
//!
//! **Linear systems** adapt on the fly: the accumulator column solve
//! `(2/h_j·E − A)·z_j = B·ū_j + c − (4/h_j)·E·g_j` only involves the
//! *current* step `h_j` (the alternating accumulator
//! `g_{j+1} = −(g_j + z_j)` is step-free), so a rejected column is simply
//! re-solved with a smaller `h_j` — the paper's "time step determined on
//! the fly by some error control mechanism". Steps live on a power-of-two
//! lattice to bound the number of LU factorizations.
//!
//! **Fractional systems** couple all steps through `D̃^α` (Eq. 25), so
//! adaptivity uses a caller-chosen *distinct-step grid* (e.g.
//! [`geometric_grid`]) and the incremental Parlett recurrence from
//! `opm-basis` to grow `D̃^α` column by column. Each column has its own
//! diagonal `(2/h_j)^α`, hence its own factorization — the
//! eigendecomposition route of the paper has the same property.

use crate::engine::{apply_b, apply_b_column, reconstruct_outputs, FactorCache, PencilFamily};
use crate::metrics::FactorProfile;
use crate::result::OpmResult;
use crate::OpmError;
use opm_basis::adaptive::AdaptiveBpf;
use opm_basis::traits::Basis;
use opm_sparse::SparseLu;
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::InputSet;

/// Options for adaptive linear stepping ([`crate::SolveOptions::adaptive`]).
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveOpmOptions {
    /// Predictor–corrector LTE tolerance (per column, ∞-norm).
    pub tol: f64,
    /// Initial step.
    pub h0: f64,
    /// Smallest step.
    pub h_min: f64,
    /// Largest step.
    pub h_max: f64,
}

impl Default for AdaptiveOpmOptions {
    fn default() -> Self {
        AdaptiveOpmOptions {
            tol: 1e-6,
            h0: 1e-3,
            h_min: 1e-12,
            h_max: 0.25,
        }
    }
}

fn quantize(h: f64) -> f64 {
    2.0f64.powi(h.log2().round() as i32)
}

/// Adaptive-step OPM for linear descriptor systems — what the
/// [`crate::SimPlan`] adaptive kind drives. The power-of-two step-lattice
/// factorizations persist in the caller-owned `factors`, so every
/// scenario solved through one plan reuses the pencils earlier scenarios
/// already factored; the result counts only the factorizations *this*
/// call added.
pub(crate) fn linear_adaptive_with(
    sys: &DescriptorSystem,
    inputs: &InputSet,
    t_end: f64,
    x0: &[f64],
    opts: AdaptiveOpmOptions,
    factors: &mut FactorCache,
) -> Result<OpmResult, OpmError> {
    let n = sys.order();
    let factorizations_before = factors.num_factorizations();
    if inputs.len() != sys.num_inputs() {
        return Err(OpmError::BadArguments("input channel mismatch".into()));
    }
    if x0.len() != n {
        return Err(OpmError::BadArguments("x0 length mismatch".into()));
    }
    if !(opts.h0 > 0.0 && opts.h_min > 0.0 && opts.h_max >= opts.h0 && t_end > 0.0) {
        return Err(OpmError::BadArguments("inconsistent step options".into()));
    }

    let mut num_solves = 0usize;
    let shift = x0.iter().any(|&v| v != 0.0);
    let c_force = if shift {
        sys.a().mul_vec(x0)
    } else {
        vec![0.0; n]
    };

    let solve_column = |h: f64,
                        t0: f64,
                        g: &[f64],
                        factors: &mut FactorCache,
                        num_solves: &mut usize|
     -> Result<Vec<f64>, OpmError> {
        let exp = h.log2().round() as i32;
        let lu = factors.get(exp)?;
        let hq = 2.0f64.powi(exp);
        let mut rhs = vec![0.0; n];
        // B·ū over [t0, t0+h] + c − (4/h)·E·g.
        let u_avg: Vec<f64> = inputs
            .channels()
            .iter()
            .map(|w| w.average(t0, t0 + hq))
            .collect();
        apply_b_column(sys.b(), &u_avg, 1.0, &mut rhs);
        if shift {
            for (r, c) in rhs.iter_mut().zip(&c_force) {
                *r += c;
            }
        }
        let mut eg = vec![0.0; n];
        sys.e().mul_vec_into(g, &mut eg);
        for (r, w) in rhs.iter_mut().zip(&eg) {
            *r -= 4.0 / hq * w;
        }
        *num_solves += 1;
        Ok(lu.solve(&rhs))
    };

    let mut t = 0.0;
    let mut h = quantize(opts.h0);
    let mut g = vec![0.0; n];
    let mut bounds = vec![0.0];
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut prev: Option<(Vec<f64>, f64)> = None; // (z_{j−1}, h_{j−1})
    let mut accepted_run = 0usize;

    while t < t_end - 1e-12 * t_end {
        h = h.min(quantize(opts.h_max)).max(quantize(opts.h_min));
        while t + h > t_end * (1.0 + 1e-12) && h > opts.h_min {
            h *= 0.5;
        }
        let z = solve_column(h, t, &g, factors, &mut num_solves)?;
        // Predictor: linear extrapolation of the last column pair.
        let est = match (&prev, columns.len()) {
            (Some((z1, h1)), len) if len >= 2 => {
                let z2 = &columns[len - 2];
                let x1: Vec<f64> = if shift {
                    z1.iter().zip(x0).map(|(a, b)| a - b).collect()
                } else {
                    z1.clone()
                };
                let x2: Vec<f64> = if shift {
                    z2.iter().zip(x0).map(|(a, b)| a - b).collect()
                } else {
                    z2.clone()
                };
                let factor = (h + h1) / (2.0 * h1.max(1e-300));
                z.iter()
                    .zip(&x1)
                    .zip(&x2)
                    .map(|((zj, a), b)| (zj - (a + (a - b) * factor)).abs())
                    .fold(0.0, f64::max)
            }
            _ => 0.0, // accept the first two columns unconditionally
        };

        if est <= opts.tol || h * 0.5 < opts.h_min {
            t += h;
            bounds.push(t);
            // Update accumulator and store the *unshifted* state x = z+x0.
            for (gi, zi) in g.iter_mut().zip(&z) {
                *gi = -(*gi + zi);
            }
            let x: Vec<f64> = if shift {
                z.iter().zip(x0).map(|(a, b)| a + b).collect()
            } else {
                z.clone()
            };
            prev = Some((x.clone(), h));
            columns.push(x);
            accepted_run += 1;
            if est < 0.25 * opts.tol && accepted_run >= 3 && h * 2.0 <= opts.h_max {
                h *= 2.0;
                accepted_run = 0;
            }
        } else {
            h *= 0.5;
            accepted_run = 0;
        }
    }

    let outputs = reconstruct_outputs(sys, &columns);
    Ok(OpmResult {
        bounds,
        columns,
        outputs,
        num_solves,
        num_factorizations: factors.num_factorizations() - factorizations_before,
    })
}

/// A strictly geometric step profile: `h_{j+1} = ratio·h_j`, scaled so the
/// steps sum to `t_end`. All steps are pairwise distinct for `ratio ≠ 1`,
/// satisfying the Parlett/eigendecomposition requirement.
///
/// # Panics
/// Panics when `m == 0`, `ratio <= 0` or `ratio == 1`.
pub fn geometric_grid(t_end: f64, m: usize, ratio: f64) -> Vec<f64> {
    assert!(m > 0 && ratio > 0.0 && ratio != 1.0);
    let total: f64 = (0..m).map(|j| ratio.powi(j as i32)).sum();
    (0..m)
        .map(|j| t_end * ratio.powi(j as i32) / total)
        .collect()
}

/// Stimulus-independent data of a distinct-step fractional solve —
/// `E X D̃^α = A X + B U` on a caller-chosen grid of pairwise-distinct
/// steps, `D̃^α` grown by the incremental Parlett recurrence: the
/// upper-triangular columns of `D̃^α` plus one pencil factorization per
/// column. Built once by [`prepare_step_grid`] (the plan layer caches it
/// across scenarios), consumed by [`sweep_step_grid`].
pub(crate) struct StepGridFactors {
    /// `f_cols[j][i] = D̃^α[i, j]` for `i ≤ j`.
    f_cols: Vec<Vec<f64>>,
    /// Factorization of `(D̃^α[j,j]·E − A)` per column.
    lus: Vec<SparseLu>,
    /// Symbolic/numeric split of the factorization work above.
    profile: FactorProfile,
}

impl StepGridFactors {
    pub(crate) fn num_factorizations(&self) -> usize {
        self.lus.len()
    }

    pub(crate) fn profile(&self) -> FactorProfile {
        self.profile
    }
}

/// Builds and factors every per-column pencil of a distinct-step grid —
/// the expensive half of a step-grid solve, independent of the
/// stimulus. All columns share one [`PencilFamily`] (pattern,
/// ordering and symbolic analysis paid once), and the per-column numeric
/// refactorizations — independent of each other — run in parallel on the
/// [`opm_par::default_threads`] workers. Note this *prepare-time*
/// parallelism is governed solely by `OPM_THREADS` (it happens inside
/// `Simulation::plan`, before any solve-time thread count is known);
/// set `OPM_THREADS=1` to keep plan construction serial.
///
/// # Errors
/// [`OpmError::ConfluentSteps`] when two steps coincide (or nearly do);
/// [`OpmError::SingularPencil`] when some column's pencil is singular.
pub(crate) fn prepare_step_grid(
    fsys: &FractionalSystem,
    grid: &AdaptiveBpf,
) -> Result<StepGridFactors, OpmError> {
    let sys = fsys.system();
    let m = grid.dim();

    // The scalar Parlett recurrence (like the paper's eigendecomposition)
    // loses accuracy when many steps are nearly equal: divided differences
    // compound by factors ~1/(d_i − d_j). Entries of D̃^α should stay
    // comparable to the diagonal scale; growth beyond this ratio marks a
    // numerically meaningless result and is rejected loudly.
    const CONDITION_LIMIT: f64 = 1e8;

    let mut inc = AdaptiveBpf::incremental_frac_diff(fsys.alpha(), m);
    let mut f_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut diags: Vec<f64> = Vec::with_capacity(m);
    for j in 0..m {
        inc.append_column(&grid.diff_column(j))
            .map_err(|e| OpmError::ConfluentSteps(format!("{e}")))?;
        let diag_scale = inc.value(j, j).abs().max(inc.value(0, 0).abs());
        for i in 0..j {
            if inc.value(i, j).abs() > CONDITION_LIMIT * diag_scale {
                return Err(OpmError::ConfluentSteps(format!(
                    "D̃^α entry ({i},{j}) grew to {:.2e} (diagonal scale {:.2e}); \
                     steps too close for a stable fractional power — use fewer \
                     columns or a larger step ratio",
                    inc.value(i, j).abs(),
                    diag_scale
                )));
            }
        }
        f_cols.push((0..=j).map(|i| inc.value(i, j)).collect());
        diags.push(inc.value(j, j));
    }

    // (F[j,j]·E − A)·x_j = B·u_j − E·Σ_{i<j} F[i,j]·x_i — one pencil per
    // column, all on one pattern: analyze once, refactor the rest.
    let mut family = PencilFamily::new(sys.e(), sys.a());
    let lus = family
        .factor_all(&diags, opm_par::default_threads())
        .map_err(|(j, e)| match e {
            OpmError::SingularPencil(s) => OpmError::SingularPencil(format!("column {j}: {s}")),
            other => other,
        })?;
    Ok(StepGridFactors {
        f_cols,
        lus,
        profile: family.profile(),
    })
}

/// Runs the distinct-step column sweep against prefactored pencils — the
/// cheap, per-stimulus half of a step-grid solve.
///
/// # Errors
/// [`OpmError::BadArguments`] on channel mismatches.
pub(crate) fn sweep_step_grid(
    fsys: &FractionalSystem,
    grid: &AdaptiveBpf,
    factors: &StepGridFactors,
    inputs: &InputSet,
) -> Result<OpmResult, OpmError> {
    let sys = fsys.system();
    let n = sys.order();
    if inputs.len() != sys.num_inputs() {
        return Err(OpmError::BadArguments("input channel mismatch".into()));
    }
    let m = grid.dim();
    let u = inputs.averages_on_grid(grid.bounds());

    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(m);
    for j in 0..m {
        let fc = &factors.f_cols[j];
        let mut acc = vec![0.0; n];
        for (i, xi) in columns.iter().enumerate() {
            let f = fc[i];
            if f != 0.0 {
                for (a, x) in acc.iter_mut().zip(xi) {
                    *a += f * x;
                }
            }
        }
        let mut rhs = vec![0.0; n];
        apply_b(sys.b(), &u, j, 1.0, &mut rhs);
        let mut ea = vec![0.0; n];
        sys.e().mul_vec_into(&acc, &mut ea);
        for (r, w) in rhs.iter_mut().zip(&ea) {
            *r -= w;
        }
        columns.push(factors.lus[j].solve(&rhs));
    }

    let outputs = reconstruct_outputs(sys, &columns);
    Ok(OpmResult {
        bounds: grid.bounds().to_vec(),
        columns,
        outputs,
        num_solves: m,
        num_factorizations: factors.num_factorizations(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, SolveOptions};
    use opm_fracnum::mittag_leffler::ml_kernel;
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_waveform::Waveform;

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    fn solve_linear_adaptive(
        sys: &DescriptorSystem,
        inputs: &InputSet,
        t_end: f64,
        opts: AdaptiveOpmOptions,
    ) -> OpmResult {
        Simulation::from_system(sys.clone())
            .horizon(t_end)
            .plan(&SolveOptions::new().adaptive(opts))
            .unwrap()
            .solve(inputs)
            .unwrap()
    }

    fn solve_step_grid(
        fsys: &FractionalSystem,
        steps: Vec<f64>,
        inputs: &InputSet,
    ) -> Result<OpmResult, OpmError> {
        let t_end = steps.iter().sum();
        Simulation::from_fractional(fsys.clone())
            .horizon(t_end)
            .plan(&SolveOptions::new().step_grid(steps))?
            .solve(inputs)
    }

    #[test]
    fn adaptive_linear_tracks_analytic_solution() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r = solve_linear_adaptive(
            &sys,
            &inputs,
            2.0,
            AdaptiveOpmOptions {
                tol: 1e-7,
                h0: 1.0 / 64.0,
                ..Default::default()
            },
        );
        // Check interval averages against the analytic averages.
        for (j, w) in r.bounds.windows(2).enumerate().step_by(5) {
            let (a, b) = (w[0], w[1]);
            let want = 1.0 - ((-a).exp() - (-b).exp()) / (b - a);
            let got = r.state_coeff(0, j);
            assert!((got - want).abs() < 1e-4, "[{a},{b}]: {got} vs {want}");
        }
        assert!((r.bounds.last().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_spends_columns_where_the_action_is() {
        // Fast pulse at t < 0.1, then quiet until t = 4.
        let sys = scalar(-30.0);
        let inputs = InputSet::new(vec![Waveform::pulse(
            0.0, 1.0, 0.01, 0.005, 0.05, 0.005, 0.0,
        )]);
        let r = solve_linear_adaptive(
            &sys,
            &inputs,
            4.0,
            AdaptiveOpmOptions {
                tol: 1e-5,
                h0: 1.0 / 256.0,
                h_min: 1e-9,
                h_max: 0.5,
            },
        );
        let early = r.bounds.iter().filter(|&&t| t <= 0.4).count();
        let late = r.bounds.iter().filter(|&&t| t > 2.0).count();
        assert!(
            early > 3 * late,
            "early {early} vs late {late}: no adaptation"
        );
        // And fewer factorizations than columns (lattice reuse).
        assert!(r.num_factorizations < r.num_intervals() / 2);
    }

    #[test]
    fn geometric_grid_sums_and_is_distinct() {
        let g = geometric_grid(1.0, 10, 1.3);
        let total: f64 = g.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn fractional_adaptive_matches_mittag_leffler() {
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let steps = geometric_grid(2.0, 32, 1.15);
        let grid = AdaptiveBpf::new(steps.clone());
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r = solve_step_grid(&fsys, steps, &inputs).unwrap();
        for (j, &t) in grid.midpoints().iter().enumerate().skip(5).step_by(4) {
            let want = ml_kernel(0.5, 1.5, -1.0, t);
            let got = r.state_coeff(0, j);
            assert!(
                (got - want).abs() < 3e-2 * want.abs().max(0.1),
                "t={t}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn fractional_adaptive_matches_dense_oracle() {
        use opm_linalg::kron::{kron, unvec, vec_of};
        use opm_linalg::DMatrix;
        let fsys = FractionalSystem::new(0.5, scalar(-2.0)).unwrap();
        let steps = geometric_grid(1.0, 12, 1.15);
        let grid = AdaptiveBpf::new(steps.clone());
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let fast = solve_step_grid(&fsys, steps, &inputs).unwrap();

        // Dense oracle: (D̃^αᵀ ⊗ E − I ⊗ A)·vec X = vec(B U).
        let d_alpha = grid.frac_diff_matrix(0.5).unwrap();
        let (e, a, b) = fsys.system().to_dense();
        let m = grid.dim();
        let big = kron(&d_alpha.transpose(), &e).sub(&kron(&DMatrix::identity(m), &a));
        let u = inputs.averages_on_grid(grid.bounds());
        let bu = b.mul_mat(&DMatrix::from_fn(1, m, |_, j| u[0][j]));
        let x = big.factor_lu().unwrap().solve(&vec_of(&bu));
        let xm = unvec(&x, 1, m);
        for j in 0..m {
            assert!(
                (fast.state_coeff(0, j) - xm.get(0, j)).abs() < 1e-9,
                "column {j}: {} vs {}",
                fast.state_coeff(0, j),
                xm.get(0, j)
            );
        }
    }

    #[test]
    fn fractional_adaptive_rejects_equal_steps() {
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        assert!(matches!(
            solve_step_grid(&fsys, vec![0.1, 0.2, 0.1], &inputs),
            Err(OpmError::ConfluentSteps(_))
        ));
    }
}
