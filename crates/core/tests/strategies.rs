//! The OPM strategies — linear (paper §III), fractional (§IV), multi-term,
//! second-order and the Kronecker / general-basis oracles — exercised
//! through the one solve entry point, `Simulation::plan → SimPlan`.
//!
//! Each test pins a numerical property of one column recurrence: agreement
//! with an analytic solution, an independent oracle or a sibling path,
//! convergence under refinement, or a descriptive rejection of bad input.

use opm_core::adaptive::{geometric_grid, AdaptiveOpmOptions};
use opm_core::engine::{factor_shifted_pencil, BlockColumnSweep};
use opm_core::general_basis::GeneralBasisPlan;
use opm_core::kron_solve::{kron_solve_fractional, kron_solve_linear, kron_solve_multiterm};
use opm_core::metrics::max_abs_diff;
use opm_core::{Method, OpmError, OpmResult, Simulation, SolveOptions};
use opm_fracnum::mittag_leffler::ml_kernel;
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem, SecondOrderSystem, Term};
use opm_waveform::{InputSet, Waveform};

fn scalar(a: f64) -> DescriptorSystem {
    let mut am = CooMatrix::new(1, 1);
    am.push(0, 0, a);
    let mut b = CooMatrix::new(1, 1);
    b.push(0, 0, 1.0);
    DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
}

fn scalar_fractional(alpha: f64, lambda: f64) -> FractionalSystem {
    FractionalSystem::new(alpha, scalar(lambda)).unwrap()
}

/// Columns of a coefficient stimulus (0 when there are none).
fn cols(u: &[Vec<f64>]) -> usize {
    u.first().map_or(0, Vec::len)
}

/// Linear OPM on a coefficient stimulus, `method` picking the column
/// recurrence.
fn linear(
    sys: &DescriptorSystem,
    u: &[Vec<f64>],
    t_end: f64,
    x0: &[f64],
    method: Method,
) -> Result<OpmResult, OpmError> {
    Simulation::from_system(sys.clone())
        .horizon(t_end)
        .initial_state(x0.to_vec())
        .plan(&SolveOptions::new().resolution(cols(u)).method(method))?
        .solve_coeffs(u)
}

fn fractional(fsys: &FractionalSystem, u: &[Vec<f64>], t_end: f64) -> Result<OpmResult, OpmError> {
    Simulation::from_fractional(fsys.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(cols(u)))?
        .solve_coeffs(u)
}

fn multiterm(
    mt: &MultiTermSystem,
    u: &[Vec<f64>],
    t_end: f64,
    method: Method,
) -> Result<OpmResult, OpmError> {
    Simulation::from_multiterm(mt.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(cols(u)).method(method))?
        .solve_coeffs(u)
}

fn second_order(
    sys: &SecondOrderSystem,
    inputs: &InputSet,
    t_end: f64,
    m: usize,
) -> Result<OpmResult, OpmError> {
    Simulation::from_second_order(sys.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))?
        .solve(inputs)
}

fn eye_term(alpha: f64) -> Term {
    Term {
        alpha,
        matrix: CsrMatrix::identity(1),
    }
}

fn scaled_term(alpha: f64, k: f64) -> Term {
    Term {
        alpha,
        matrix: CsrMatrix::identity(1).scale(k),
    }
}

// ---------------------------------------------------------------------------
// Linear (paper §III)
// ---------------------------------------------------------------------------

#[test]
fn step_response_matches_analytic_midpoints() {
    // ẋ = −x + 1 ⇒ x(t) = 1 − e^{−t}; coefficients ≈ midpoint values.
    let sys = scalar(-1.0);
    let m = 512;
    let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 2.0);
    let r = linear(&sys, &u, 2.0, &[0.0], Method::Auto).unwrap();
    for (j, &t) in r.midpoints().iter().enumerate().step_by(37) {
        let want = 1.0 - (-t).exp();
        assert!(
            (r.state_coeff(0, j) - want).abs() < 2e-5,
            "t={t}: {} vs {want}",
            r.state_coeff(0, j)
        );
    }
}

#[test]
fn accumulator_form_is_identical() {
    let sys = scalar(-2.5);
    let m = 64;
    let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.5, 0.0, 0.3)]).bpf_matrix(m, 3.0);
    let fast = linear(&sys, &u, 3.0, &[0.4], Method::Recurrence).unwrap();
    let acc = linear(&sys, &u, 3.0, &[0.4], Method::Accumulator).unwrap();
    for j in 0..m {
        assert!(
            (fast.state_coeff(0, j) - acc.state_coeff(0, j)).abs() < 1e-10,
            "column {j}"
        );
    }
}

#[test]
fn second_order_convergence_of_coefficients() {
    let sys = scalar(-1.0);
    let exact_avg = |a: f64, b: f64| {
        // average of 1 − e^{−t} over [a, b]
        1.0 - ((-a).exp() - (-b).exp()) / (b - a)
    };
    let err = |m: usize| {
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 1.0);
        let r = linear(&sys, &u, 1.0, &[0.0], Method::Auto).unwrap();
        let h = 1.0 / m as f64;
        (0..m)
            .map(|j| (r.state_coeff(0, j) - exact_avg(j as f64 * h, (j + 1) as f64 * h)).abs())
            .fold(0.0, f64::max)
    };
    let e1 = err(64);
    let e2 = err(128);
    let rate = (e1 / e2).log2();
    assert!((rate - 2.0).abs() < 0.2, "OPM order ≈ {rate}");
}

#[test]
fn nonzero_initial_condition() {
    // ẋ = −x, x(0) = 3 ⇒ averages of 3e^{−t}.
    let sys = scalar(-1.0);
    let m = 256;
    let u = InputSet::new(vec![Waveform::Dc(0.0)]).bpf_matrix(m, 2.0);
    let r = linear(&sys, &u, 2.0, &[3.0], Method::Auto).unwrap();
    for (j, &t) in r.midpoints().iter().enumerate().step_by(41) {
        let want = 3.0 * (-t).exp();
        assert!(
            (r.state_coeff(0, j) - want).abs() < 5e-5,
            "t={t}: {}",
            r.state_coeff(0, j)
        );
    }
}

#[test]
fn dae_algebraic_constraint_satisfied() {
    // [1 0; 0 0]·ẋ = [−1 0; 1 −1]x + [1; 0]u: x₂ = x₁ always.
    let mut e = CooMatrix::new(2, 2);
    e.push(0, 0, 1.0);
    let mut a = CooMatrix::new(2, 2);
    a.push(0, 0, -1.0);
    a.push(1, 0, 1.0);
    a.push(1, 1, -1.0);
    let mut b = CooMatrix::new(2, 1);
    b.push(0, 0, 1.0);
    let sys = DescriptorSystem::new(e.to_csr(), a.to_csr(), b.to_csr(), None).unwrap();
    let m = 64;
    let u = InputSet::new(vec![Waveform::step(0.1, 1.0)]).bpf_matrix(m, 1.0);
    let r = linear(&sys, &u, 1.0, &[0.0, 0.0], Method::Auto).unwrap();
    for j in 0..m {
        assert!(
            (r.state_coeff(0, j) - r.state_coeff(1, j)).abs() < 1e-12,
            "constraint violated at column {j}"
        );
    }
}

#[test]
fn argument_validation() {
    let sys = scalar(-1.0);
    let solve = |sys: &DescriptorSystem, u: &[Vec<f64>], t_end: f64, x0: &[f64]| {
        linear(sys, u, t_end, x0, Method::Auto)
    };
    assert!(solve(&sys, &[], 1.0, &[0.0]).is_err());
    assert!(solve(&sys, &[vec![]], 1.0, &[0.0]).is_err());
    assert!(solve(&sys, &[vec![1.0]], 1.0, &[0.0, 1.0]).is_err());
    assert!(solve(&sys, &[vec![1.0]], -1.0, &[0.0]).is_err());
    let two_rows = vec![vec![1.0, 2.0], vec![1.0]];
    let sys2 = {
        let mut b = CooMatrix::new(1, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 1.0);
        DescriptorSystem::new(
            CsrMatrix::identity(1),
            CsrMatrix::identity(1).scale(-1.0),
            b.to_csr(),
            None,
        )
        .unwrap()
    };
    assert!(solve(&sys2, &two_rows, 1.0, &[0.0]).is_err());
}

#[test]
fn singular_pencil_detected() {
    // E = 0, A singular ⇒ pencil σE − A singular.
    let e = CooMatrix::new(2, 2);
    let a = CooMatrix::new(2, 2);
    let mut b = CooMatrix::new(2, 1);
    b.push(0, 0, 1.0);
    let sys = DescriptorSystem::new(e.to_csr(), a.to_csr(), b.to_csr(), None).unwrap();
    let u = vec![vec![1.0, 1.0]];
    assert!(matches!(
        linear(&sys, &u, 1.0, &[0.0, 0.0], Method::Auto),
        Err(OpmError::SingularPencil(_))
    ));
}

#[test]
fn all_linear_methods_agree() {
    let sys = scalar(-2.0);
    let inputs = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.0, 0.0, 0.0)]);
    let m = 16;
    let sim = Simulation::from_system(sys).horizon(1.0);
    let solve = |opts: SolveOptions| sim.plan(&opts).unwrap().solve(&inputs).unwrap();
    let base = solve(SolveOptions::new().resolution(m));
    for method in [Method::Accumulator, Method::Convolution, Method::Kronecker] {
        let r = solve(SolveOptions::new().resolution(m).method(method));
        for j in 0..m {
            assert!(
                (r.state_coeff(0, j) - base.state_coeff(0, j)).abs() < 1e-9,
                "{method:?}, column {j}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fractional (paper §IV)
// ---------------------------------------------------------------------------

#[test]
fn alpha_one_reduces_to_linear_solver() {
    let fsys = scalar_fractional(1.0, -2.0);
    let m = 64;
    let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 2.0);
    let frac = fractional(&fsys, &u, 2.0).unwrap();
    let lin = linear(fsys.system(), &u, 2.0, &[0.0], Method::Auto).unwrap();
    for j in 0..m {
        assert!(
            (frac.state_coeff(0, j) - lin.state_coeff(0, j)).abs() < 1e-11,
            "column {j}"
        );
    }
}

#[test]
fn half_order_step_response_matches_mittag_leffler() {
    // d^½x = −x + 1 ⇒ x(t) = t^½·E_{½,3/2}(−t^½).
    let fsys = scalar_fractional(0.5, -1.0);
    let m = 512;
    let t_end = 2.0;
    let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, t_end);
    let r = fractional(&fsys, &u, t_end).unwrap();
    for (j, &t) in r.midpoints().iter().enumerate().skip(8).step_by(61) {
        let want = ml_kernel(0.5, 1.5, -1.0, t);
        let got = r.state_coeff(0, j);
        assert!(
            (got - want).abs() < 6e-3 * want.abs().max(0.1),
            "t={t}: {got} vs {want}"
        );
    }
}

#[test]
fn agrees_with_grunwald_letnikov_baseline() {
    let fsys = scalar_fractional(0.7, -1.5);
    let m = 256;
    let t_end = 1.5;
    let u_set = InputSet::new(vec![Waveform::sine(0.5, 0.5, 1.0, 0.0, 0.0)]);
    let u = u_set.bpf_matrix(m, t_end);
    let opm = fractional(&fsys, &u, t_end).unwrap();
    let gl = opm_transient::gl_fractional(&fsys, &u_set, t_end, m, false).unwrap();
    // GL samples endpoints, OPM gives interval averages: compare OPM
    // midpoint reconstruction against GL linear interpolation.
    let mut worst = 0.0f64;
    for (j, &t) in opm.midpoints().iter().enumerate().skip(4) {
        // GL endpoint k covers t_k = (k+1)·h.
        let h = t_end / m as f64;
        let k = (t / h).floor() as usize;
        let gl_mid = if k == 0 {
            0.5 * gl.outputs[0][0]
        } else {
            0.5 * (gl.outputs[0][k - 1] + gl.outputs[0][k.min(m - 1)])
        };
        worst = worst.max((opm.state_coeff(0, j) - gl_mid).abs());
    }
    assert!(worst < 2e-2, "OPM vs GL deviation {worst}");
}

#[test]
fn dae_fractional_line_is_solvable_and_stable() {
    // The Table I system: bounded response to a bounded pulse.
    let model = opm_circuits::tline::FractionalLineSpec::default().assemble();
    let t_end = 2.7e-9;
    let m = 64;
    let u = model.inputs.bpf_matrix(m, t_end);
    let r = fractional(&model.system, &u, t_end).unwrap();
    assert_eq!(r.num_intervals(), m);
    for o in 0..2 {
        for &v in r.output_row(o) {
            assert!(v.is_finite() && v.abs() < 1.0, "port current {v}");
        }
    }
    // Port 1 must actually react to the pulse.
    let peak = r
        .output_row(0)
        .iter()
        .fold(0.0f64, |mx, &v| mx.max(v.abs()));
    assert!(peak > 1e-4, "no response: peak {peak}");
}

#[test]
fn convergence_under_refinement() {
    let fsys = scalar_fractional(0.5, -1.0);
    let t_end = 1.0;
    // Exact *cell averages* of the ML kernel (compare like with like:
    // BPF coefficients are averages, and average ≠ midpoint at this
    // coarse cell width).
    let exact: Vec<f64> = (0..16)
        .map(|j| {
            let (a, b) = (j as f64 / 16.0, (j as f64 + 1.0) / 16.0);
            let samples = 64;
            (0..samples)
                .map(|s| {
                    let t = a + (b - a) * (s as f64 + 0.5) / samples as f64;
                    ml_kernel(0.5, 1.5, -1.0, t)
                })
                .sum::<f64>()
                / samples as f64
        })
        .collect();
    let err = |m: usize| {
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, t_end);
        let r = fractional(&fsys, &u, t_end).unwrap();
        let stride = m / 16;
        let coarse: Vec<f64> = (0..16)
            .map(|j| {
                // Average the fine coefficients inside each coarse cell.
                let lo = j * stride;
                (lo..lo + stride).map(|k| r.state_coeff(0, k)).sum::<f64>() / stride as f64
            })
            .collect();
        // Skip the first coarse cell: the √t derivative singularity at
        // t = 0 caps pointwise convergence there for any method that
        // does not build the singularity into its basis.
        max_abs_diff(&coarse[1..], &exact[1..])
    };
    let e1 = err(64);
    let e2 = err(256);
    assert!(
        e2 < 0.6 * e1,
        "no convergence: {e1} → {e2} (fractional kernels limit the rate)"
    );
}

#[test]
fn fractional_dispatch_and_grid() {
    let fsys = scalar_fractional(0.5, -1.0);
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
    let sim = Simulation::from_fractional(fsys).horizon(1.0);
    let uniform = sim
        .plan(&SolveOptions::new().resolution(32))
        .unwrap()
        .solve(&inputs)
        .unwrap();
    assert_eq!(uniform.num_intervals(), 32);
    let steps = geometric_grid(1.0, 16, 1.2);
    let graded = sim
        .plan(&SolveOptions::new().step_grid(steps))
        .unwrap()
        .solve(&inputs)
        .unwrap();
    assert_eq!(graded.num_intervals(), 16);
}

// ---------------------------------------------------------------------------
// Multi-term
// ---------------------------------------------------------------------------

#[test]
fn k1_fast_path_equals_linear_solver() {
    let sys = scalar(-1.7);
    let m = 64;
    let u = InputSet::new(vec![Waveform::sine(0.2, 1.0, 1.0, 0.0, 0.0)]).bpf_matrix(m, 2.0);
    let via_mt = multiterm(
        &MultiTermSystem::from_descriptor(&sys),
        &u,
        2.0,
        Method::Auto,
    )
    .unwrap();
    let via_lin = linear(&sys, &u, 2.0, &[0.0], Method::Auto).unwrap();
    for j in 0..m {
        assert!(
            (via_mt.state_coeff(0, j) - via_lin.state_coeff(0, j)).abs() < 1e-10,
            "column {j}"
        );
    }
}

#[test]
fn recurrence_and_convolution_paths_agree() {
    // Damped oscillator: ẍ + 0.4ẋ + 4x = u.
    let mt = MultiTermSystem::new(
        vec![eye_term(2.0), scaled_term(1.0, 0.4), scaled_term(0.0, 4.0)],
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let m = 96;
    let u = InputSet::new(vec![Waveform::step(0.0, 1.0)]).bpf_matrix(m, 6.0);
    let fast = multiterm(&mt, &u, 6.0, Method::Recurrence).unwrap();
    let slow = multiterm(&mt, &u, 6.0, Method::Convolution).unwrap();
    for j in 0..m {
        assert!(
            (fast.state_coeff(0, j) - slow.state_coeff(0, j)).abs() < 1e-8,
            "column {j}: {} vs {}",
            fast.state_coeff(0, j),
            slow.state_coeff(0, j)
        );
    }
}

#[test]
fn damped_oscillator_matches_companion_reference() {
    let omega2 = 4.0;
    let zeta_term = 0.4;
    let s = SecondOrderSystem::new(
        CsrMatrix::identity(1),
        CsrMatrix::identity(1).scale(zeta_term),
        CsrMatrix::identity(1).scale(omega2),
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let m = 1024;
    let t_end = 8.0;
    let u_set = InputSet::new(vec![Waveform::step(0.0, 1.0)]);
    let u = u_set.bpf_matrix(m, t_end);
    let opm = multiterm(&s.to_multiterm(), &u, t_end, Method::Auto).unwrap();
    let reference =
        opm_transient::expm_reference(&s.to_companion(), &u_set, t_end, m, &[0.0, 0.0]).unwrap();
    // Compare OPM midpoint coefficients against reference endpoint
    // averages (both second-order accurate representations).
    let mut worst = 0.0f64;
    for j in 1..m {
        let ref_mid = 0.5 * (reference.outputs[0][j - 1] + reference.outputs[0][j]);
        worst = worst.max((opm.state_coeff(0, j) - ref_mid).abs());
    }
    assert!(worst < 5e-4, "worst deviation {worst}");
}

#[test]
fn single_fractional_term_matches_fractional_solver() {
    let lambda = -1.0;
    let mt = MultiTermSystem::new(
        vec![eye_term(0.5), scaled_term(0.0, -lambda)],
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let fsys = scalar_fractional(0.5, lambda);
    let m = 128;
    let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 2.0);
    let via_mt = multiterm(&mt, &u, 2.0, Method::Auto).unwrap();
    let via_frac = fractional(&fsys, &u, 2.0).unwrap();
    for j in 0..m {
        assert!(
            (via_mt.state_coeff(0, j) - via_frac.state_coeff(0, j)).abs() < 1e-10,
            "column {j}"
        );
    }
}

#[test]
fn incommensurate_orders_run_and_stay_bounded() {
    // d^{1.5}x + d^{0.5}x + x = u — a genuine multi-term FDE.
    let mt = MultiTermSystem::new(
        vec![eye_term(1.5), eye_term(0.5), eye_term(0.0)],
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let m = 128;
    let u = InputSet::new(vec![Waveform::step(0.0, 1.0)]).bpf_matrix(m, 10.0);
    let r = multiterm(&mt, &u, 10.0, Method::Auto).unwrap();
    for j in 0..m {
        let v = r.state_coeff(0, j);
        assert!(v.is_finite() && v.abs() < 3.0, "column {j}: {v}");
    }
    // Must settle toward the static gain 1.
    assert!((r.state_coeff(0, m - 1) - 1.0).abs() < 0.2);
}

#[test]
fn recurrence_path_rejects_fractional() {
    let mt = MultiTermSystem::new(
        vec![eye_term(0.5), eye_term(0.0)],
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let u = vec![vec![1.0; 8]];
    assert!(multiterm(&mt, &u, 1.0, Method::Recurrence).is_err());
}

// ---------------------------------------------------------------------------
// Second-order nodal front end
// ---------------------------------------------------------------------------

#[test]
fn second_order_matches_manual_multiterm_plumbing() {
    use opm_circuits::grid::PowerGridSpec;
    use opm_circuits::na::assemble_na;
    let spec = PowerGridSpec {
        layers: 2,
        rows: 3,
        cols: 3,
        num_loads: 2,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[]).unwrap();
    let t_end = 5e-9;
    let m = 64;
    let direct = second_order(&na.system, &na.inputs, t_end, m).unwrap();
    let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
    let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
    let manual = multiterm(&na.system.to_multiterm(), &u_dot, t_end, Method::Auto).unwrap();
    for j in 0..m {
        for i in 0..na.system.order() {
            assert_eq!(direct.state_coeff(i, j), manual.state_coeff(i, j));
        }
    }
}

#[test]
fn second_order_damped_oscillator_step_response() {
    // ẍ + 2ζω ẋ + ω² x = ω²·u̇-free check: drive with a ramp u = t so
    // u̇ = 1 and the oscillator sees a constant force.
    let omega = 3.0;
    let zeta = 0.5;
    let sys = SecondOrderSystem::new(
        CsrMatrix::identity(1),
        CsrMatrix::identity(1).scale(2.0 * zeta * omega),
        CsrMatrix::identity(1).scale(omega * omega),
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let inputs = InputSet::new(vec![Waveform::Ramp { slope: 1.0 }]);
    let m = 2048;
    let t_end = 10.0;
    let r = second_order(&sys, &inputs, t_end, m).unwrap();
    // Steady state: x → 1/ω².
    let want = 1.0 / (omega * omega);
    let got = r.state_coeff(0, m - 1);
    assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    // Underdamped: the response overshoots its final value.
    let peak = (0..m).map(|j| r.state_coeff(0, j)).fold(0.0f64, f64::max);
    assert!(peak > 1.05 * want, "expected overshoot, peak {peak}");
}

#[test]
fn second_order_validation() {
    let sys = SecondOrderSystem::new(
        CsrMatrix::identity(1),
        CsrMatrix::identity(1),
        CsrMatrix::identity(1),
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let inputs = InputSet::new(vec![Waveform::Dc(0.0)]);
    assert!(second_order(&sys, &inputs, 1.0, 0).is_err());
    assert!(second_order(&sys, &inputs, -1.0, 8).is_err());
    let two = InputSet::new(vec![Waveform::Dc(0.0), Waveform::Dc(0.0)]);
    assert!(second_order(&sys, &two, 1.0, 8).is_err());
}

// ---------------------------------------------------------------------------
// Oracles: the Kronecker vec form and the general-basis integral form
// ---------------------------------------------------------------------------

#[test]
fn linear_fast_path_matches_oracle_exactly() {
    let sys = scalar(-1.3);
    let m = 24;
    let u = InputSet::new(vec![Waveform::pulse(0.0, 1.0, 0.1, 0.05, 0.3, 0.05, 0.0)])
        .bpf_matrix(m, 1.0);
    let oracle = kron_solve_linear(&sys, &u, 1.0).unwrap();
    let fast = linear(&sys, &u, 1.0, &[0.0], Method::Auto).unwrap();
    for j in 0..m {
        assert!(
            (oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-10,
            "column {j}: {} vs {}",
            oracle.state_coeff(0, j),
            fast.state_coeff(0, j)
        );
    }
}

#[test]
fn fractional_fast_path_matches_oracle_exactly() {
    let fsys = scalar_fractional(0.5, -1.0);
    let m = 16;
    let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 1.0);
    let oracle = kron_solve_fractional(&fsys, &u, 1.0).unwrap();
    let fast = fractional(&fsys, &u, 1.0).unwrap();
    for j in 0..m {
        assert!(
            (oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-9,
            "column {j}"
        );
    }
}

#[test]
fn multiterm_fast_path_matches_oracle_exactly() {
    let mt = MultiTermSystem::new(
        vec![eye_term(2.0), scaled_term(1.0, 0.3), scaled_term(0.0, 2.0)],
        CsrMatrix::identity(1),
        None,
    )
    .unwrap();
    let m = 20;
    let u = InputSet::new(vec![Waveform::step(0.0, 1.0)]).bpf_matrix(m, 4.0);
    let oracle = kron_solve_multiterm(&mt, &u, 4.0).unwrap();
    let fast = multiterm(&mt, &u, 4.0, Method::Auto).unwrap();
    for j in 0..m {
        assert!(
            (oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-8,
            "column {j}: {} vs {}",
            oracle.state_coeff(0, j),
            fast.state_coeff(0, j)
        );
    }
}

#[test]
fn tline_oracle_vs_fast_path() {
    // The Table I system at reduced m: n·m = 7·8 = 56 is oracle-sized.
    let model = opm_circuits::tline::FractionalLineSpec::default().assemble();
    let t_end = 2.7e-9;
    let m = 8;
    let u = model.inputs.bpf_matrix(m, t_end);
    let oracle = kron_solve_fractional(&model.system, &u, t_end).unwrap();
    let fast = fractional(&model.system, &u, t_end).unwrap();
    for j in 0..m {
        for i in 0..7 {
            let a = oracle.state_coeff(i, j);
            let b = fast.state_coeff(i, j);
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1.0),
                "state {i}, column {j}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn bpf_integral_form_matches_differential_fast_path() {
    let sys = scalar(-1.0);
    let m = 32;
    let basis = opm_basis::BpfBasis::new(m, 2.0);
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
    let gen = GeneralBasisPlan::new(&sys, &basis, &[0.5])
        .unwrap()
        .solve(&inputs)
        .unwrap();
    let u = inputs.bpf_matrix(m, 2.0);
    let fast = linear(&sys, &u, 2.0, &[0.5], Method::Auto).unwrap();
    for j in 0..m {
        assert!(
            (gen.x_coeffs.get(0, j) - fast.state_coeff(0, j)).abs() < 1e-9,
            "column {j}: {} vs {}",
            gen.x_coeffs.get(0, j),
            fast.state_coeff(0, j)
        );
    }
}

// ---------------------------------------------------------------------------
// Option validation and the column-sweep primitive
// ---------------------------------------------------------------------------

#[test]
fn descriptive_errors() {
    // Waveforms without resolution.
    let sim = Simulation::from_system(scalar(-1.0)).horizon(1.0);
    assert!(sim.plan(&SolveOptions::new()).is_err());
    // Nonzero ICs on a fractional problem.
    let simf = Simulation::from_fractional(scalar_fractional(0.5, -1.0))
        .horizon(1.0)
        .initial_state(vec![1.0]);
    assert!(simf.plan(&SolveOptions::new().resolution(8)).is_err());
}

#[test]
fn inapplicable_options_are_rejected_not_ignored() {
    let sim = Simulation::from_system(scalar(-1.0)).horizon(1.0);
    let simf = Simulation::from_fractional(scalar_fractional(0.5, -1.0)).horizon(1.0);
    // Nonzero ICs cannot ride the zero-IC strategies.
    for method in [Method::Convolution, Method::Kronecker] {
        assert!(
            sim.clone()
                .initial_state(vec![2.0])
                .plan(&SolveOptions::new().resolution(8).method(method))
                .is_err(),
            "{method:?} must reject nonzero x0"
        );
    }
    // Adaptive stepping is linear-only; step grids are fractional-only.
    assert!(simf
        .plan(
            &SolveOptions::new()
                .resolution(8)
                .adaptive(AdaptiveOpmOptions::default())
        )
        .is_err());
    assert!(sim
        .plan(&SolveOptions::new().step_grid(vec![0.5, 0.3, 0.2]))
        .is_err());
    // Method overrides cannot combine with adaptive solving.
    assert!(sim
        .plan(
            &SolveOptions::new()
                .adaptive(AdaptiveOpmOptions::default())
                .method(Method::Kronecker)
        )
        .is_err());
}

#[test]
fn sweep_counts_and_history() {
    let sys = scalar(-1.0);
    let lu = factor_shifted_pencil(sys.e(), sys.a(), 2.0).unwrap();
    let outcome = BlockColumnSweep::new(1, 4, 1).run(&lu, |j, history, rhs, _| {
        assert_eq!(history.len(), j);
        rhs[0] = 1.0;
    });
    assert_eq!(outcome.columns.len(), 4);
    assert_eq!(outcome.num_solves, 4);
}
