//! Grünwald–Letnikov fractional stepper — the classical time-domain FDE
//! baseline.
//!
//! Discretizing `E·d^α x = A·x + B·u` with the GL difference yields
//!
//! ```text
//! (h^{−α}·E − A)·x_n = B·u(t_n) − h^{−α}·E·Σ_{k=1}^{n} w_k·x_{n−k}
//! ```
//!
//! — one sparse LU shared by all steps, but an `O(n·m²)` history
//! convolution, the same complexity class the paper credits OPM with (and
//! the reason frequency-domain methods were the status quo for FDEs).

use crate::result::TransientResult;
use crate::util::{add_b_u, factor_shifted, validate};
use crate::TransientError;
use opm_fracnum::GrunwaldCoefficients;
use opm_system::FractionalSystem;
use opm_waveform::InputSet;

/// Integrates a fractional descriptor system with the GL scheme from zero
/// initial conditions.
///
/// # Errors
/// [`TransientError`] on bad arguments or a singular iteration matrix.
pub fn gl_fractional(
    fsys: &FractionalSystem,
    inputs: &InputSet,
    t_end: f64,
    m: usize,
    store_states: bool,
) -> Result<TransientResult, TransientError> {
    let sys = fsys.system();
    let n = sys.order();
    validate(sys, inputs.len(), t_end, m, &vec![0.0; n])?;
    let h = t_end / m as f64;
    let scale = h.powf(-fsys.alpha());
    let lu = factor_shifted(sys, scale)?;
    let weights = GrunwaldCoefficients::new(fsys.alpha(), m + 1);

    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut conv = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut ew = vec![0.0; n];
    let mut times = Vec::with_capacity(m);
    let mut outputs: Vec<Vec<f64>> = vec![Vec::with_capacity(m); sys.num_outputs()];

    for step in 1..=m {
        let t = step as f64 * h;
        // conv = Σ_{k=1}^{step−1} w_k·x_{step−k}; history before t=0 is 0.
        // A plain loop on purpose: this baseline checks the OPM
        // fractional paths, so it shares none of their convolution code.
        conv.iter_mut().for_each(|v| *v = 0.0);
        for (k, x) in xs.iter().rev().enumerate() {
            let w = weights.weight(k + 1);
            for (c, xi) in conv.iter_mut().zip(x) {
                *c += w * xi;
            }
        }
        sys.e().mul_vec_into(&conv, &mut ew);
        rhs.iter_mut().for_each(|v| *v = 0.0);
        let u = inputs.eval(t);
        add_b_u(sys.b(), 1.0, &u, &mut rhs);
        for (r, e_val) in rhs.iter_mut().zip(&ew) {
            *r -= scale * e_val;
        }
        let x = lu.solve(&rhs);
        times.push(t);
        for (o, val) in sys.output(&x).into_iter().enumerate() {
            outputs[o].push(val);
        }
        xs.push(x);
    }
    Ok(TransientResult {
        times,
        outputs,
        states: if store_states { Some(xs) } else { None },
        num_solves: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_fracnum::mittag_leffler::ml_kernel;
    use opm_sparse::CooMatrix;
    use opm_system::DescriptorSystem;
    use opm_waveform::Waveform;

    fn scalar_fractional(alpha: f64, lambda: f64) -> FractionalSystem {
        let mut e = CooMatrix::new(1, 1);
        e.push(0, 0, 1.0);
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, lambda);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        FractionalSystem::new(
            alpha,
            DescriptorSystem::new(e.to_csr(), a.to_csr(), b.to_csr(), None).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn step_response_matches_mittag_leffler() {
        // d^α x = λx + u, u = 1, zero IC ⇒ x(t) = t^α·E_{α,α+1}(λt^α).
        let (alpha, lambda) = (0.5, -1.0);
        let sys = scalar_fractional(alpha, lambda);
        let u = InputSet::new(vec![Waveform::Dc(1.0)]);
        let m = 400;
        let r = gl_fractional(&sys, &u, 2.0, m, false).unwrap();
        for &probe in &[m / 4, m / 2, m - 1] {
            let t = r.times[probe];
            let want = ml_kernel(alpha, alpha + 1.0, lambda, t);
            let got = r.outputs[0][probe];
            assert!(
                (got - want).abs() < 2e-2 * want.abs().max(0.1),
                "t={t}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn alpha_one_reduces_to_backward_euler() {
        let sys = scalar_fractional(1.0, -2.0);
        let u = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r = gl_fractional(&sys, &u, 1.0, 50, false).unwrap();
        let be = crate::be::backward_euler(sys.system(), &u, 1.0, 50, &[0.0], false).unwrap();
        for (a, b) in r.outputs[0].iter().zip(&be.outputs[0]) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn first_order_accuracy_in_step() {
        let (alpha, lambda) = (0.5, -1.0);
        let sys = scalar_fractional(alpha, lambda);
        let u = InputSet::new(vec![Waveform::Dc(1.0)]);
        let exact = ml_kernel(alpha, alpha + 1.0, lambda, 1.0);
        let err = |m: usize| {
            let r = gl_fractional(&sys, &u, 1.0, m, false).unwrap();
            (r.outputs[0][m - 1] - exact).abs()
        };
        let e1 = err(200);
        let e2 = err(400);
        let rate = (e1 / e2).log2();
        assert!(rate > 0.6 && rate < 1.6, "GL order ≈ {rate}");
    }

    #[test]
    fn fractional_response_is_slower_than_exponential() {
        // Half-order relaxation has heavy tails: at large t the α = ½
        // response decays like t^{−1/2}, far above e^{−t}.
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let _ = u;
        let sys_half = scalar_fractional(0.5, -1.0);
        let sys_one = scalar_fractional(1.0, -1.0);
        let step = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r_half = gl_fractional(&sys_half, &step, 10.0, 500, false).unwrap();
        let r_one = gl_fractional(&sys_one, &step, 10.0, 500, false).unwrap();
        // Distance from final value 1: heavy tail ⇒ approaches slower.
        let gap_half = (1.0 - r_half.outputs[0][499]).abs();
        let gap_one = (1.0 - r_one.outputs[0][499]).abs();
        assert!(gap_half > 10.0 * gap_one, "{gap_half} vs {gap_one}");
    }
}
