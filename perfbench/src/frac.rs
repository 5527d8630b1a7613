//! `frac_history`: the in-process session API on an R–CPE ladder
//! (fractional MNA, α = 0.5), windowed with full Caputo/GL history.
//!
//! Op `i` drives the ladder with `a_i·u₁ + b_i·u₂`, two seeded basis
//! stimuli mixed with seeded per-op weights. The system is linear, so
//! the oracle of every op is the same mix of two frequency-domain
//! solutions (`opm_fft::FftSimulator`, where `(jω)^α` is exact)
//! computed once in setup.

use std::fmt::Write as _;
use std::time::Instant;

use opm_core::{SimModel, SimPlan, Simulation, SolveOptions, WindowedOptions};
use opm_fft::FftSimulator;
use opm_waveform::{InputSet, Waveform};

use crate::stats::rel_err;
use crate::trace::Tracer;
use crate::workload::{jitter, rng_for, Counts, OpResult, Workload};

const SECTIONS: usize = 20;
const ALPHA: f64 = 0.5;
const RESOLUTION: usize = 64;
const WINDOWS: usize = 32;
const COLUMNS: usize = RESOLUTION * WINDOWS;
const HORIZON: f64 = 8.0;
const PROBES: [&str; 3] = ["n2", "n5", "n10"];
/// The frequency-domain oracle sees the stimulus followed by
/// `PADDING − 1` horizons of zero input, so the periodic extension it
/// assumes has decayed before the measured horizon repeats.
const PADDING: usize = 8;
/// Oracle samples per OPM interval.
const ORACLE_SAMPLES: usize = 2;
/// Largest accepted `max|y − y_ref| / max|y_ref|` (−50 dB).
pub const TOLERANCE: f64 = 0.00316;

pub struct Frac {
    plan: SimPlan,
    seed: u64,
    basis: [Vec<(f64, f64)>; 2],
    oracle: [Vec<Vec<f64>>; 2],
    order: usize,
}

fn ladder(seed: u64) -> String {
    let mut rng = rng_for(seed, 3, 0);
    let mut s = String::from("* seeded R-CPE ladder\nV1 in 0 DC 0\n");
    let mut prev = "in".to_string();
    for k in 1..=SECTIONS {
        let node = format!("n{k}");
        let _ = writeln!(s, "R{k} {prev} {node} {:?}", jitter(&mut rng, 1.0, 0.2));
        let _ = writeln!(
            s,
            "P{k} {node} 0 CPE {:?} {ALPHA:?}",
            jitter(&mut rng, 1.0, 0.2)
        );
        prev = node;
    }
    let _ = writeln!(s, "RL {prev} 0 {:?}", jitter(&mut rng, 2.0, 0.2));
    s.push_str(".end\n");
    s
}

/// Two piecewise-linear basis stimuli of zero net area that return to
/// zero inside the first half of the horizon: a doublet and a pair of
/// opposite trapezoids. Zero area makes the response decay like
/// `t^{−α−2}` rather than `t^{−α−1}`, which keeps the oracle's periodic
/// wrap-around small.
fn basis(seed: u64) -> [Vec<(f64, f64)>; 2] {
    let mut rng = rng_for(seed, 4, 0);
    // Narrow timing jitter: the edges set the oracle's wrap-around
    // error, so `err_db` then varies little from seed to seed.
    let mut t = |x: f64| jitter(&mut rng, x * HORIZON, 0.1);
    let (t0, rise, cross) = (t(0.05), t(0.04), t(0.08));
    let doublet = vec![
        (0.0, 0.0),
        (t0, 0.0),
        (t0 + rise, 1.0),
        (t0 + rise + cross, -1.0),
        (t0 + 2.0 * rise + cross, 0.0),
    ];
    let (t0, edge, width, gap) = (t(0.02), t(0.03), t(0.1), t(0.05));
    let lobe = |start: f64, level: f64| {
        [
            (start, 0.0),
            (start + edge, level),
            (start + edge + width, level),
            (start + 2.0 * edge + width, 0.0),
        ]
    };
    let mut pair = vec![(0.0, 0.0)];
    pair.extend(lobe(t0, 1.0));
    pair.extend(lobe(t0 + 2.0 * edge + width + gap, -1.0));
    [doublet, pair]
}

/// `a·p + b·q` as one PWL: both are linear between the merged
/// breakpoints, so the mix is exact.
fn mix(p: &[(f64, f64)], q: &[(f64, f64)], a: f64, b: f64) -> Waveform {
    let (wp, wq) = (pwl(p), pwl(q));
    let mut ts: Vec<f64> = p.iter().chain(q).map(|&(t, _)| t).collect();
    ts.sort_by(f64::total_cmp);
    ts.dedup();
    pwl(&ts
        .into_iter()
        .map(|t| (t, a * wp.eval(t) + b * wq.eval(t)))
        .collect::<Vec<_>>())
}

fn pwl(points: &[(f64, f64)]) -> Waveform {
    Waveform::pwl(points.to_vec()).expect("generated breakpoints are finite")
}

/// Per-op mixing weights.
fn weights(seed: u64, i: u64) -> (f64, f64) {
    let mut rng = rng_for(seed, 5, i);
    (jitter(&mut rng, 1.0, 0.5), jitter(&mut rng, 1.0, 0.5))
}

impl Frac {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let sim = Simulation::from_netlist(&ladder(seed), &PROBES)
            .map_err(|e| e.to_string())?
            .horizon(HORIZON);
        let SimModel::Fractional(fsys) = sim.model() else {
            return Err("the R-CPE ladder did not assemble as a fractional system".into());
        };
        let basis = basis(seed);
        let samples = PADDING * COLUMNS * ORACLE_SAMPLES;
        let oracle = [0, 1].map(|k| {
            let r = FftSimulator::new(samples).simulate(
                fsys,
                &InputSet::new(vec![pwl(&basis[k])]),
                PADDING as f64 * HORIZON,
            );
            // Trapezoidal interval averages of the samples.
            r.outputs
                .iter()
                .map(|row| {
                    (0..COLUMNS)
                        .map(|j| {
                            let s = &row[j * ORACLE_SAMPLES..=(j + 1) * ORACLE_SAMPLES];
                            let inner: f64 = s[1..ORACLE_SAMPLES].iter().sum();
                            (inner + 0.5 * (s[0] + s[ORACLE_SAMPLES])) / ORACLE_SAMPLES as f64
                        })
                        .collect()
                })
                .collect()
        });
        let plan = sim
            .plan(&SolveOptions::new().resolution(RESOLUTION))
            .map_err(|e| e.to_string())?;
        let mut frac = Frac {
            plan,
            seed,
            basis,
            oracle,
            order: sim.order(),
        };
        // Warm-up builds the window kernel.
        frac.op(0).check?;
        Ok(frac)
    }

    fn inputs(&self, i: u64) -> (InputSet, (f64, f64)) {
        let (a, b) = weights(self.seed, i);
        let u = mix(&self.basis[0], &self.basis[1], a, b);
        (InputSet::new(vec![u]), (a, b))
    }

    fn check(&self, outputs: &[Vec<f64>], (a, b): (f64, f64)) -> Result<f64, String> {
        let want: Vec<Vec<f64>> = self.oracle[0]
            .iter()
            .zip(&self.oracle[1])
            .map(|(p, q)| p.iter().zip(q).map(|(x, y)| a * x + b * y).collect())
            .collect();
        let e = rel_err(outputs, &want);
        if e.is_finite() && e <= TOLERANCE {
            Ok(e)
        } else {
            Err(format!(
                "relative error {e:e} against the oracle exceeds {TOLERANCE}"
            ))
        }
    }
}

impl Workload for Frac {
    fn rotation(&self) -> u64 {
        1
    }

    fn op(&mut self, i: u64) -> OpResult {
        let (inputs, ab) = self.inputs(i);
        let t = Instant::now();
        let r = self
            .plan
            .solve_windowed_opts(&inputs, &WindowedOptions::new(WINDOWS));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let check = r
            .map_err(|e| e.to_string())
            .and_then(|r| self.check(&r.outputs, ab));
        OpResult { wall_ms, check }
    }

    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Counts, String> {
        let (inputs, ab) = self.inputs(i);
        let plan = &self.plan;
        let (r, before, after) = tr.span("op", |tr| {
            let before = plan.factor_profile();
            let r = tr.span("sweep.solve", |_| {
                plan.solve_windowed_opts(&inputs, &WindowedOptions::new(WINDOWS))
            });
            (r, before, plan.factor_profile())
        });
        let r = r.map_err(|e| e.to_string())?;
        self.check(&r.outputs, ab)?;
        Ok(Counts::from_profiles(&before, &after, COLUMNS))
    }

    /// `history_convolution_into` over the carried tail: column `j` of
    /// window `w` weighs all `w·m` earlier-window columns, `n` entries
    /// each, one lane: `n·m²·W(W−1)/2`.
    fn history_macs_per_op(&self) -> f64 {
        let (n, m, w) = (self.order as f64, RESOLUTION as f64, WINDOWS as f64);
        n * m * m * w * (w - 1.0) / 2.0
    }
}
