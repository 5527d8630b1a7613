//! `newton_chain`: `SimPlan::solve_newton_windowed` on a diode-clamped
//! RC chain. Every Newton iteration is a numeric refactorization of the
//! plan's one symbolic LU analysis, with few solves per factor.
//!
//! The drive is a seeded pulse; every op solves it again. The oracle is
//! `opm_transient::newton_be_richardson` (dense Newton–backward-Euler
//! with Richardson extrapolation), computed once in setup.

use std::fmt::Write as _;
use std::time::Instant;

use opm_circuits::mna::assemble_nonlinear_mna;
use opm_circuits::parser::parse_netlist;
use opm_core::{NewtonOptions, OpmResult, SimPlan, Simulation, SolveOptions};
use opm_transient::newton_be_richardson;
use opm_waveform::InputSet;

use crate::stats::rel_err;
use crate::trace::Tracer;
use crate::workload::{jitter, rng_for, Counts, OpResult, Workload};

const NODES: usize = 200;
const DIODE_EVERY: usize = 10;
const RESOLUTION: usize = 128;
const WINDOWS: usize = 4;
const COLUMNS: usize = RESOLUTION * WINDOWS;
const HORIZON: f64 = 2e-5;
const PROBES: [&str; 4] = ["n1", "n10", "n20", "n40"];
/// Largest accepted `max|y − y_ref| / max|y_ref|` (−40 dB).
pub const TOLERANCE: f64 = 0.01;

pub struct Newton {
    plan: SimPlan,
    inputs: InputSet,
    /// State index of each probe and the oracle's endpoint series.
    probes: Vec<usize>,
    oracle: Vec<Vec<f64>>,
}

fn chain(seed: u64) -> String {
    let mut rng = rng_for(seed, 6, 0);
    let mut s = String::from("* seeded diode-clamped RC chain\n");
    // The pulse edges set the OPM error, so their seeded spread is kept
    // narrow: `err_db` then varies little from seed to seed.
    let _ = writeln!(
        s,
        "V1 in 0 PULSE(0 {:?} {:?} {:?} {:?} {:?} 0)",
        jitter(&mut rng, 2.5, 0.1),
        jitter(&mut rng, 1e-6, 0.2),
        jitter(&mut rng, 1e-6, 0.1),
        jitter(&mut rng, 8e-6, 0.1),
        jitter(&mut rng, 1e-6, 0.1),
    );
    let mut prev = "in".to_string();
    for k in 1..=NODES {
        let node = format!("n{k}");
        let _ = writeln!(s, "R{k} {prev} {node} {:?}", jitter(&mut rng, 1e3, 0.2));
        let _ = writeln!(s, "C{k} {node} 0 {:?}", jitter(&mut rng, 1e-9, 0.2));
        if k % DIODE_EVERY == 1 {
            let _ = writeln!(s, "D{k} {node} 0 1e-14");
        }
        prev = node;
    }
    s.push_str(".end\n");
    s
}

impl Newton {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let netlist = chain(seed);
        let sim = Simulation::from_netlist(&netlist, &PROBES)
            .map_err(|e| e.to_string())?
            .horizon(HORIZON);
        let inputs = sim
            .inputs()
            .ok_or("the chain netlist has no source")?
            .clone();

        let parsed = parse_netlist(&netlist).map_err(|e| e.to_string())?;
        let probes = PROBES
            .iter()
            .map(|p| parsed.node(p).map(|k| k - 1).ok_or(format!("no node {p}")))
            .collect::<Result<Vec<_>, _>>()?;
        let nl = assemble_nonlinear_mna(&parsed.circuit, &[]).map_err(|e| e.to_string())?;
        let n = nl.model.system.order();
        let reference = newton_be_richardson(
            &nl.model.system,
            &nl.devices,
            &nl.model.inputs,
            HORIZON,
            COLUMNS,
            &vec![0.0; n],
        )
        .map_err(|e| e.to_string())?;
        let states = reference.states.ok_or("the oracle stored no states")?;
        let oracle = probes
            .iter()
            .map(|&k| states.iter().map(|x| x[k]).collect())
            .collect();

        let plan = sim
            .plan(&SolveOptions::new().resolution(RESOLUTION))
            .map_err(|e| e.to_string())?;
        let mut newton = Newton {
            plan,
            inputs,
            probes,
            oracle,
        };
        newton.op(0).check?;
        Ok(newton)
    }

    fn solve(&self) -> Result<OpmResult, String> {
        self.plan
            .solve_newton_windowed(&self.inputs, WINDOWS, &NewtonOptions::new())
            .map_err(|e| e.to_string())
    }

    /// Compares the solution's endpoint series (`x(t_j)`, the grid the
    /// oracle lives on) at every probe.
    fn check(&self, r: &OpmResult) -> Result<f64, String> {
        let ends: Vec<Vec<f64>> = self
            .probes
            .iter()
            .map(|&k| r.endpoint_series(k, 0.0))
            .collect();
        let e = rel_err(&ends, &self.oracle);
        if e.is_finite() && e <= TOLERANCE {
            Ok(e)
        } else {
            Err(format!(
                "relative error {e:e} against the oracle exceeds {TOLERANCE}"
            ))
        }
    }
}

impl Workload for Newton {
    fn rotation(&self) -> u64 {
        1
    }

    fn op(&mut self, _i: u64) -> OpResult {
        let before = self.plan.factor_profile();
        let t = Instant::now();
        let r = self.solve();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.plan.factor_profile();
        let check = r.and_then(|r| self.check(&r)).and_then(|e| {
            match after.newton_fresh_fallbacks - before.newton_fresh_fallbacks {
                0 => Ok(e),
                k => Err(format!("{k} fresh-factor fallbacks")),
            }
        });
        OpResult { wall_ms, check }
    }

    fn traced_op(&mut self, _i: u64, tr: &mut Tracer) -> Result<Counts, String> {
        let (r, before, after) = tr.span("op", |tr| {
            let before = self.plan.factor_profile();
            let r = tr.span("newton.solve", |_| self.solve());
            (r, before, self.plan.factor_profile())
        });
        self.check(&r?)?;
        let counts = Counts::from_profiles(&before, &after, COLUMNS);
        if counts.fresh_fallbacks != 0 {
            return Err(format!("{} fresh-factor fallbacks", counts.fresh_fallbacks));
        }
        Ok(counts)
    }
}
