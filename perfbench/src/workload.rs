//! What every workload provides to the runner.

use opm_core::FactorProfile;
use opm_rng::StdRng;

use crate::trace::Tracer;

/// One untraced op: its wall time and the check of its output.
pub struct OpResult {
    pub wall_ms: f64,
    /// `Ok(max|y − y_ref| / max|y_ref|)` against the setup-time oracle,
    /// or why the output was rejected.
    pub check: Result<f64, String>,
}

/// Exact per-op counts, read from the plan's factorization profile and
/// the op's own shape.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub num_symbolic: u64,
    pub num_numeric: u64,
    pub windows: u64,
    pub columns: u64,
    pub newton_iters: u64,
    pub newton_refactors: u64,
    pub fresh_fallbacks: u64,
    pub factor_cols: u64,
    pub supernode_coverage: f64,
    pub response_bytes: u64,
}

impl Counts {
    /// The counts that must repeat bit for bit for the same inputs.
    pub fn exact(&self) -> [u64; 5] {
        [
            self.num_symbolic,
            self.num_numeric,
            self.newton_iters,
            self.windows,
            self.factor_cols,
        ]
    }

    /// The work `after − before` on one plan, plus that plan's factor
    /// statistics.
    pub fn from_profiles(before: &FactorProfile, after: &FactorProfile, columns: usize) -> Self {
        let d = |a: usize, b: usize| (a - b) as u64;
        Counts {
            num_symbolic: d(after.num_symbolic, before.num_symbolic),
            num_numeric: d(after.num_numeric, before.num_numeric),
            windows: d(after.num_windows, before.num_windows),
            columns: columns as u64,
            newton_iters: d(after.newton_iters, before.newton_iters),
            newton_refactors: d(after.newton_refactors, before.newton_refactors),
            fresh_fallbacks: d(after.newton_fresh_fallbacks, before.newton_fresh_fallbacks),
            factor_cols: after.factor_cols as u64,
            supernode_coverage: after.supernode_coverage(),
            response_bytes: 0,
        }
    }
}

pub trait Workload {
    /// Ops `i` and `i + rotation()` run the same body or circuit, so
    /// they must do exactly the same plan work; the exact counts are
    /// taken over one op of each residue.
    fn rotation(&self) -> u64;

    fn op(&mut self, i: u64) -> OpResult;

    /// Op `i` with spans recorded around every layer call. Checks the
    /// output like [`Workload::op`] and returns the op's exact counts.
    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Counts, String>;

    /// Carried-history multiply-adds per op, computed from the problem
    /// shape (0 where no fractional history is carried).
    fn history_macs_per_op(&self) -> f64 {
        0.0
    }

    /// Plan-cache `(hits, misses)` as the daemon reports them in
    /// `/metrics`; `None` for in-process workloads.
    fn cache_counters(&self) -> Option<Result<(f64, f64), String>> {
        None
    }

    /// The hit ratio the workload is built to produce, if it uses the
    /// plan cache.
    fn expected_hit_ratio(&self) -> Option<f64> {
        None
    }
}

/// A generator for input `index` of the workload seeded by `seed`:
/// the same pair always yields the same stream.
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ stream.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ index.wrapping_mul(0x1656_67b1_9e37_79f9),
    )
}

/// `x·(1 ± spread)` with a uniform seeded factor.
pub fn jitter(rng: &mut StdRng, x: f64, spread: f64) -> f64 {
    x * (1.0 + spread * (2.0 * rng.random() - 1.0))
}
