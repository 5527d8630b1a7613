//! A keyed LRU cache of factored plans, shared across requests.
//!
//! A [`crate::SimPlan`] is the expensive, stimulus-independent artifact
//! of the session API: one symbolic + one numeric factorization serves
//! any number of scenarios, windows, and horizons. [`PlanCache`] interns
//! plans behind `Arc` so that a *repeated* plan request — same model,
//! same options, same horizon — skips symbolic **and** numeric work
//! entirely and goes straight to solves. This is the heart of the
//! `opm-serve` daemon, and equally usable by a CLI that replays
//! netlists.
//!
//! # The cache key
//!
//! Entries are keyed by a 128-bit structural hash
//! ([`plan_key`]) covering everything [`Simulation::plan`] consumes:
//!
//! - the model **pattern** (variant, dimensions, row structure, column
//!   indices) and its **values** (every `f64` hashed by bit pattern),
//! - the [`SolveOptions`] (resolution, method, adaptive parameters,
//!   step grid),
//! - the horizon `t_end` and initial state `x0`.
//!
//! Hashing values (not just the sparsity pattern) means a value-only
//! edit — say, bumping one resistor — is a **miss** by construction:
//! the factorization it would reuse is numerically wrong for the new
//! matrix. Two requests collide only if every bit above agrees, in
//! which case sharing the factorization is exactly right.
//!
//! # Request keys
//!
//! Computing [`plan_key`] needs the assembled model, so a server that
//! keyed only on it would parse the netlist and assemble MNA on every
//! hit just to throw the result away. [`request_key`] hashes the raw
//! plan inputs of a JSON request instead — the netlist text (or model
//! triplets), probes, horizon, initial state and options — and
//! [`PlanCache::alias`] maps that key to the plan it resolved to. A
//! warm request then goes request key → alias → plan
//! ([`PlanCache::get_aliased`]) with no parsing or assembly at all. The
//! structural key stays the plan's identity: two spellings of one
//! circuit have two request keys but share one plan. An alias lives
//! only as long as its plan — it is dropped when the plan is evicted —
//! and the table holds at most eight aliases per unit of capacity,
//! dropping the least recently used beyond that.
//!
//! # Concurrency & the single-factorization invariant
//!
//! Lookups and insertions go through one short-lived mutex; **plans are
//! built on a per-key latch outside it**. A cold request claims its key
//! by inserting a building placeholder, releases the global lock, and
//! factors the plan; requests racing on the *same* key wait on that
//! latch and receive the finished `Arc` — exactly one performs the
//! symbolic + numeric factorization and the other N−1 become hits (the
//! per-plan [`crate::FactorProfile`] records `num_symbolic == 1` and
//! `num_numeric == 1` no matter the concurrency). Requests for *other*
//! keys are untouched: one pathological model that takes seconds (or
//! panics) mid-build can no longer stall hits on every other plan,
//! which is what a multi-tenant server needs to stay live.
//!
//! # Fault tolerance
//!
//! Every internal lock recovers from poisoning
//! ([`std::sync::PoisonError::into_inner`] — the guarded state is a
//! plain LRU list, always structurally valid), and a build that
//! **panics** unwinds cleanly: the placeholder is removed, latch
//! waiters receive an error, the panic resumes on the builder's thread,
//! and the next request for that key simply rebuilds. A build that
//! returns `Err` behaves the same — failures are never cached.
//!
//! # Eviction
//!
//! Least-recently-used, over a fixed capacity set at construction. The
//! cache stores `Arc`s, so evicting a plan mid-flight is safe — in-use
//! plans are freed when their last request completes. In-progress
//! builds are never evicted (the cache may transiently hold more than
//! `capacity` entries while builds race; it settles back under the cap
//! as they publish).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::engine::SolveOptions;
use crate::json::Json;
use crate::session::{SimModel, SimPlan, Simulation};
use crate::OpmError;
use opm_sparse::CsrMatrix;
use opm_system::DescriptorSystem;
use opm_waveform::InputSet;

/// The 128-bit structural hash a plan is interned under.
pub type PlanKey = (u64, u64);

/// Computes the structural hash of everything a plan depends on.
///
/// Exposed so tests (and cache-aware tooling) can check when two
/// sessions would share a cached plan without building one.
pub fn plan_key(sim: &Simulation, opts: &SolveOptions) -> PlanKey {
    let mut h = PairHash::new();
    hash_model(&mut h, sim.model());
    hash_options(&mut h, opts);
    h.f64(sim.t_end());
    match sim.x0() {
        Some(x0) => {
            h.tag(1);
            h.f64_slice(x0);
        }
        None => h.tag(0),
    }
    h.finish()
}

/// Hashes the members `fields` of a request document into a 128-bit
/// request key, with the same hash as [`plan_key`]. Each field hashes
/// its name, whether it is present, and its value tree; strings hash
/// their bytes and numbers their bits, so any textual change to a plan
/// input gives a new key.
///
/// ```
/// use opm_core::cache::request_key;
/// use opm_core::json::Json;
/// let a = Json::parse(r#"{"netlist": "R1 a 0 1", "horizon": 1e-3, "scenarios": []}"#).unwrap();
/// let b = Json::parse(r#"{"netlist": "R1 a 0 1", "horizon": 1e-3}"#).unwrap();
/// let c = Json::parse(r#"{"netlist": "R1 a 0 2", "horizon": 1e-3}"#).unwrap();
/// let fields = ["netlist", "horizon"];
/// assert_eq!(request_key(&a, &fields), request_key(&b, &fields));
/// assert_ne!(request_key(&a, &fields), request_key(&c, &fields));
/// ```
pub fn request_key(doc: &Json, fields: &[&str]) -> PlanKey {
    let mut h = PairHash::new();
    for field in fields {
        h.bytes(field.as_bytes());
        match doc.get(field) {
            Some(v) => {
                h.tag(1);
                h.json(v);
            }
            None => h.tag(0),
        }
    }
    h.finish()
}

/// Two independent FNV-1a streams → a 128-bit key, so accidental
/// collisions between distinct requests are out of reach at any
/// realistic cache size.
struct PairHash {
    a: u64,
    b: u64,
}

impl PairHash {
    fn new() -> Self {
        // FNV-1a offset basis, and a second arbitrary odd basis.
        PairHash {
            a: 0xcbf29ce484222325,
            b: 0x9e3779b97f4a7c15,
        }
    }

    fn byte(&mut self, x: u8) {
        const P: u64 = 0x100000001b3;
        self.a = (self.a ^ x as u64).wrapping_mul(P);
        self.b = (self.b ^ x as u64).wrapping_mul(P ^ 0xff51afd7ed558ccd);
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn f64_slice(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        for &b in bytes {
            self.byte(b);
        }
    }

    fn json(&mut self, v: &Json) {
        match v {
            Json::Null => self.tag(0),
            Json::Bool(b) => {
                self.tag(1);
                self.tag(u8::from(*b));
            }
            Json::Int(i) => {
                self.tag(2);
                self.u64(*i as u64);
            }
            Json::Num(x) => {
                self.tag(3);
                self.f64(*x);
            }
            Json::Str(s) => {
                self.tag(4);
                self.bytes(s.as_bytes());
            }
            Json::Arr(items) => {
                self.tag(5);
                self.usize(items.len());
                for item in items {
                    self.json(item);
                }
            }
            Json::Obj(pairs) => {
                self.tag(6);
                self.usize(pairs.len());
                for (k, item) in pairs {
                    self.bytes(k.as_bytes());
                    self.json(item);
                }
            }
        }
    }

    fn csr(&mut self, m: &CsrMatrix) {
        self.usize(m.nrows());
        self.usize(m.ncols());
        for i in 0..m.nrows() {
            // Row-length delimiters keep (col, val) runs from aliasing
            // across row boundaries.
            self.usize(m.row(i).count());
            for (col, val) in m.row(i) {
                self.usize(col);
                self.f64(val);
            }
        }
    }

    fn opt_csr(&mut self, m: Option<&CsrMatrix>) {
        match m {
            Some(m) => {
                self.tag(1);
                self.csr(m);
            }
            None => self.tag(0),
        }
    }

    fn descriptor(&mut self, sys: &DescriptorSystem) {
        self.csr(sys.e());
        self.csr(sys.a());
        self.csr(sys.b());
        self.opt_csr(sys.c());
    }

    fn finish(self) -> PlanKey {
        (self.a, self.b)
    }
}

fn hash_model(h: &mut PairHash, model: &SimModel) {
    match model {
        SimModel::Linear(sys) => {
            h.tag(1);
            h.descriptor(sys);
        }
        SimModel::Fractional(fsys) => {
            h.tag(2);
            h.f64(fsys.alpha());
            h.descriptor(fsys.system());
        }
        SimModel::MultiTerm(mt) => {
            h.tag(3);
            h.usize(mt.terms().len());
            for term in mt.terms() {
                h.f64(term.alpha);
                h.csr(&term.matrix);
            }
            h.csr(mt.b());
            h.opt_csr(mt.c());
        }
        SimModel::SecondOrder(so) => {
            h.tag(4);
            h.csr(so.m2());
            h.csr(so.m1());
            h.csr(so.m0());
            h.csr(so.b());
            h.opt_csr(so.c());
        }
    }
}

fn hash_options(h: &mut PairHash, opts: &SolveOptions) {
    match opts.resolution {
        Some(m) => {
            h.tag(1);
            h.usize(m);
        }
        None => h.tag(0),
    }
    h.tag(match opts.method {
        crate::Method::Auto => 0,
        crate::Method::Recurrence => 1,
        crate::Method::Accumulator => 2,
        crate::Method::Convolution => 3,
        crate::Method::Kronecker => 4,
    });
    match &opts.adaptive {
        Some(a) => {
            h.tag(1);
            h.f64(a.tol);
            h.f64(a.h0);
            h.f64(a.h_min);
            h.f64(a.h_max);
        }
        None => h.tag(0),
    }
    match &opts.step_grid {
        Some(steps) => {
            h.tag(1);
            h.f64_slice(steps);
        }
        None => h.tag(0),
    }
}

pub use crate::gate::CacheStats;

use crate::gate::GateCache;
use crate::sync::StdSync;

/// An LRU cache of factored plans keyed by [`plan_key`].
///
/// The claim / build / publish / latch protocol lives in the generic
/// [`GateCache`] (shared with `opm-verify`, which model-checks it under
/// a deterministic scheduler); this wrapper binds it to
/// `PlanKey -> Arc<SimPlan>` and owns the plan-specific keying.
pub struct PlanCache {
    gate: GateCache<PlanKey, Arc<SimPlan>, OpmError, StdSync>,
    aliases: Mutex<Aliases>,
}

/// Aliases kept per unit of plan capacity (see [`PlanCache::alias`]).
const ALIASES_PER_PLAN: usize = 8;

/// Request key → plan key, with the request's own sources.
#[derive(Default)]
struct Aliases {
    map: HashMap<PlanKey, Alias>,
    tick: u64,
}

struct Alias {
    plan: PlanKey,
    sources: Option<InputSet>,
    last_used: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl PlanCache {
    /// A cache that interns at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            gate: GateCache::new(capacity, || {
                OpmError::BadArguments(
                    "plan build panicked; the panicking request reports it".into(),
                )
            }),
            aliases: Mutex::default(),
        }
    }

    fn aliases(&self) -> std::sync::MutexGuard<'_, Aliases> {
        self.aliases.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan `request` was aliased to, with the sources recorded for
    /// it, counted as a hit — no parsing, assembly or structural
    /// hashing. `None`, with nothing counted, when there is no alias or
    /// its plan has been evicted (the alias is dropped then); the caller
    /// builds the session and goes through [`PlanCache::get_or_intern`].
    pub fn get_aliased(&self, request: PlanKey) -> Option<(Arc<SimPlan>, Option<InputSet>)> {
        let mut aliases = self.aliases();
        aliases.tick += 1;
        let tick = aliases.tick;
        let alias = aliases.map.get_mut(&request)?;
        match self.gate.get(alias.plan) {
            Some(plan) => {
                alias.last_used = tick;
                Some((plan, alias.sources.clone()))
            }
            None => {
                aliases.map.remove(&request);
                None
            }
        }
    }

    /// Records that requests keyed `request` resolve to the plan interned
    /// under `key`, driven by `sources` when they post no scenarios.
    /// Aliases of evicted plans are dropped here, and beyond eight
    /// aliases per unit of capacity the least recently used goes.
    pub fn alias(&self, request: PlanKey, key: PlanKey, sources: Option<InputSet>) {
        let live: Vec<PlanKey> = self.keys_by_recency();
        let cap = ALIASES_PER_PLAN * self.stats().capacity;
        let mut aliases = self.aliases();
        aliases.tick += 1;
        let last_used = aliases.tick;
        aliases.map.insert(
            request,
            Alias {
                plan: key,
                sources,
                last_used,
            },
        );
        aliases.map.retain(|_, a| live.contains(&a.plan));
        while aliases.map.len() > cap {
            let lru = aliases
                .map
                .iter()
                .min_by_key(|(_, a)| a.last_used)
                .map(|(&k, _)| k);
            let Some(lru) = lru else { break };
            aliases.map.remove(&lru);
        }
    }

    /// Request keys currently aliased to interned plans.
    pub fn num_aliases(&self) -> usize {
        self.aliases().map.len()
    }

    /// The interned plan for `(sim, opts)`, factoring one on a miss.
    ///
    /// On a hit no factorization work happens at all — the returned
    /// `Arc` is ready to `solve`/`sweep`/`solve_streaming` concurrently
    /// with every other holder. Cold builds run on a per-key latch so
    /// racing identical requests factor exactly once without blocking
    /// requests for other keys (see the module docs).
    ///
    /// # Errors
    /// Whatever [`Simulation::plan`] would return for the same inputs;
    /// failures are not cached.
    pub fn get_or_plan(
        &self,
        sim: &Simulation,
        opts: &SolveOptions,
    ) -> Result<Arc<SimPlan>, OpmError> {
        self.get_or_plan_traced(sim, opts).map(|(plan, _)| plan)
    }

    /// [`PlanCache::get_or_plan`], also reporting whether this call was
    /// a hit — what a server echoes back per response.
    ///
    /// # Errors
    /// As [`PlanCache::get_or_plan`].
    pub fn get_or_plan_traced(
        &self,
        sim: &Simulation,
        opts: &SolveOptions,
    ) -> Result<(Arc<SimPlan>, bool), OpmError> {
        self.get_or_intern(plan_key(sim, opts), || sim.plan(opts))
    }

    /// The interned plan for `key`, running `build` on a miss — the
    /// generalized entry point behind [`PlanCache::get_or_plan_traced`].
    /// Exposed so servers can wrap the build (fault injection, tracing)
    /// and tests can drive the cache with arbitrary closures.
    ///
    /// Exactly one racer per key runs `build`; same-key racers block on
    /// the key's latch and come back as hits. If `build` returns `Err`
    /// nothing is cached and every waiter receives a clone of the
    /// error. If `build` **panics**, the placeholder is removed, the
    /// waiters receive an error, and the panic resumes on this thread —
    /// the cache itself stays fully usable.
    ///
    /// # Errors
    /// Whatever `build` returns; failures are not cached.
    pub fn get_or_intern(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<SimPlan, OpmError>,
    ) -> Result<(Arc<SimPlan>, bool), OpmError> {
        self.gate.get_or_build(key, || build().map(Arc::new))
    }

    /// Counter snapshot for `/metrics` and the bench gates.
    pub fn stats(&self) -> CacheStats {
        self.gate.stats()
    }

    /// Number of interned (finished) plans.
    pub fn len(&self) -> usize {
        self.gate.len()
    }

    /// Whether the cache holds no finished plans.
    pub fn is_empty(&self) -> bool {
        self.gate.is_empty()
    }

    /// Drops every interned plan and alias (counters are kept; in-flight builds
    /// complete and hand their plan to their waiters, uncached).
    pub fn clear(&self) {
        self.gate.clear();
        self.aliases().map.clear();
    }

    /// The interned plans, most recently used first — what a `/metrics`
    /// endpoint walks to report per-plan [`crate::FactorProfile`]s.
    /// In-flight builds are not listed.
    pub fn plans(&self) -> Vec<(PlanKey, Arc<SimPlan>)> {
        self.gate.values()
    }

    /// The interned plans' keys, most recently used first. Test hook
    /// for asserting eviction order.
    pub fn keys_by_recency(&self) -> Vec<PlanKey> {
        self.plans().into_iter().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::CooMatrix;

    /// A 1×1 plan (ẋ = −x + u) built fresh per call.
    fn tiny_plan(resolution: usize) -> Result<SimPlan, OpmError> {
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, -1.0);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        let sys =
            DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap();
        Simulation::from_system(sys)
            .horizon(1.0)
            .plan(&SolveOptions::new().resolution(resolution))
    }

    /// A panicking build closure leaves the cache fully usable: the
    /// placeholder is gone, counters are sane, and the next request for
    /// the same key rebuilds as a plain miss.
    #[test]
    fn panicking_build_leaves_cache_usable() {
        let cache = PlanCache::new(4);
        let key = (1, 2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_intern(key, || panic!("injected build panic"));
        }));
        assert!(panicked.is_err(), "the build panic must propagate");

        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (0, 0, 1));

        // Same key again: a clean rebuild, then a hit.
        let (plan, hit) = cache.get_or_intern(key, || tiny_plan(16)).unwrap();
        assert!(!hit);
        let (again, hit) = cache.get_or_intern(key, || unreachable!()).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&plan, &again));
        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 1, 2));
    }

    /// A build returning `Err` is not cached and does not poison
    /// anything; waiters and later requests see a clean cache.
    #[test]
    fn failed_build_is_not_cached() {
        let cache = PlanCache::new(4);
        let key = (3, 4);
        let err = cache
            .get_or_intern(key, || Err(OpmError::BadArguments("no such model".into())))
            .unwrap_err();
        assert!(matches!(err, OpmError::BadArguments(_)));
        assert_eq!(cache.len(), 0);
        let (_, hit) = cache.get_or_intern(key, || tiny_plan(16)).unwrap();
        assert!(!hit);
    }

    /// N racers on one cold key: exactly one build, N−1 waiters that
    /// come back as hits on the same `Arc`.
    #[test]
    fn racing_requests_build_once() {
        let cache = PlanCache::new(4);
        let key = (5, 6);
        let builds = std::sync::atomic::AtomicU64::new(0);
        let plans: Vec<(Arc<SimPlan>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        cache
                            .get_or_intern(key, || {
                                builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                // Hold the build long enough that the
                                // racers genuinely arrive mid-build.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                tiny_plan(16)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(plans.iter().filter(|(_, hit)| !hit).count(), 1);
        for (plan, _) in &plans {
            assert!(Arc::ptr_eq(plan, &plans[0].0));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1));
    }

    /// A slow build on one key must not stall a request for another key
    /// — the per-key latch replaces the old build-under-global-lock.
    #[test]
    fn slow_build_does_not_block_other_keys() {
        let cache = Arc::new(PlanCache::new(4));
        let entered = Arc::new(std::sync::Barrier::new(2));
        let slow = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                cache
                    .get_or_intern((7, 8), || {
                        entered.wait(); // the slow build is now in flight
                        std::thread::sleep(std::time::Duration::from_secs(2));
                        tiny_plan(16)
                    })
                    .unwrap()
            })
        };
        entered.wait();
        let start = std::time::Instant::now();
        let (_, hit) = cache.get_or_intern((9, 10), || tiny_plan(32)).unwrap();
        assert!(!hit);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "an unrelated key waited on the slow build: {:?}",
            start.elapsed()
        );
        slow.join().unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    /// A request-key alias serves its plan as a counted hit, and goes
    /// when its plan is evicted.
    #[test]
    fn alias_lives_and_dies_with_its_plan() {
        let cache = PlanCache::new(1);
        let (a, _) = cache.get_or_intern((1, 1), || tiny_plan(16)).unwrap();
        cache.alias((9, 1), (1, 1), None);
        let (hit, sources) = cache.get_aliased((9, 1)).unwrap();
        assert!(Arc::ptr_eq(&hit, &a) && sources.is_none());
        assert!(cache.get_aliased((9, 2)).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        cache.get_or_intern((2, 2), || tiny_plan(32)).unwrap(); // evicts (1, 1)
        cache.alias((9, 2), (2, 2), None);
        assert_eq!(cache.num_aliases(), 1);
        assert!(cache.get_aliased((9, 1)).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
    }

    /// Eviction only considers finished plans and keeps the cache at
    /// capacity once builds publish.
    #[test]
    fn lru_eviction_over_capacity() {
        let cache = PlanCache::new(2);
        for k in 0..3u64 {
            let _ = cache
                .get_or_intern((k, k), || tiny_plan(16 + k as usize))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (2, 1));
        // (0,0) was least recently used and must be gone.
        assert!(!cache.keys_by_recency().contains(&(0, 0)));
    }
}
