//! `serve_hit` and `serve_miss`: closed-loop `POST /solve` over real
//! sockets to an in-process `opm-serve` daemon, one client.
//!
//! Every body is a 48×48 RC mesh driven at one corner by a seeded
//! pulse, solved at m = 8 over 4 windows. The oracle is an explicit
//! RK4 integration of the mesh's nodal equations written here from the
//! generated element list: it shares no parser, MNA, ordering or LU
//! code with the served path.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use opm_core::cache::plan_key;
use opm_core::json::Json;
use opm_core::{FactorProfile, PlanCache, Simulation, WindowedOptions};
use opm_serve::api::{result_json, SimRequest};
use opm_serve::{client, Server, ServerConfig};
use opm_waveform::Waveform;

use crate::stats::rel_err;
use crate::trace::Tracer;
use crate::workload::{jitter, rng_for, Counts, OpResult, Workload};

const MESH: usize = 48;
const RESOLUTION: usize = 8;
const WINDOWS: usize = 4;
const COLUMNS: usize = RESOLUTION * WINDOWS;
const HORIZON: f64 = 2e-6;
/// Probed nodes `(row, column)`, 1-based, near the driven corner
/// `n1_1` so every probe carries signal within the horizon.
const PROBES: [(usize, usize); 4] = [(1, 2), (2, 3), (4, 4), (8, 8)];
/// RK4 substeps per OPM interval in the oracle.
const ORACLE_SUBSTEPS: usize = 32;
/// Bodies in the `serve_hit` rotation; all stay cached.
const HIT_BODIES: usize = 4;
const HIT_CACHE: usize = 8;
/// Bodies in the `serve_miss` pool. Cycling more bodies than the cache
/// holds makes every request a miss while each body's oracle is still
/// computed once, in setup.
const MISS_BODIES: usize = 6;
const MISS_CACHE: usize = 2;
/// Largest accepted `max|y − y_ref| / max|y_ref|` (−20 dB).
pub const TOLERANCE: f64 = 0.1;

struct Body {
    json: String,
    netlist: String,
    oracle: Vec<Vec<f64>>,
    /// The body's first (cold) response, which every hit must repeat
    /// bit for bit.
    first: Option<Vec<Vec<f64>>>,
}

pub struct Serve {
    server: Option<Server>,
    addr: SocketAddr,
    bodies: Vec<Body>,
    hit: bool,
    /// The in-process replay's own cache, sized like the daemon's.
    replay: PlanCache,
}

/// The generated circuit: resistors `(a, b, ohms)` between node
/// indices (`row·MESH + col`, 0-based; node 0 is driven), one capacitor
/// to ground per node, and the drive.
struct Mesh {
    resistors: Vec<(usize, usize, f64)>,
    caps: Vec<f64>,
    drive: [f64; 5],
}

fn probe_names() -> Vec<String> {
    PROBES.iter().map(|&(i, j)| format!("n{i}_{j}")).collect()
}

fn node_name(k: usize) -> String {
    format!("n{}_{}", k / MESH + 1, k % MESH + 1)
}

fn generate(seed: u64, index: u64, extra_segment: bool) -> Mesh {
    let mut rng = rng_for(seed, if extra_segment { 2 } else { 1 }, index);
    let mut resistors = Vec::with_capacity(2 * MESH * MESH);
    for i in 0..MESH {
        for j in 0..MESH {
            let k = i * MESH + j;
            if j + 1 < MESH {
                resistors.push((k, k + 1, jitter(&mut rng, 100.0, 0.1)));
            }
            if i + 1 < MESH {
                resistors.push((k, k + MESH, jitter(&mut rng, 100.0, 0.1)));
            }
        }
    }
    if extra_segment {
        // A link at a seeded place changes the sparsity pattern, so the
        // structural key and the symbolic analysis are new for every
        // pool body. It joins two nodes at the same distance from the
        // mesh corners, which leaves the fill (and the cost of a
        // factorization) nearly independent of where it lands.
        let i = rng.random_range(0..MESH - 1);
        let j = rng.random_range(0..MESH - 1);
        let k = i * MESH + j;
        resistors.push((k + 1, k + MESH, jitter(&mut rng, 150.0, 0.3)));
    }
    let caps = (0..MESH * MESH)
        .map(|_| jitter(&mut rng, 1e-9, 0.1))
        .collect();
    // PULSE v2, delay, rise, width, fall (v1 = 0, single shot).
    let drive = [
        jitter(&mut rng, 1.0, 0.3),
        jitter(&mut rng, 5e-8, 0.5),
        jitter(&mut rng, 3e-8, 0.5),
        jitter(&mut rng, 6e-7, 0.3),
        jitter(&mut rng, 3e-8, 0.5),
    ];
    Mesh {
        resistors,
        caps,
        drive,
    }
}

impl Mesh {
    fn waveform(&self) -> Waveform {
        let [v2, delay, rise, width, fall] = self.drive;
        Waveform::pulse(0.0, v2, delay, rise, width, fall, 0.0)
    }

    /// Netlist text; `{:?}` prints each value in its shortest exact
    /// form, so the parser reads back the generated numbers bit for bit.
    fn netlist(&self) -> String {
        let mut s = String::from("* seeded RC mesh\nV1 n1_1 0 DC 0\n");
        for (r, &(a, b, ohms)) in self.resistors.iter().enumerate() {
            let _ = writeln!(s, "R{r} {} {} {ohms:?}", node_name(a), node_name(b));
        }
        for (k, c) in self.caps.iter().enumerate() {
            let _ = writeln!(s, "C{k} {} 0 {c:?}", node_name(k));
        }
        s.push_str(".end\n");
        s
    }

    fn body(&self, netlist: &str, probes: &[String]) -> String {
        let [v2, delay, rise, width, fall] = self.drive;
        let probes: Vec<String> = probes.iter().map(|p| format!("{p:?}")).collect();
        format!(
            r#"{{"netlist": {netlist:?}, "probes": [{}], "horizon": {HORIZON:?},
  "options": {{"resolution": {RESOLUTION}}}, "windows": {WINDOWS},
  "scenarios": [[{{"kind": "pulse", "v1": 0.0, "v2": {v2:?}, "delay": {delay:?},
    "rise": {rise:?}, "width": {width:?}, "fall": {fall:?}, "period": 0.0}}]]}}"#,
            probes.join(", ")
        )
    }

    /// Interval averages of the probed node voltages by classical RK4
    /// on `C·v̇ = −L·v` with node 0 held at the drive.
    fn oracle(&self) -> Vec<Vec<f64>> {
        let nodes = MESH * MESH;
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nodes];
        for &(a, b, ohms) in &self.resistors {
            adj[a].push((b, 1.0 / ohms));
            adj[b].push((a, 1.0 / ohms));
        }
        let drive = self.waveform();
        let deriv = |t: f64, v: &[f64], out: &mut [f64]| {
            let u = drive.eval(t);
            for k in 1..nodes {
                let mut i = 0.0;
                for &(l, g) in &adj[k] {
                    let vl = if l == 0 { u } else { v[l] };
                    i += g * (vl - v[k]);
                }
                out[k] = i / self.caps[k];
            }
        };
        let probes: Vec<usize> = PROBES
            .iter()
            .map(|&(i, j)| (i - 1) * MESH + j - 1)
            .collect();
        let h = HORIZON / (COLUMNS * ORACLE_SUBSTEPS) as f64;
        let mut v = vec![0.0; nodes];
        let (mut k1, mut k2, mut k3, mut k4, mut tmp) = (
            vec![0.0; nodes],
            vec![0.0; nodes],
            vec![0.0; nodes],
            vec![0.0; nodes],
            vec![0.0; nodes],
        );
        let mut avg = vec![vec![0.0; COLUMNS]; probes.len()];
        for col in 0..COLUMNS {
            for s in 0..ORACLE_SUBSTEPS {
                let t = (col * ORACLE_SUBSTEPS + s) as f64 * h;
                // Trapezoidal quadrature of the interval average.
                let w = if s == 0 { 0.5 } else { 1.0 };
                for (p, &k) in probes.iter().enumerate() {
                    avg[p][col] += w * v[k];
                }
                deriv(t, &v, &mut k1);
                for k in 0..nodes {
                    tmp[k] = v[k] + 0.5 * h * k1[k];
                }
                deriv(t + 0.5 * h, &tmp, &mut k2);
                for k in 0..nodes {
                    tmp[k] = v[k] + 0.5 * h * k2[k];
                }
                deriv(t + 0.5 * h, &tmp, &mut k3);
                for k in 0..nodes {
                    tmp[k] = v[k] + h * k3[k];
                }
                deriv(t + h, &tmp, &mut k4);
                for k in 1..nodes {
                    v[k] += h / 6.0 * (k1[k] + 2.0 * k2[k] + 2.0 * k3[k] + k4[k]);
                }
            }
            for (p, &k) in probes.iter().enumerate() {
                avg[p][col] = (avg[p][col] + 0.5 * v[k]) / ORACLE_SUBSTEPS as f64;
            }
        }
        avg
    }
}

/// The probe rows of the first result in a `/solve` response, and its
/// `cache` field.
fn parse_response(status: u16, body: &str) -> Result<(Vec<Vec<f64>>, String), String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {body}"));
    }
    let doc = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let cache = doc
        .get("cache")
        .and_then(Json::as_str)
        .ok_or("response has no `cache` field")?
        .to_string();
    let rows = doc
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r.first())
        .and_then(|r| r.get("outputs"))
        .and_then(Json::as_array)
        .ok_or("response has no results[0].outputs")?;
    let rows = rows
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("output row is not an array")?
                .iter()
                .map(|v| v.as_f64().ok_or("output sample is not a number"))
                .collect::<Result<Vec<f64>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((rows, cache))
}

fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

impl Serve {
    pub fn setup(seed: u64, hit: bool, trace: bool) -> Result<Self, String> {
        let (count, capacity) = if hit {
            (HIT_BODIES, HIT_CACHE)
        } else {
            (MISS_BODIES, MISS_CACHE)
        };
        let server = opm_serve::spawn(ServerConfig {
            cache_capacity: capacity,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let probes = probe_names();
        let bodies = (0..count as u64)
            .map(|index| {
                let mesh = generate(seed, index, !hit);
                let netlist = mesh.netlist();
                Body {
                    json: mesh.body(&netlist, &probes),
                    oracle: mesh.oracle(),
                    netlist,
                    first: None,
                }
            })
            .collect();
        let mut serve = Serve {
            addr: server.addr(),
            server: Some(server),
            bodies,
            hit,
            replay: PlanCache::new(capacity),
        };
        // Warm-up: every body once cold (its plan is built), and for
        // `serve_hit` once more, so every measured request is a hit.
        for b in 0..count {
            let (rows, cache) = serve.post(b)?;
            if cache != "miss" {
                return Err(format!("warm-up body {b}: expected a miss, got {cache}"));
            }
            check_oracle(&rows, &serve.bodies[b].oracle)?;
            if hit {
                serve.bodies[b].first = Some(rows);
                serve.op(b as u64).check?;
            }
        }
        if trace && hit {
            // The replay's cache gets the same warm-up: plan and window
            // kernel built for every body.
            for body in &serve.bodies {
                let req = SimRequest::parse(body.json.as_bytes()).map_err(|e| e.msg)?;
                let (plan, _) = serve
                    .replay
                    .get_or_intern(plan_key(&req.sim, &req.opts), || req.sim.plan(&req.opts))
                    .map_err(|e| e.to_string())?;
                let stimuli = req.stimuli().map_err(|e| e.msg)?;
                plan.solve_windowed_batch_opts(&stimuli, &WindowedOptions::new(WINDOWS), 1)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(serve)
    }

    fn post(&self, b: usize) -> Result<(Vec<Vec<f64>>, String), String> {
        let resp = client::post(self.addr, "/solve", &self.bodies[b].json)
            .map_err(|e| format!("POST /solve: {e}"))?;
        parse_response(resp.status, &resp.body)
    }

    /// Checks one response against body `b`'s expectations and oracle.
    fn check(&self, b: usize, rows: &[Vec<f64>], cache: &str) -> Result<f64, String> {
        let want = if self.hit { "hit" } else { "miss" };
        if cache != want {
            return Err(format!("body {b}: cache reads {cache}, expected {want}"));
        }
        if let Some(first) = &self.bodies[b].first {
            if !same_bits(rows, first) {
                return Err(format!("body {b}: hit differs from its first response"));
            }
        }
        check_oracle(rows, &self.bodies[b].oracle)
    }

    /// Body `b` through the `/solve` handler's public calls, in process,
    /// with a span around each call.
    fn replay(&self, b: usize, tr: &mut Tracer) -> Result<Counts, String> {
        let body = &self.bodies[b];
        let replay = &self.replay;
        let mut parse_span = 0;
        let (counts, reply) = tr.span("op", |tr| -> Result<_, String> {
            let (req, idx) =
                tr.span_indexed("api.parse", |_| SimRequest::parse(body.json.as_bytes()));
            parse_span = idx;
            let req = req.map_err(|e| e.msg)?;
            let stimuli = tr
                .span("api.stimuli", |_| req.stimuli())
                .map_err(|e| e.msg)?;
            let key = tr.span("cache.plan_key", |_| plan_key(&req.sim, &req.opts));
            let (plan, hit) = tr
                .span("cache.lookup", |tr| {
                    replay.get_or_intern(key, || tr.span("plan.build", |_| req.sim.plan(&req.opts)))
                })
                .map_err(|e| e.to_string())?;
            let before = if hit {
                plan.factor_profile()
            } else {
                FactorProfile::default()
            };
            let windows = req.windows.ok_or("body has no `windows`")?;
            let results = tr
                .span("sweep.solve", |_| {
                    plan.solve_windowed_batch_opts(&stimuli, &WindowedOptions::new(windows), 1)
                })
                .map_err(|e| e.to_string())?;
            let reply = tr.span("json.result", |_| {
                Json::Obj(vec![
                    ("cache".into(), Json::str(if hit { "hit" } else { "miss" })),
                    ("profile".into(), plan.factor_profile().to_json()),
                    (
                        "results".into(),
                        Json::Arr(results.iter().map(result_json).collect()),
                    ),
                ])
                .to_string()
            });
            let mut counts = Counts::from_profiles(&before, &plan.factor_profile(), COLUMNS);
            counts.response_bytes = reply.len() as u64;
            Ok((counts, reply))
        })?;
        let names = probe_names();
        let probes: Vec<&str> = names.iter().map(String::as_str).collect();
        tr.replayed_child(parse_span, "circuits.from_netlist", || {
            Simulation::from_netlist(&body.netlist, &probes)
        })
        .map_err(|e| e.to_string())?;
        let (rows, cache) = parse_response(200, &reply)?;
        self.check(b, &rows, &cache)?;
        Ok(counts)
    }

    fn traced_post(&self, b: usize, tr: &mut Tracer) -> Result<(), String> {
        let resp = tr
            .span("serve.post", |_| {
                client::post(self.addr, "/solve", &self.bodies[b].json)
            })
            .map_err(|e| format!("POST /solve: {e}"))?;
        let (rows, cache) = parse_response(resp.status, &resp.body)?;
        self.check(b, &rows, &cache).map(|_| ())
    }
}

fn check_oracle(rows: &[Vec<f64>], oracle: &[Vec<f64>]) -> Result<f64, String> {
    let e = rel_err(rows, oracle);
    if e.is_finite() && e <= TOLERANCE {
        Ok(e)
    } else {
        Err(format!(
            "relative error {e:e} against the oracle exceeds {TOLERANCE}"
        ))
    }
}

impl Workload for Serve {
    fn rotation(&self) -> u64 {
        self.bodies.len() as u64
    }

    fn op(&mut self, i: u64) -> OpResult {
        let b = (i % self.rotation()) as usize;
        let t = Instant::now();
        let resp = client::post(self.addr, "/solve", &self.bodies[b].json);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let check = resp
            .map_err(|e| format!("POST /solve: {e}"))
            .and_then(|r| parse_response(r.status, &r.body))
            .and_then(|(rows, cache)| self.check(b, &rows, &cache));
        OpResult { wall_ms, check }
    }

    /// Replays the `/solve` handler's public calls in process and sends
    /// the same body over the socket; the difference of the two is
    /// transport and handler overhead. The order alternates so that
    /// neither half always runs on caches the other has just warmed.
    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Counts, String> {
        let b = (i % self.rotation()) as usize;
        if i % 2 == 1 {
            self.traced_post(b, tr)?;
            self.replay(b, tr)
        } else {
            let counts = self.replay(b, tr)?;
            self.traced_post(b, tr)?;
            Ok(counts)
        }
    }

    fn cache_counters(&self) -> Option<Result<(f64, f64), String>> {
        Some((|| {
            let resp =
                client::get(self.addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
            let doc = resp
                .json()
                .map_err(|e| format!("/metrics is not JSON: {e}"))?;
            let stats = doc.get("plan_cache").ok_or("/metrics has no plan_cache")?;
            let read = |k: &str| {
                stats
                    .get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("/metrics has no plan_cache.{k}"))
            };
            Ok((read("hits")?, read("misses")?))
        })())
    }

    fn expected_hit_ratio(&self) -> Option<f64> {
        Some(if self.hit { 1.0 } else { 0.0 })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
