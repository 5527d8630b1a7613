//! The daemon's JSON dialect: request bodies → sessions, results →
//! response documents.
//!
//! A request describes the *plan inputs* (model, horizon, options) and
//! the *stimuli* separately, mirroring the session API's split: the
//! plan inputs form the cache key, the stimuli are free to vary per
//! request without costing a factorization.
//!
//! ```json
//! {
//!   "netlist": "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.end",
//!   "probes": ["out"],
//!   "horizon": 5e-3,
//!   "options": {"resolution": 256},
//!   "scenarios": [[{"kind": "sine", "ampl": 1.0, "freq": 1e3}]]
//! }
//! ```
//!
//! Instead of a netlist, a raw descriptor model can be posted as
//! sparse triplets (`"model": {"n": …, "inputs": …, "e": [[i,j,v],…],
//! "a": …, "b": …, "c": …, "alpha": …}`); `"alpha"` makes it
//! fractional. Omitting `"scenarios"` for a netlist uses the netlist's
//! own sources.
//!
//! # The warm-hit path
//!
//! A body is parsed to JSON once ([`RequestDoc::parse`]), and its plan
//! inputs — `netlist` or `model`, `probes`, `horizon`, `x0` and
//! `options` — are hashed into a request key
//! ([`opm_core::cache::request_key`]). The server looks that key up as
//! an alias of an interned plan; on a hit it serves the plan with no
//! netlist parsing, MNA assembly or structural hashing. Only on a miss
//! does [`RequestDoc::session`] build the [`Simulation`], whose
//! structural [`opm_core::cache::plan_key`] finds or builds the plan.
//! The stimulus half of the body ([`RequestDoc::drive`]) is parsed on
//! every request either way.

use opm_core::cache::{request_key, PlanKey};
use opm_core::json::Json;
use opm_core::{OpmResult, Simulation, SolveOptions};
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::{InputSet, Waveform};

/// A request failure, carrying the HTTP status it maps onto.
#[derive(Debug)]
pub struct ApiError {
    /// 400 for anything wrong with the document, 500 for solver bugs.
    pub status: u16,
    /// Human-readable cause, echoed in the JSON error body.
    pub msg: String,
}

impl ApiError {
    /// A 400 with the given cause.
    pub fn bad(msg: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            msg: msg.into(),
        }
    }
}

/// The body members a plan depends on, in request-key order. Every
/// member [`RequestDoc::session`] reads must be listed here, or two
/// bodies that build different plans could share a request key.
const PLAN_INPUTS: [&str; 6] = ["netlist", "model", "probes", "horizon", "x0", "options"];

/// A request body parsed to JSON, with the request key of its plan
/// inputs. Nothing is built from it yet.
pub struct RequestDoc {
    doc: Json,
    key: PlanKey,
}

/// The stimulus half of a request: what varies per request without
/// touching the plan.
pub struct Drive {
    /// Explicit stimuli; empty means "use the netlist's sources".
    pub scenarios: Vec<InputSet>,
    /// Window count for `/stream` (and optionally windowed `/solve`).
    pub windows: Option<usize>,
    /// Drive levels for `/sweep`.
    pub levels: Option<Vec<f64>>,
}

impl RequestDoc {
    /// Parses a request body to JSON and hashes its plan inputs.
    ///
    /// # Errors
    /// [`ApiError`] (status 400) when the body is not UTF-8 JSON.
    pub fn parse(body: &[u8]) -> Result<RequestDoc, ApiError> {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::bad("request body is not UTF-8"))?;
        let doc = Json::parse(text).map_err(|e| ApiError::bad(e.to_string()))?;
        let key = request_key(&doc, &PLAN_INPUTS);
        Ok(RequestDoc { doc, key })
    }

    /// The request key: equal for bodies whose plan inputs are spelled
    /// identically, whatever their stimuli.
    pub fn key(&self) -> PlanKey {
        self.key
    }

    /// Builds the session and plan options from the plan inputs: the
    /// netlist parse and MNA assembly (or triplet assembly) that a
    /// request-key hit skips.
    ///
    /// # Errors
    /// [`ApiError`] (status 400) naming the offending field.
    pub fn session(&self) -> Result<(Simulation, SolveOptions), ApiError> {
        let doc = &self.doc;
        let horizon = doc
            .get("horizon")
            .and_then(Json::as_f64)
            .ok_or_else(|| ApiError::bad("`horizon` (a number) is required"))?;

        let mut sim = match (doc.get("netlist"), doc.get("model")) {
            (Some(netlist), None) => {
                let text = netlist
                    .as_str()
                    .ok_or_else(|| ApiError::bad("`netlist` must be a string"))?;
                let probes: Vec<&str> = match doc.get("probes") {
                    Some(p) => p
                        .as_array()
                        .ok_or_else(|| ApiError::bad("`probes` must be an array"))?
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .ok_or_else(|| ApiError::bad("`probes` entries must be strings"))
                        })
                        .collect::<Result<_, _>>()?,
                    None => Vec::new(),
                };
                Simulation::from_netlist(text, &probes).map_err(|e| ApiError::bad(e.to_string()))?
            }
            (None, Some(model)) => parse_model(model)?,
            _ => {
                return Err(ApiError::bad(
                    "exactly one of `netlist` or `model` is required",
                ))
            }
        };
        sim = sim.horizon(horizon);

        if let Some(x0) = doc.get("x0") {
            sim = sim.initial_state(parse_f64_array(x0, "x0")?);
        }

        let opts = match doc.get("options") {
            Some(o) => parse_options(o)?,
            None => SolveOptions::new(),
        };
        Ok((sim, opts))
    }

    /// Parses the stimulus half: `scenarios`, `windows` and `levels`.
    ///
    /// # Errors
    /// [`ApiError`] (status 400) naming the offending field.
    pub fn drive(&self) -> Result<Drive, ApiError> {
        let doc = &self.doc;
        let scenarios = match doc.get("scenarios") {
            Some(s) => {
                let list = s
                    .as_array()
                    .ok_or_else(|| ApiError::bad("`scenarios` must be an array"))?;
                list.iter().map(parse_scenario).collect::<Result<_, _>>()?
            }
            None => Vec::new(),
        };

        let windows = match doc.get("windows") {
            Some(w) => Some(
                w.as_usize()
                    .filter(|&w| w > 0)
                    .ok_or_else(|| ApiError::bad("`windows` must be a positive integer"))?,
            ),
            None => None,
        };

        let levels = match doc.get("levels") {
            Some(l) => Some(parse_f64_array(l, "levels")?),
            None => None,
        };
        Ok(Drive {
            scenarios,
            windows,
            levels,
        })
    }
}

impl Drive {
    /// The stimuli to run: explicit scenarios, or `sources` (the
    /// netlist's own) when none were posted.
    ///
    /// # Errors
    /// 400 when neither is available.
    pub fn stimuli(&self, sources: Option<&InputSet>) -> Result<Vec<InputSet>, ApiError> {
        stimuli(&self.scenarios, sources)
    }
}

fn stimuli(scenarios: &[InputSet], sources: Option<&InputSet>) -> Result<Vec<InputSet>, ApiError> {
    if !scenarios.is_empty() {
        return Ok(scenarios.to_vec());
    }
    match sources {
        Some(u) => Ok(vec![u.clone()]),
        None => Err(ApiError::bad(
            "`scenarios` is required when the model is not a netlist",
        )),
    }
}

/// A fully built `/solve`, `/sweep` or `/stream` request: the session
/// and the stimuli, with no cache involved.
pub struct SimRequest {
    /// The session the plan is (or was) built from.
    pub sim: Simulation,
    /// Plan options — part of the cache key.
    pub opts: SolveOptions,
    /// Explicit stimuli; empty means "use the netlist's sources".
    pub scenarios: Vec<InputSet>,
    /// Window count for `/stream` (and optionally windowed `/solve`).
    pub windows: Option<usize>,
    /// Drive levels for `/sweep`.
    pub levels: Option<Vec<f64>>,
}

impl SimRequest {
    /// Parses a request body and builds its session.
    ///
    /// # Errors
    /// [`ApiError`] (status 400) naming the offending field.
    pub fn parse(body: &[u8]) -> Result<SimRequest, ApiError> {
        let doc = RequestDoc::parse(body)?;
        let (sim, opts) = doc.session()?;
        let Drive {
            scenarios,
            windows,
            levels,
        } = doc.drive()?;
        Ok(SimRequest {
            sim,
            opts,
            scenarios,
            windows,
            levels,
        })
    }

    /// The stimuli to run: explicit scenarios, or the netlist's own
    /// sources when none were posted.
    ///
    /// # Errors
    /// 400 when neither is available.
    pub fn stimuli(&self) -> Result<Vec<InputSet>, ApiError> {
        stimuli(&self.scenarios, self.sim.inputs())
    }
}

fn parse_f64_array(v: &Json, field: &str) -> Result<Vec<f64>, ApiError> {
    v.as_array()
        .ok_or_else(|| ApiError::bad(format!("`{field}` must be an array of numbers")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| ApiError::bad(format!("`{field}` entries must be numbers")))
        })
        .collect()
}

fn parse_triplets(
    v: &Json,
    nrows: usize,
    ncols: usize,
    field: &str,
) -> Result<CsrMatrix, ApiError> {
    let rows = v.as_array().ok_or_else(|| {
        ApiError::bad(format!("`{field}` must be an array of [i, j, v] triplets"))
    })?;
    let mut coo = CooMatrix::new(nrows, ncols);
    for t in rows {
        let t = t
            .as_array()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| ApiError::bad(format!("`{field}` entries must be [i, j, v]")))?;
        let i = t[0]
            .as_usize()
            .filter(|&i| i < nrows)
            .ok_or_else(|| ApiError::bad(format!("`{field}` row index out of range")))?;
        let j = t[1]
            .as_usize()
            .filter(|&j| j < ncols)
            .ok_or_else(|| ApiError::bad(format!("`{field}` column index out of range")))?;
        let val = t[2]
            .as_f64()
            .ok_or_else(|| ApiError::bad(format!("`{field}` value must be a number")))?;
        coo.push(i, j, val);
    }
    Ok(coo.to_csr())
}

/// Rejects a declared matrix dimension larger than the triplets that
/// could fill it. Every dimension sizes an allocation (`to_csr` reserves
/// one row pointer per row), so it must be bounded by the body itself
/// before any matrix is built.
fn check_dim(field: &str, dim: usize, triplets: usize, of: &str) -> Result<(), ApiError> {
    if dim > triplets {
        return Err(ApiError::bad(format!(
            "`{field}` = {dim} exceeds the {triplets} triplet(s) of {of}"
        )));
    }
    Ok(())
}

fn parse_model(model: &Json) -> Result<Simulation, ApiError> {
    let triplets = |field: &str| {
        model
            .get(field)
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len)
    };
    let n = model
        .get("n")
        .and_then(Json::as_usize)
        .filter(|&n| n > 0)
        .ok_or_else(|| ApiError::bad("`model.n` (state dimension) is required"))?;
    // A pencil row with no `e` or `a` entry is singular anyway.
    check_dim(
        "model.n",
        n,
        triplets("e") + triplets("a"),
        "`model.e` and `model.a`",
    )?;
    let p = model
        .get("inputs")
        .and_then(Json::as_usize)
        .filter(|&p| p > 0)
        .ok_or_else(|| ApiError::bad("`model.inputs` (input count) is required"))?;
    check_dim("model.inputs", p, triplets("b"), "`model.b`")?;
    let e = parse_triplets(
        model
            .get("e")
            .ok_or_else(|| ApiError::bad("`model.e` is required"))?,
        n,
        n,
        "model.e",
    )?;
    let a = parse_triplets(
        model
            .get("a")
            .ok_or_else(|| ApiError::bad("`model.a` is required"))?,
        n,
        n,
        "model.a",
    )?;
    let b = parse_triplets(
        model
            .get("b")
            .ok_or_else(|| ApiError::bad("`model.b` is required"))?,
        n,
        p,
        "model.b",
    )?;
    let c = match model.get("c") {
        Some(c) => {
            let q = model
                .get("outputs")
                .and_then(Json::as_usize)
                .filter(|&q| q > 0)
                .ok_or_else(|| ApiError::bad("`model.outputs` is required alongside `model.c`"))?;
            check_dim("model.outputs", q, triplets("c"), "`model.c`")?;
            Some(parse_triplets(c, q, n, "model.c")?)
        }
        None => None,
    };
    let sys = DescriptorSystem::new(e, a, b, c).map_err(|e| ApiError::bad(e.to_string()))?;
    match model.get("alpha") {
        Some(alpha) => {
            let alpha = alpha
                .as_f64()
                .ok_or_else(|| ApiError::bad("`model.alpha` must be a number"))?;
            let fsys =
                FractionalSystem::new(alpha, sys).map_err(|e| ApiError::bad(e.to_string()))?;
            Ok(Simulation::from_fractional(fsys))
        }
        None => Ok(Simulation::from_system(sys)),
    }
}

fn parse_options(o: &Json) -> Result<SolveOptions, ApiError> {
    let mut opts = SolveOptions::new();
    if let Some(m) = o.get("resolution") {
        opts = opts.resolution(
            m.as_usize()
                .filter(|&m| m > 0)
                .ok_or_else(|| ApiError::bad("`options.resolution` must be a positive integer"))?,
        );
    }
    if let Some(method) = o.get("method") {
        let name = method
            .as_str()
            .ok_or_else(|| ApiError::bad("`options.method` must be a string"))?;
        opts = opts.method(match name {
            "auto" => opm_core::Method::Auto,
            "recurrence" => opm_core::Method::Recurrence,
            "accumulator" => opm_core::Method::Accumulator,
            "convolution" => opm_core::Method::Convolution,
            "kronecker" => opm_core::Method::Kronecker,
            other => return Err(ApiError::bad(format!("unknown method `{other}`"))),
        });
    }
    if let Some(grid) = o.get("step_grid") {
        opts = opts.step_grid(parse_f64_array(grid, "options.step_grid")?);
    }
    Ok(opts)
}

fn field(w: &Json, name: &str) -> Result<f64, ApiError> {
    w.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad(format!("waveform field `{name}` must be a number")))
}

fn field_or(w: &Json, name: &str, default: f64) -> Result<f64, ApiError> {
    match w.get(name) {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::bad(format!("waveform field `{name}` must be a number"))),
        None => Ok(default),
    }
}

fn parse_waveform(w: &Json) -> Result<Waveform, ApiError> {
    let kind = w
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad("each waveform needs a string `kind`"))?;
    match kind {
        "dc" => Ok(Waveform::Dc(field(w, "value")?)),
        "step" => Ok(Waveform::step(field_or(w, "t0", 0.0)?, field(w, "level")?)),
        "ramp" => Ok(Waveform::Ramp {
            slope: field(w, "slope")?,
        }),
        "pulse" => {
            let (rise, fall) = (field(w, "rise")?, field(w, "fall")?);
            let width = field(w, "width")?;
            let period = field_or(w, "period", 0.0)?;
            // The constructor asserts these; turn them into 400s.
            if rise <= 0.0 || fall <= 0.0 {
                return Err(ApiError::bad("pulse rise/fall must be positive"));
            }
            if period != 0.0 && period < rise + width + fall {
                return Err(ApiError::bad("pulse period must fit the pulse shape"));
            }
            Ok(Waveform::pulse(
                field(w, "v1")?,
                field(w, "v2")?,
                field_or(w, "delay", 0.0)?,
                rise,
                width,
                fall,
                period,
            ))
        }
        "sine" => Ok(Waveform::sine(
            field_or(w, "offset", 0.0)?,
            field(w, "ampl")?,
            field(w, "freq")?,
            field_or(w, "delay", 0.0)?,
            field_or(w, "damp", 0.0)?,
        )),
        "exp" => {
            let (tau1, tau2) = (field(w, "tau1")?, field(w, "tau2")?);
            let (td1, td2) = (field_or(w, "td1", 0.0)?, field(w, "td2")?);
            if tau1 <= 0.0 || tau2 <= 0.0 {
                return Err(ApiError::bad("exp time constants must be positive"));
            }
            if td2 < td1 {
                return Err(ApiError::bad("exp decay must start after the rise"));
            }
            Ok(Waveform::exp(
                field(w, "v1")?,
                field(w, "v2")?,
                td1,
                tau1,
                td2,
                tau2,
            ))
        }
        "pwl" => {
            let pts = w
                .get("points")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::bad("`points` (an array of [t, v]) is required"))?;
            let points: Vec<(f64, f64)> = pts
                .iter()
                .map(|p| {
                    let p = p
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| ApiError::bad("pwl points must be [t, v] pairs"))?;
                    Ok((
                        p[0].as_f64()
                            .ok_or_else(|| ApiError::bad("pwl times must be numbers"))?,
                        p[1].as_f64()
                            .ok_or_else(|| ApiError::bad("pwl values must be numbers"))?,
                    ))
                })
                .collect::<Result<_, ApiError>>()?;
            Waveform::pwl(points).map_err(|e| ApiError::bad(e.to_string()))
        }
        other => Err(ApiError::bad(format!("unknown waveform kind `{other}`"))),
    }
}

fn parse_scenario(s: &Json) -> Result<InputSet, ApiError> {
    // A scenario is a waveform list, optionally wrapped in
    // `{"waveforms": […]}`.
    let list = match s.get("waveforms") {
        Some(w) => w,
        None => s,
    };
    let waveforms = list
        .as_array()
        .ok_or_else(|| ApiError::bad("each scenario must be an array of waveforms"))?;
    Ok(InputSet::new(
        waveforms
            .iter()
            .map(parse_waveform)
            .collect::<Result<_, _>>()?,
    ))
}

/// One solved result as a response document: interval bounds plus the
/// output rows (state rows when the model has no `C`).
pub fn result_json(r: &OpmResult) -> Json {
    Json::Obj(vec![
        ("bounds".into(), Json::num_arr(&r.bounds)),
        (
            "outputs".into(),
            Json::Arr(r.outputs.iter().map(|row| Json::num_arr(row)).collect()),
        ),
    ])
}

/// The uniform error body: `{"error": …}`.
pub fn error_json(msg: &str) -> String {
    Json::Obj(vec![("error".into(), Json::str(msg))]).to_string()
}
