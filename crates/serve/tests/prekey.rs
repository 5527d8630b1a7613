//! The request-key warm path: a repeated body is served through its
//! alias without rebuilding the model, while the structural key stays
//! the plan's identity.

use std::sync::Barrier;

use opm_core::json::Json;
use opm_core::Simulation;
use opm_core::{SolveOptions, WindowedOptions};
use opm_serve::api::RequestDoc;
use opm_serve::{client, spawn, Server, ServerConfig};

/// The RC low-pass with its source at `volts`.
fn netlist(volts: f64) -> String {
    format!("* RC low-pass\nV1 in 0 DC {volts}\nR1 in out 1k\nC1 out 0 1u\n.end")
}

/// A windowed `/solve` body driven by the netlist's own source.
fn body(netlist: &str) -> String {
    format!(
        r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 64}}, "windows": 2}}"#
    )
}

fn post(server: &Server, body: &str) -> Json {
    let r = client::post(server.addr(), "/solve", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    r.json().unwrap()
}

fn outputs(doc: &Json) -> Vec<u64> {
    doc.get("results").unwrap().as_array().unwrap()[0]
        .get("outputs")
        .unwrap()
        .as_array()
        .unwrap()[0]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect()
}

fn metrics(server: &Server) -> Json {
    client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap()
}

fn counter(m: &Json, name: &str) -> usize {
    m.get("plan_cache")
        .unwrap()
        .get(name)
        .unwrap()
        .as_usize()
        .unwrap()
}

fn factorizations(m: &Json) -> (usize, usize) {
    let plans = m.get("plans").unwrap().as_array().unwrap();
    let p = plans[0].get("profile").unwrap();
    (
        p.get("num_symbolic").unwrap().as_usize().unwrap(),
        p.get("num_numeric").unwrap().as_usize().unwrap(),
    )
}

/// A repeated body is a hit that factors nothing, reproduces its cold
/// response bit for bit, and moves `hits` by exactly one per request.
#[test]
fn repeated_body_is_a_bit_identical_hit() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = body(&netlist(5.0));
    let cold = post(&server, &body);
    assert_eq!(cold.get("cache").unwrap().as_str(), Some("miss"));
    let m0 = metrics(&server);
    let (hits0, work0) = (counter(&m0, "hits"), factorizations(&m0));
    assert_eq!(counter(&m0, "aliases"), 1);
    for k in 1..=3 {
        let warm = post(&server, &body);
        assert_eq!(warm.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(outputs(&warm), outputs(&cold), "request {k}");
        let m = metrics(&server);
        assert_eq!(counter(&m, "hits"), hits0 + k);
        assert_eq!(counter(&m, "misses"), 1);
        assert_eq!(factorizations(&m), work0, "a hit must not factor");
    }
    server.shutdown();
}

/// Two netlists that differ only in a source waveform share one plan,
/// and a body without `scenarios` is driven by its own netlist's source
/// on every hit.
#[test]
fn source_only_edits_share_a_plan_and_keep_their_sources() {
    let server = spawn(ServerConfig::default()).unwrap();
    let (five, two) = (netlist(5.0), netlist(2.0));
    let cold_five = post(&server, &body(&five));
    let cold_two = post(&server, &body(&two));
    assert_eq!(cold_five.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(cold_two.get("cache").unwrap().as_str(), Some("hit"));

    let want = |text: &str| -> Vec<u64> {
        let sim = Simulation::from_netlist(text, &["out"])
            .unwrap()
            .horizon(5e-3);
        let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
        plan.solve_windowed_opts(sim.inputs().unwrap(), &WindowedOptions::new(2))
            .unwrap()
            .output_row(0)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    for _ in 0..2 {
        for (text, cold) in [(&five, &cold_five), (&two, &cold_two)] {
            let warm = post(&server, &body(text));
            assert_eq!(warm.get("cache").unwrap().as_str(), Some("hit"));
            assert_eq!(outputs(&warm), outputs(cold));
            assert_eq!(outputs(&warm), want(text));
        }
    }
    assert_ne!(outputs(&cold_five), outputs(&cold_two));
    let m = metrics(&server);
    assert_eq!(m.get("plans").unwrap().as_array().unwrap().len(), 1);
    assert_eq!(counter(&m, "aliases"), 2);
    assert_eq!((counter(&m, "hits"), counter(&m, "misses")), (5, 1));
    server.shutdown();
}

/// Every plan input is part of the request key; the stimuli are not.
#[test]
fn request_key_covers_every_plan_input() {
    let base = r#"{"netlist": "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.end",
        "probes": ["out"], "horizon": 1e-3, "x0": [0, 0, 0],
        "options": {"resolution": 16}, "windows": 2,
        "scenarios": [[{"kind": "dc", "value": 1.0}]]}"#;
    let key = |body: &str| RequestDoc::parse(body.as_bytes()).unwrap().key();
    let k = key(base);
    let variants = [
        base.replace(r#"["out"]"#, r#"["in"]"#),
        base.replace("1e-3", "2e-3"),
        base.replace("[0, 0, 0]", "[0, 0, 1]"),
        base.replace(r#"{"resolution": 16}"#, r#"{"resolution": 32}"#),
        base.replace("1k", "2k"),
    ];
    for v in &variants {
        assert_ne!(key(v), k, "{v}");
    }
    let stimulus_only = base
        .replace(r#""windows": 2"#, r#""windows": 4"#)
        .replace(r#""value": 1.0"#, r#""value": 3.0"#);
    assert_eq!(key(&stimulus_only), k);
}

/// An alias dies with its plan: after LRU eviction the same body is a
/// counted miss again.
#[test]
fn eviction_drops_the_alias() {
    let server = spawn(ServerConfig {
        cache_capacity: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let a = body(&netlist(5.0));
    let b = body(&netlist(5.0).replace("1k", "2k"));
    post(&server, &a);
    post(&server, &b); // evicts a's plan, and with it a's alias
    let m = metrics(&server);
    assert_eq!((counter(&m, "len"), counter(&m, "aliases")), (1, 1));
    let again = post(&server, &a);
    assert_eq!(again.get("cache").unwrap().as_str(), Some("miss"));
    let m = metrics(&server);
    assert_eq!((counter(&m, "hits"), counter(&m, "misses")), (0, 3));
    server.shutdown();
}

/// Eight identical cold requests racing past the (empty) alias table
/// still build one plan: 1 symbolic + 1 numeric factorization.
#[test]
fn racing_cold_requests_factor_once() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = body(&netlist(5.0));
    let start = Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                post(&server, &body);
            });
        }
    });
    let m = metrics(&server);
    assert_eq!((counter(&m, "hits"), counter(&m, "misses")), (7, 1));
    assert_eq!(factorizations(&m), (1, 1));
    assert_eq!(counter(&m, "aliases"), 1);
    server.shutdown();
}
