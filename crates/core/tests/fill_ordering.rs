//! The pencil ordering selector: RCM or AMD by predicted fill.
//!
//! Fixed seeds throughout, so every run checks the same patterns.

use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::assemble_mna;
use opm_circuits::na::assemble_na;
use opm_core::engine::{fill_ordering, predicted_factor_nnz, FillOrdering};
use opm_core::{SimModel, Simulation, SolveOptions};
use opm_rng::StdRng;
use opm_sparse::ordering::{amd, rcm};
use opm_sparse::pencil::ShiftedPencil;
use opm_sparse::{CooMatrix, CsrMatrix, Permutation, SymbolicLu};

/// A `k × k` five-point mesh Laplacian plus a diagonal shift: the
/// pattern of `σC + G` for an RC mesh.
fn mesh(k: usize) -> CsrMatrix {
    let mut c = CooMatrix::new(k * k, k * k);
    for i in 0..k {
        for j in 0..k {
            let v = i * k + j;
            c.push(v, v, 4.5);
            if j + 1 < k {
                c.push(v, v + 1, -1.0);
                c.push(v + 1, v, -1.0);
            }
            if i + 1 < k {
                c.push(v, v + k, -1.0);
                c.push(v + k, v, -1.0);
            }
        }
    }
    c.to_csr()
}

/// A random symmetric, strictly diagonally dominant matrix: SPD, so the
/// LU keeps every diagonal pivot.
fn random_spd(rng: &mut StdRng, n: usize, extra: usize) -> CsrMatrix {
    let mut c = CooMatrix::new(n, n);
    let mut rowsum = vec![1.0; n];
    for _ in 0..extra {
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        if i != j {
            let v = rng.random_range(-1.0..1.0);
            c.push(i, j, v);
            c.push(j, i, v);
            rowsum[i] += v.abs();
            rowsum[j] += v.abs();
        }
    }
    for (i, s) in rowsum.iter().enumerate() {
        c.push(i, i, 2.0 * s);
    }
    c.to_csr()
}

fn symbolic_nnz(a: &CsrMatrix, order: &Permutation) -> usize {
    SymbolicLu::factor(&a.to_csc(), Some(order))
        .unwrap()
        .0
        .factor_nnz()
}

/// On SPD patterns the elimination-tree prediction is exact, for both
/// orderings and for random as well as mesh patterns.
#[test]
fn prediction_equals_symbolic_factor_nnz_on_spd_patterns() {
    let mut rng = StdRng::seed_from_u64(0xF111_0001);
    let mut cases: Vec<CsrMatrix> = (0..24)
        .map(|_| {
            let n = rng.random_range(1..200usize);
            let extra = rng.random_range(0..4 * n);
            random_spd(&mut rng, n, extra)
        })
        .collect();
    cases.extend([mesh(7), mesh(20)]);
    for (c, a) in cases.iter().enumerate() {
        let identity = Permutation::identity(a.nrows());
        for order in [identity, rcm(a), amd(a)] {
            assert_eq!(
                predicted_factor_nnz(a, &order),
                symbolic_nnz(a, &order),
                "case {c}"
            );
        }
    }
}

/// 2D meshes are where RCM's envelope fills in: the selector takes AMD
/// at every size from 24×24 to 64×64.
#[test]
fn selector_picks_amd_on_2d_meshes() {
    for k in [24, 32, 48, 64] {
        let a = mesh(k);
        let (order, kind) = fill_ordering(&a);
        assert_eq!(kind, FillOrdering::Amd, "{k}×{k}");
        assert!(
            symbolic_nnz(&a, &order) < symbolic_nnz(&a, &rcm(&a)),
            "{k}×{k}"
        );
    }
}

/// The choice and the factor size reach the plan's profile: an MNA mesh
/// netlist (with its voltage-source branch) records AMD and a factor
/// smaller than RCM's.
#[test]
fn plan_profile_records_the_choice() {
    let k = 24;
    let mut net = String::from("V1 n0_0 0 DC 1\n");
    for i in 0..k {
        for j in 0..k {
            if j + 1 < k {
                net += &format!("R{i}_{j}h n{i}_{j} n{i}_{} 100\n", j + 1);
            }
            if i + 1 < k {
                net += &format!("R{i}_{j}v n{i}_{j} n{}_{j} 100\n", i + 1);
            }
            net += &format!("C{i}_{j} n{i}_{j} 0 1n\n");
        }
    }
    let sim = Simulation::from_netlist(&net, &[]).unwrap().horizon(1e-6);
    let plan = sim.plan(&SolveOptions::new().resolution(8)).unwrap();
    let profile = plan.factor_profile();
    assert_eq!(profile.ordering, FillOrdering::Amd);
    let SimModel::Linear(sys) = sim.model() else {
        panic!("an RC netlist assembles a linear model")
    };
    let pencil = sys.e().lin_comb(1e9, -1.0, sys.a());
    assert!(profile.factor_nnz > 0);
    assert!(profile.factor_nnz < symbolic_nnz(&pencil, &rcm(&pencil)));
}

/// The pencil pattern a netlist's plan factors, and the profile's choice.
fn netlist_choice(net: &str) -> (CsrMatrix, FillOrdering) {
    let sim = Simulation::from_netlist(net, &[]).unwrap().horizon(1.0);
    let plan = sim.plan(&SolveOptions::new().resolution(8)).unwrap();
    let (e, a) = match sim.model() {
        SimModel::Linear(sys) => (sys.e(), sys.a()),
        SimModel::Fractional(f) => (f.system().e(), f.system().a()),
        _ => panic!("ladders assemble linear or fractional models"),
    };
    let pattern = ShiftedPencil::new(e, a).pattern().to_csr();
    (pattern, plan.factor_profile().ordering)
}

/// Chains and ladders have no fill under RCM, so AMD cannot beat it and
/// the tie keeps RCM: an RC chain, an R–CPE (fractional) ladder, and a
/// bare path pattern.
#[test]
fn selector_keeps_rcm_on_chains_and_ladders() {
    let mut rc = String::from("V1 in 0 DC 1\n");
    let mut cpe = String::from("V1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=200 {
        rc += &format!("R{k} {prev} n{k} 1k\nC{k} n{k} 0 1n\n");
        if k <= 20 {
            cpe += &format!("R{k} {prev} n{k} 1\nP{k} n{k} 0 CPE 1 0.5\n");
        }
        prev = format!("n{k}");
    }
    for net in [&rc, &cpe] {
        let (pattern, kind) = netlist_choice(net);
        assert_eq!(kind, FillOrdering::Rcm);
        assert_eq!(fill_ordering(&pattern).1, FillOrdering::Rcm);
    }
    let mut path = CooMatrix::new(300, 300);
    for i in 0..300 {
        path.push(i, i, 2.0);
        if i + 1 < 300 {
            path.push(i, i + 1, -1.0);
            path.push(i + 1, i, -1.0);
        }
    }
    let path = path.to_csr();
    let (order, kind) = fill_ordering(&path);
    assert_eq!(kind, FillOrdering::Rcm);
    assert_eq!(order, rcm(&path));
}

/// Table II power grids (NA and MNA pencils): RCM is kept exactly when
/// its predicted fill is no larger than AMD's.
#[test]
fn selector_keeps_rcm_on_table2_grids_where_it_fills_no_more() {
    for scale in [1, 2] {
        let spec = PowerGridSpec {
            layers: 3,
            rows: 8 * scale,
            cols: 8 * scale,
            num_loads: 8 * scale,
            ..Default::default()
        };
        let ckt = spec.build();
        let na = assemble_na(&ckt, &[]).unwrap().system;
        let mna = assemble_mna(&ckt, &[]).unwrap().system;
        let na_pattern = na
            .m2()
            .lin_comb(1.0, 1.0, na.m1())
            .lin_comb(1.0, 1.0, na.m0());
        let mna_pattern = ShiftedPencil::new(mna.e(), mna.a()).pattern().to_csr();
        for pattern in [na_pattern, mna_pattern] {
            let (order, kind) = fill_ordering(&pattern);
            let by_rcm = predicted_factor_nnz(&pattern, &rcm(&pattern));
            let by_amd = predicted_factor_nnz(&pattern, &amd(&pattern));
            let want = if by_rcm <= by_amd {
                FillOrdering::Rcm
            } else {
                FillOrdering::Amd
            };
            assert_eq!(kind, want, "scale {scale}: rcm {by_rcm}, amd {by_amd}");
            if kind == FillOrdering::Rcm {
                assert_eq!(order, rcm(&pattern));
            }
        }
    }
}
