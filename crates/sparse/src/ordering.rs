//! Fill-reducing orderings: reverse Cuthill–McKee and approximate
//! minimum degree.
//!
//! The Gilbert–Peierls LU fills in proportional to the envelope of the
//! permuted matrix; for the banded grid structures of power-delivery
//! networks RCM is both cheap and effective, while minimum degree wins on
//! more irregular topologies. Orderings operate on the symmetrized pattern
//! `A + Aᵀ` so they are safe for the unsymmetric MNA matrices.

use crate::csr::CsrMatrix;
use crate::perm::Permutation;

/// Builds the adjacency lists of the symmetrized pattern `A + Aᵀ`,
/// excluding the diagonal, each sorted.
pub fn symmetric_adjacency(a: &CsrMatrix) -> Vec<Vec<usize>> {
    assert_eq!(a.nrows(), a.ncols(), "ordering requires a square matrix");
    let n = a.nrows();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for (j, _) in a.row(i) {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// Finds a pseudo-peripheral node of the component containing `start`
/// (George–Liu double BFS heuristic).
fn pseudo_peripheral(adj: &[Vec<usize>], start: usize) -> usize {
    let n = adj.len();
    let mut node = start;
    let mut last_ecc = 0usize;
    let mut level = vec![usize::MAX; n];
    loop {
        // BFS from `node`.
        level.iter_mut().for_each(|l| *l = usize::MAX);
        level[node] = 0;
        let mut queue = std::collections::VecDeque::from([node]);
        let mut far = node;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    if level[v] > level[far]
                        || (level[v] == level[far] && adj[v].len() < adj[far].len())
                    {
                        far = v;
                    }
                    queue.push_back(v);
                }
            }
        }
        let ecc = level[far];
        if ecc <= last_ecc {
            return node;
        }
        last_ecc = ecc;
        node = far;
    }
}

/// Reverse Cuthill–McKee ordering of the symmetrized pattern of `a`.
///
/// Returns a [`Permutation`] `p` such that relabelling unknown `p.old_of(k)`
/// as `k` concentrates the pattern near the diagonal. Handles disconnected
/// graphs (each component seeded from a pseudo-peripheral node).
///
/// ```
/// use opm_sparse::{CooMatrix, ordering::rcm};
/// let mut c = CooMatrix::new(3, 3);
/// c.push(0, 2, 1.0); c.push(2, 0, 1.0);
/// for i in 0..3 { c.push(i, i, 1.0); }
/// let p = rcm(&c.to_csr());
/// assert_eq!(p.len(), 3);
/// ```
pub fn rcm(a: &CsrMatrix) -> Permutation {
    rcm_of(&symmetric_adjacency(a))
}

/// [`rcm`] over prebuilt [`symmetric_adjacency`] lists.
pub fn rcm_of(adj: &[Vec<usize>]) -> Permutation {
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut nbrs = Vec::new();

    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let root = pseudo_peripheral(adj, seed);
        // Cuthill–McKee BFS with neighbors sorted by ascending degree.
        visited[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            nbrs.clear();
            nbrs.extend(adj[u].iter().copied().filter(|&v| !visited[v]));
            nbrs.sort_unstable_by_key(|&v| adj[v].len());
            for &v in &nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order).expect("RCM produces a valid permutation")
}

/// Approximate minimum degree ordering (Amestoy, Davis & Duff 1996) of
/// the symmetrized pattern of `a`.
///
/// Elimination runs on a quotient graph: each pivot becomes an
/// *element*, the clique its elimination creates, stored once as a list
/// of variables rather than as fill edges. Elements adjacent to a pivot
/// are absorbed into the new one, and a variable's degree is the AMD
/// upper bound `min(d_old + |Lp∖i|, |A_i| + |Lp∖i| + Σ_e |L_e∖Lp|)`
/// instead of an exact count. Variables with identical adjacency merge
/// into supervariables, and variables reachable only through the new
/// element are eliminated with the pivot (mass elimination), so each
/// step touches only the pivot's neighbourhood. Rows denser than
/// `max(16, 10·√n)` are set aside and ordered last.
///
/// ```
/// use opm_sparse::{CooMatrix, ordering::amd};
/// let mut c = CooMatrix::new(4, 4);
/// for i in 0..4 { c.push(i, i, 1.0); }
/// for l in 1..4 { c.push(0, l, 1.0); c.push(l, 0, 1.0); }
/// let p = amd(&c.to_csr());
/// assert_eq!(p.len(), 4);
/// ```
pub fn amd(a: &CsrMatrix) -> Permutation {
    amd_of(symmetric_adjacency(a))
}

/// [`amd`] over prebuilt [`symmetric_adjacency`] lists, which it
/// consumes as its quotient-graph workspace.
pub fn amd_of(adjacency: Vec<Vec<usize>>) -> Permutation {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        /// A principal variable still to be eliminated.
        Var,
        /// Merged into a supervariable, or eliminated with its pivot.
        Merged,
        /// An element: an eliminated pivot's clique.
        Elem,
        /// An element absorbed into a later one.
        Absorbed,
        /// A dense row, ordered last.
        Dense,
    }
    use State::*;

    let mut vars = adjacency; // A_i of a variable, L_e of an element
    let n = vars.len();
    let dense = (10.0 * (n as f64).sqrt()).max(16.0) as usize;
    let mut state: Vec<State> = vars
        .iter()
        .map(|l| if l.len() > dense { Dense } else { Var })
        .collect();
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n]; // E_i of a variable
    let mut nv = vec![1usize; n]; // supervariable weights
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut esize = vec![0usize; n]; // weighted |L_e|
    let mut degree: Vec<usize> = vars
        .iter()
        .map(|l| l.iter().filter(|&&j| state[j] == Var).count())
        .collect();
    let mut left = state.iter().filter(|&&s| s == Var).count();
    let mut buckets = DegreeBuckets::new(n);
    for i in 0..n {
        if state[i] == Var {
            buckets.insert(i, degree[i]);
        }
    }
    // Stamped workspaces: `mark` for set membership, `w` for |L_e∖Lp|.
    let (mut mark, mut stamp) = (vec![0usize; n], 0usize);
    let (mut w, mut wmark) = (vec![0usize; n], vec![0usize; n]);
    let mut order = Vec::with_capacity(n);

    while let Some(p) = buckets.pop_min() {
        // Lp: the variables of every element and variable adjacent to p;
        // those elements are absorbed into p.
        stamp += 1;
        let in_lp = stamp;
        mark[p] = in_lp;
        let mut lp = Vec::new();
        for e in std::mem::take(&mut elems[p]) {
            if state[e] == Elem {
                for &i in &vars[e] {
                    if state[i] == Var && mark[i] != in_lp {
                        mark[i] = in_lp;
                        lp.push(i);
                    }
                }
                state[e] = Absorbed;
                vars[e] = Vec::new();
            }
        }
        for &i in &vars[p] {
            if state[i] == Var && mark[i] != in_lp {
                mark[i] = in_lp;
                lp.push(i);
            }
        }
        state[p] = Elem;
        left -= nv[p];
        order.push(p);
        order.append(&mut members[p]);
        let mut degme: usize = lp.iter().map(|&i| nv[i]).sum();
        for &i in &lp {
            buckets.remove(i, degree[i]);
        }

        // |L_e∖Lp| for every element adjacent to Lp.
        stamp += 1;
        for &i in &lp {
            for &e in &elems[i] {
                if state[e] == Elem {
                    if wmark[e] != stamp {
                        wmark[e] = stamp;
                        w[e] = esize[e];
                    }
                    w[e] -= nv[i];
                }
            }
        }

        // Prune each list of dead entries and of what element p now
        // covers; a variable left with no other neighbour goes with p.
        let mut ext: Vec<(usize, usize)> = Vec::with_capacity(lp.len());
        for &i in &lp {
            let mut d = 0;
            elems[i].retain(|&e| {
                if state[e] != Elem {
                    return false;
                }
                if w[e] == 0 {
                    state[e] = Absorbed; // L_e ⊆ Lp
                    return false;
                }
                d += w[e];
                true
            });
            vars[i].retain(|&j| {
                let keep = state[j] == Var && mark[j] != in_lp;
                if keep {
                    d += nv[j];
                }
                keep
            });
            if elems[i].is_empty() && vars[i].is_empty() {
                state[i] = Merged;
                degme -= nv[i];
                left -= nv[i];
                order.push(i);
                order.append(&mut members[i]);
            } else {
                ext.push((i, d));
            }
        }

        // Approximate external degrees, then a hash of each adjacency
        // to find indistinguishable variables.
        let mut hashed: Vec<(usize, usize)> = Vec::with_capacity(ext.len());
        for &(i, d) in &ext {
            let lp_ext = degme - nv[i];
            degree[i] = (degree[i] + lp_ext).min(d + lp_ext).min(left - nv[i]);
            elems[i].push(p);
            let h = vars[i]
                .iter()
                .chain(&elems[i])
                .fold(0usize, |h, &x| h.wrapping_add(x));
            hashed.push((h, i));
        }
        hashed.sort_unstable();
        for (a_idx, &(h, i)) in hashed.iter().enumerate() {
            if state[i] != Var {
                continue;
            }
            stamp += 1;
            for &x in vars[i].iter().chain(&elems[i]) {
                mark[x] = stamp;
            }
            for &(hj, j) in &hashed[a_idx + 1..] {
                if hj != h {
                    break;
                }
                let same = state[j] == Var
                    && vars[j].len() == vars[i].len()
                    && elems[j].len() == elems[i].len()
                    && vars[j].iter().chain(&elems[j]).all(|&x| mark[x] == stamp);
                if same {
                    degree[i] = degree[i].saturating_sub(nv[j]);
                    nv[i] += nv[j];
                    nv[j] = 0;
                    state[j] = Merged;
                    let mut moved = std::mem::take(&mut members[j]);
                    members[i].push(j);
                    members[i].append(&mut moved);
                }
            }
        }

        // The surviving principal variables are element p's list.
        let live: Vec<usize> = ext
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| state[i] == Var)
            .collect();
        for &i in &live {
            buckets.insert(i, degree[i]);
        }
        esize[p] = live.iter().map(|&i| nv[i]).sum();
        vars[p] = live;
    }
    order.extend((0..n).filter(|&i| state[i] == Dense));
    Permutation::from_vec(order).expect("AMD produces a valid permutation")
}

/// Doubly linked lists of variables by degree, with a moving minimum.
struct DegreeBuckets {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    min: usize,
}

impl DegreeBuckets {
    const NONE: usize = usize::MAX;

    fn new(n: usize) -> Self {
        DegreeBuckets {
            head: vec![Self::NONE; n + 1],
            next: vec![Self::NONE; n],
            prev: vec![Self::NONE; n],
            min: n + 1,
        }
    }

    fn insert(&mut self, i: usize, d: usize) {
        let h = self.head[d];
        self.next[i] = h;
        self.prev[i] = Self::NONE;
        if h != Self::NONE {
            self.prev[h] = i;
        }
        self.head[d] = i;
        self.min = self.min.min(d);
    }

    fn remove(&mut self, i: usize, d: usize) {
        let (nx, pv) = (self.next[i], self.prev[i]);
        if nx != Self::NONE {
            self.prev[nx] = pv;
        }
        if pv != Self::NONE {
            self.next[pv] = nx;
        } else {
            self.head[d] = nx;
        }
    }

    fn pop_min(&mut self) -> Option<usize> {
        while self.min < self.head.len() {
            let i = self.head[self.min];
            if i != Self::NONE {
                self.remove(i, self.min);
                return Some(i);
            }
            self.min += 1;
        }
        None
    }
}

/// Bandwidth of the pattern of `a` under permutation `p` — the quality
/// metric RCM optimizes for.
pub fn bandwidth(a: &CsrMatrix, p: &Permutation) -> usize {
    let inv = p.inverse();
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        let pi = inv.old_of(i);
        for (j, _) in a.row(i) {
            let pj = inv.old_of(j);
            bw = bw.max(pi.abs_diff(pj));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// 1-D chain graph labelled badly (even nodes first, then odd).
    fn scrambled_chain(n: usize) -> CsrMatrix {
        // Chain in "true" order is 0-1-2-...; we label true node t as
        // (t/2) if even else (n+1)/2 + t/2 to scramble locality.
        let label = |t: usize| {
            if t % 2 == 0 {
                t / 2
            } else {
                n.div_ceil(2) + t / 2
            }
        };
        let mut c = CooMatrix::new(n, n);
        for t in 0..n {
            c.push(label(t), label(t), 4.0);
            if t + 1 < n {
                c.push(label(t), label(t + 1), -1.0);
                c.push(label(t + 1), label(t), -1.0);
            }
        }
        c.to_csr()
    }

    #[test]
    fn rcm_restores_chain_bandwidth() {
        let a = scrambled_chain(40);
        let ident = Permutation::identity(40);
        let before = bandwidth(&a, &ident);
        let after = bandwidth(&a, &rcm(&a));
        assert!(before > 10, "scramble should start wide, got {before}");
        assert_eq!(after, 1, "a chain reorders to bandwidth 1");
    }

    #[test]
    fn amd_orders_star_hub_last() {
        // Star: center 0 connected to all others. Minimum degree
        // eliminates leaves (degree 1) before the hub (degree n−1).
        let n = 8;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
        }
        for l in 1..n {
            c.push(0, l, 1.0);
            c.push(l, 0, 1.0);
        }
        let p = amd(&c.to_csr());
        // Leaves (degree 1) are eliminated first; the hub only becomes
        // degree-1 when a single leaf remains, so it lands in the last two.
        let hub_pos = p.as_slice().iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= n - 2, "hub eliminated too early: {hub_pos}");
    }

    #[test]
    fn orderings_are_valid_permutations_on_disconnected_graphs() {
        let mut c = CooMatrix::new(6, 6);
        for i in 0..6 {
            c.push(i, i, 1.0);
        }
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        c.push(4, 5, 1.0);
        c.push(5, 4, 1.0);
        let a = c.to_csr();
        assert_eq!(rcm(&a).len(), 6);
        assert_eq!(amd(&a).len(), 6);
    }

    /// Random unsymmetric patterns with empty rows, a few dense rows
    /// (above the `10·√n` cut) and several components: every ordering
    /// AMD returns is a permutation of `0..n`, dense rows come last,
    /// and the result is deterministic.
    #[test]
    fn amd_is_a_valid_permutation_on_random_patterns() {
        let mut rng = opm_rng::StdRng::seed_from_u64(0xA3D_0001);
        for case in 0..40 {
            let n = rng.random_range(1..300usize);
            let mut c = CooMatrix::new(n, n);
            // Components: nodes are split into blocks that never link.
            let blocks = rng.random_range(1..5usize);
            let block = |i: usize| i * blocks / n;
            for _ in 0..rng.random_range(0..4 * n) {
                let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
                if block(i) == block(j) && i % 7 != 3 && j % 7 != 3 {
                    c.push(i, j, 1.0); // rows ≡ 3 (mod 7) stay empty
                }
            }
            let dense: Vec<usize> = (0..rng.random_range(0..3usize).min(n))
                .map(|_| rng.random_range(0..n))
                .filter(|&d| d % 7 != 3)
                .collect();
            for &d in &dense {
                for j in 0..n {
                    if j % 7 != 3 && j != d && block(j) == block(d) {
                        c.push(d, j, 1.0);
                    }
                }
            }
            let a = c.to_csr();
            let p = amd(&a);
            assert_eq!(p.len(), n, "case {case}");
            assert_eq!(p, amd(&a), "case {case}: AMD must be deterministic");
            let cut = (10.0 * (n as f64).sqrt()).max(16.0) as usize;
            let adj = symmetric_adjacency(&a);
            let heavy = (0..n).filter(|&i| adj[i].len() > cut).count();
            for &v in &p.as_slice()[n - heavy..] {
                assert!(
                    adj[v].len() > cut,
                    "case {case}: sparse row {v} in the dense tail"
                );
            }
        }
    }

    #[test]
    fn rcm_handles_unsymmetric_patterns() {
        let mut c = CooMatrix::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 1.0);
        }
        c.push(0, 2, 1.0); // only upper entry; symmetrization must catch it
        let p = rcm(&c.to_csr());
        assert_eq!(p.len(), 3);
    }
}
