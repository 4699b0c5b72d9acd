//! Independent reference implementations the outputs are checked
//! against. They work on a plain adjacency array built from the
//! extracted tuples and share no code with the library: queue BFS,
//! binary-heap Dijkstra, union-find components, sorted-intersection
//! triangle counting, plain power-iteration PageRank and Brandes
//! betweenness.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Compressed adjacency array over `n` vertices.
pub struct Adj {
    pub n: usize,
    ptr: Vec<usize>,
    idx: Vec<u32>,
    wgt: Vec<f64>,
}

impl Adj {
    /// Build from arcs `(from, to, weight)`; neighbours end up sorted by
    /// id. An undirected graph passes both arcs of every edge.
    pub fn from_arcs(n: usize, mut arcs: Vec<(usize, usize, f64)>) -> Self {
        let mut ptr = vec![0usize; n + 1];
        for &(i, _, _) in &arcs {
            ptr[i + 1] += 1;
        }
        for v in 0..n {
            ptr[v + 1] += ptr[v];
        }
        arcs.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let idx = arcs.iter().map(|&(_, j, _)| j as u32).collect();
        let wgt = arcs.iter().map(|&(_, _, w)| w).collect();
        Adj { n, ptr, idx, wgt }
    }

    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.idx[self.ptr[v]..self.ptr[v + 1]]
    }

    fn weights(&self, v: usize) -> &[f64] {
        &self.wgt[self.ptr[v]..self.ptr[v + 1]]
    }

    pub fn degree(&self, v: usize) -> usize {
        self.ptr[v + 1] - self.ptr[v]
    }
}

/// Queue BFS. `level[v]` is the depth with the source at 1, 0 if unreached
/// — the library's convention.
pub fn bfs_levels(g: &Adj, source: usize) -> Vec<i32> {
    let mut level = vec![0i32; g.n];
    let mut queue = VecDeque::from([source]);
    level[source] = 1;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if level[v as usize] == 0 {
                level[v as usize] = level[u] + 1;
                queue.push_back(v as usize);
            }
        }
    }
    level
}

/// Binary-heap Dijkstra; unreached vertices are `f64::INFINITY`.
pub fn dijkstra(g: &Adj, source: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.n];
    // Non-negative floats order like their bit patterns, which gives the
    // heap a total order without a wrapper type.
    let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), source))]);
    dist[source] = 0.0;
    while let Some(Reverse((bits, u))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u] {
            continue;
        }
        for (&v, &w) in g.neighbors(u).iter().zip(g.weights(u)) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd.to_bits(), v as usize)));
            }
        }
    }
    dist
}

/// Union-find component representative per vertex (path halving, union
/// by the smaller id, so the representative is the component's minimum).
pub fn components(g: &Adj) -> Vec<usize> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..g.n).collect();
    for u in 0..g.n {
        for &v in g.neighbors(u) {
            let (a, b) = (find(&mut parent, u), find(&mut parent, v as usize));
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    (0..g.n).map(|v| find(&mut parent, v)).collect()
}

/// Whether two labelings split the vertices into the same groups,
/// whatever names the groups carry.
pub fn same_partition(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a_to_b = std::collections::HashMap::new();
    let mut b_to_a = std::collections::HashMap::new();
    a.iter()
        .zip(b)
        .all(|(&x, &y)| *a_to_b.entry(x).or_insert(y) == y && *b_to_a.entry(y).or_insert(x) == x)
}

/// Triangles of an undirected simple graph: orient every edge from the
/// lower to the higher (degree, id) rank and intersect sorted out-lists.
pub fn triangles(g: &Adj) -> u64 {
    let rank = |v: usize| (g.degree(v), v);
    let out: Vec<Vec<u32>> = (0..g.n)
        .map(|u| {
            g.neighbors(u)
                .iter()
                .copied()
                .filter(|&v| v as usize != u && rank(u) < rank(v as usize))
                .collect()
        })
        .collect();
    let mut count = 0u64;
    for u in 0..g.n {
        for &v in &out[u] {
            let (a, b) = (&out[u], &out[v as usize]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// PageRank by plain power iteration in the GAP formulation (structure
/// only, dangling mass spread evenly), run well past the library's
/// tolerance so the comparison's 1e-4 L1 budget is the library's alone.
pub fn pagerank(g: &Adj, damping: f64) -> Vec<f64> {
    let n = g.n as f64;
    let mut r = vec![1.0 / n; g.n];
    for _ in 0..200 {
        let sink: f64 = (0..g.n).filter(|&v| g.degree(v) == 0).map(|v| r[v]).sum();
        let base = (1.0 - damping) / n + damping * sink / n;
        let mut next = vec![base; g.n];
        for (u, rank) in r.iter().enumerate() {
            let share = damping * rank / g.degree(u).max(1) as f64;
            for &v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        let delta: f64 = r.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        r = next;
        if delta < 1e-10 {
            break;
        }
    }
    r
}

/// Brandes betweenness over unweighted shortest paths, summed over
/// `sources`, without the source's own dependency and without halving —
/// the library's convention.
pub fn betweenness(g: &Adj, sources: &[usize]) -> Vec<f64> {
    let mut bc = vec![0.0; g.n];
    for &s in sources {
        let mut sigma = vec![0.0f64; g.n];
        let mut depth = vec![-1i64; g.n];
        let mut order = Vec::new();
        let mut queue = VecDeque::from([s]);
        sigma[s] = 1.0;
        depth[s] = 0;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in g.neighbors(u) {
                let v = v as usize;
                if depth[v] < 0 {
                    depth[v] = depth[u] + 1;
                    queue.push_back(v);
                }
                if depth[v] == depth[u] + 1 {
                    sigma[v] += sigma[u];
                }
            }
        }
        let mut delta = vec![0.0f64; g.n];
        for &w in order.iter().rev() {
            for &v in g.neighbors(w) {
                let v = v as usize;
                if depth[v] + 1 == depth[w] {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
    }
    bc
}

// ---------------------------------------------------------------------------
// Checks: each returns true when the program's output agrees with the oracle.
// ---------------------------------------------------------------------------

/// BFS levels as `(vertex, level)` pairs against the oracle; absent
/// vertices must be exactly the unreached ones.
pub fn check_bfs(g: &Adj, source: usize, got: &[(usize, i32)]) -> bool {
    let want = bfs_levels(g, source);
    let mut seen = vec![0i32; g.n];
    for &(v, l) in got {
        if v >= g.n {
            return false;
        }
        seen[v] = l;
    }
    seen == want
}

/// SSSP distances as `(vertex, distance)` pairs against Dijkstra.
/// Weights are small integers, so sums are exact and equality is too.
pub fn check_sssp(g: &Adj, source: usize, got: &[(usize, f64)]) -> bool {
    let want = dijkstra(g, source);
    let mut seen = vec![f64::INFINITY; g.n];
    for &(v, d) in got {
        if v >= g.n {
            return false;
        }
        seen[v] = d;
    }
    seen == want
}

/// Component labels (dense, one per vertex) against union-find.
pub fn check_components(g: &Adj, got: &[(usize, u64)]) -> bool {
    if got.len() != g.n {
        return false;
    }
    let mut labels = vec![usize::MAX; g.n];
    for &(v, c) in got {
        if v >= g.n {
            return false;
        }
        labels[v] = c as usize;
    }
    same_partition(&labels, &components(g))
}

/// Degree counts (sparse: zero-degree vertices absent) against the graph.
pub fn check_degrees(g: &Adj, got: &[(usize, i64)]) -> bool {
    let mut seen = vec![0i64; g.n];
    for &(v, d) in got {
        if v >= g.n || d <= 0 {
            return false;
        }
        seen[v] = d;
    }
    (0..g.n).all(|v| seen[v] == g.degree(v) as i64)
}

/// PageRank ranks (dense) within `tol` L1 of the oracle.
pub fn check_pagerank(g: &Adj, damping: f64, got: &[(usize, f64)], tol: f64) -> bool {
    if got.len() != g.n {
        return false;
    }
    let want = pagerank(g, damping);
    let l1: f64 =
        got.iter().map(|&(v, r)| (r - want.get(v).copied().unwrap_or(f64::NAN)).abs()).sum();
    l1 <= tol
}

/// Betweenness (absent entries read as 0) within a relative 1e-6 of Brandes.
pub fn check_betweenness(g: &Adj, sources: &[usize], got: &[(usize, f64)]) -> bool {
    let want = betweenness(g, sources);
    let mut seen = vec![0.0f64; g.n];
    for &(v, x) in got {
        if v >= g.n {
            return false;
        }
        seen[v] = x;
    }
    seen.iter().zip(&want).all(|(a, b)| (a - b).abs() <= 1e-6 * b.abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-checked 8-vertex graph:
    ///
    /// ```text
    ///   0 --1-- 1 --2-- 3 --1-- 4        6 --3-- 7
    ///    \      |      /
    ///     4     1     5                  (5 is isolated)
    ///      \    |    /
    ///       +-- 2 --+
    /// ```
    ///
    /// Edges (weight): 0-1 (1), 0-2 (4), 1-2 (1), 1-3 (2), 2-3 (5),
    /// 3-4 (1), 6-7 (3). Triangles: {0,1,2} and {1,2,3}.
    fn g8() -> Adj {
        let edges = [
            (0, 1, 1.0),
            (0, 2, 4.0),
            (1, 2, 1.0),
            (1, 3, 2.0),
            (2, 3, 5.0),
            (3, 4, 1.0),
            (6, 7, 3.0),
        ];
        let arcs: Vec<_> = edges.iter().flat_map(|&(i, j, w)| [(i, j, w), (j, i, w)]).collect();
        Adj::from_arcs(8, arcs)
    }

    fn pairs<T: Copy + PartialEq>(dense: &[T], absent: T) -> Vec<(usize, T)> {
        dense.iter().copied().enumerate().filter(|&(_, x)| x != absent).collect()
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = g8();
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(5), &[] as &[u32]);
        assert_eq!(g.degree(3), 3);
    }

    #[test]
    fn bfs_on_g8() {
        let g = g8();
        assert_eq!(bfs_levels(&g, 0), vec![1, 2, 2, 3, 4, 0, 0, 0]);
        assert_eq!(bfs_levels(&g, 6), vec![0, 0, 0, 0, 0, 0, 1, 2]);
        assert!(check_bfs(&g, 0, &pairs(&[1, 2, 2, 3, 4, 0, 0, 0], 0)));
    }

    #[test]
    fn an_injected_wrong_bfs_level_is_a_failure() {
        let g = g8();
        let mut levels = [1, 2, 2, 3, 4, 0, 0, 0];
        levels[3] = 2; // one level off
        assert!(!check_bfs(&g, 0, &pairs(&levels, 0)));
        // A vertex claimed reached that is not, and one dropped.
        assert!(!check_bfs(&g, 0, &pairs(&[1, 2, 2, 3, 4, 5, 0, 0], 0)));
        assert!(!check_bfs(&g, 0, &pairs(&[1, 2, 2, 3, 0, 0, 0, 0], 0)));
    }

    #[test]
    fn dijkstra_on_g8() {
        let g = g8();
        let inf = f64::INFINITY;
        // 0→2 goes through 1 (1+1 < 4); 0→3 through 1 (1+2 < 2+5).
        assert_eq!(dijkstra(&g, 0), vec![0.0, 1.0, 2.0, 3.0, 4.0, inf, inf, inf]);
        assert!(check_sssp(&g, 0, &pairs(&[0.0, 1.0, 2.0, 3.0, 4.0, inf, inf, inf], inf)));
        assert!(!check_sssp(&g, 0, &pairs(&[0.0, 1.0, 4.0, 3.0, 4.0, inf, inf, inf], inf)));
    }

    #[test]
    fn components_on_g8() {
        let g = g8();
        assert_eq!(components(&g), vec![0, 0, 0, 0, 0, 5, 6, 6]);
        // Any relabeling of the same partition passes; a merge or split fails.
        let relabeled: Vec<(usize, u64)> =
            [9, 9, 9, 9, 9, 2, 4, 4].iter().map(|&c| c as u64).enumerate().collect();
        assert!(check_components(&g, &relabeled));
        let merged: Vec<(usize, u64)> =
            [0, 0, 0, 0, 0, 0, 6, 6].iter().map(|&c| c as u64).enumerate().collect();
        assert!(!check_components(&g, &merged));
        let split: Vec<(usize, u64)> =
            [0, 0, 0, 0, 4, 5, 6, 6].iter().map(|&c| c as u64).enumerate().collect();
        assert!(!check_components(&g, &split));
        assert!(same_partition(&[1, 1, 2], &[7, 7, 3]));
        assert!(!same_partition(&[1, 1, 2], &[7, 3, 3]));
    }

    #[test]
    fn triangles_on_g8() {
        assert_eq!(triangles(&g8()), 2);
        // K4 has 4.
        let arcs: Vec<_> = (0..4)
            .flat_map(|i| (0..4).filter(move |&j| j != i).map(move |j| (i, j, 1.0)))
            .collect();
        assert_eq!(triangles(&Adj::from_arcs(4, arcs)), 4);
    }

    #[test]
    fn degrees_on_g8() {
        let g = g8();
        assert!(check_degrees(&g, &pairs(&[2, 3, 3, 3, 1, 0, 1, 1], 0)));
        assert!(!check_degrees(&g, &pairs(&[2, 3, 3, 3, 1, 1, 1, 1], 0)));
        assert!(!check_degrees(&g, &pairs(&[2, 3, 3, 2, 1, 0, 1, 1], 0)));
    }

    #[test]
    fn pagerank_on_g8() {
        let g = g8();
        let r = pagerank(&g, 0.85);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9, "ranks sum to 1");
        // 6 and 7 are symmetric; the isolated vertex holds the least rank;
        // the degree-3 vertices of the big component outrank its leaf.
        assert!((r[6] - r[7]).abs() < 1e-12);
        assert!(r[5] < r[6] && r[5] < r[4]);
        assert!(r[1] > r[0] && r[3] > r[4]);
        // Fixed point: one more sweep changes nothing.
        let n = 8.0;
        let sink = r[5];
        let mut next = vec![0.15 / n + 0.85 * sink / n; 8];
        for (u, rank) in r.iter().enumerate() {
            for &v in g.neighbors(u) {
                next[v as usize] += 0.85 * rank / g.degree(u) as f64;
            }
        }
        assert!(r.iter().zip(&next).all(|(a, b)| (a - b).abs() < 1e-9));
        let dense: Vec<(usize, f64)> = r.iter().copied().enumerate().collect();
        assert!(check_pagerank(&g, 0.85, &dense, 1e-4));
        let mut off = dense.clone();
        off[1].1 += 1e-3;
        assert!(!check_pagerank(&g, 0.85, &off, 1e-4));
    }

    #[test]
    fn betweenness_on_g8() {
        let g = g8();
        // From source 0 (BFS depths 0:0, 1:1, 2:1, 3:2, 4:3; two shortest
        // paths reach 3, via 1 and via 2): δ(3) = 1 (for 4), δ(1) = δ(2) =
        // ½·(1 + δ(3)) = 1. From source 4: δ(3) = 3 (1, 2 and 0 hang off
        // it), δ(1) = δ(2) = ½ (half of 0's paths each).
        assert_eq!(betweenness(&g, &[0]), vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(betweenness(&g, &[4]), vec![0.0, 0.5, 0.5, 3.0, 0.0, 0.0, 0.0, 0.0]);
        // Sources add up.
        assert_eq!(betweenness(&g, &[0, 4]), vec![0.0, 1.5, 1.5, 4.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(check_betweenness(&g, &[0, 4], &[(1, 1.5), (2, 1.5), (3, 4.0)]));
        assert!(!check_betweenness(&g, &[0, 4], &[(1, 1.5), (2, 1.5), (3, 3.0)]));
    }
}
