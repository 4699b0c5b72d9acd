//! Everything a run feeds the program is derived here from `--seed`: the
//! graph seed, the source list, the hot set and the update stream. The
//! program only ever sees these generated inputs, never the seed.

use std::collections::HashMap;

use lagraph::gen;

/// Sub-stream tags: one seed fans out into independent streams.
pub const GRAPH: u64 = 1;
pub const SOURCES: u64 = 2;
pub const UPDATES: u64 = 3;
pub const READER: u64 = 4;
pub const PROBES: u64 = 5;

/// SplitMix64 finalizer over `(seed, stream)`: distinct streams of one
/// seed and equal streams of distinct seeds are uncorrelated.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// `k` distinct vertices that have at least one edge, as GAP picks its
/// sources: an isolated source makes a traversal trivially short.
/// Fewer than `k` come back only when fewer such vertices exist.
pub fn pick_sources(degree: &[u32], k: usize, seed: u64) -> Vec<usize> {
    let n = degree.len();
    let mut out: Vec<usize> = gen::sample_distinct(n, (8 * k).min(n), seed)
        .into_iter()
        .filter(|&v| degree[v] > 0)
        .take(k)
        .collect();
    if out.len() < k {
        // Sparse survivors: walk a full permutation instead.
        out = gen::permutation(n, seed).into_iter().filter(|&v| degree[v] > 0).take(k).collect();
    }
    out
}

/// Out-degree per vertex from the adjacency's arcs.
pub fn degrees(n: usize, arcs: &[(usize, usize, f64)]) -> Vec<u32> {
    let mut d = vec![0u32; n];
    for &(i, _, _) in arcs {
        d[i] += 1;
    }
    d
}

/// One edge mutation of the update stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Insert(usize, usize, f64),
    Delete(usize, usize),
}

/// The driver's mirror of the served graph: the undirected edge set (one
/// canonical `(lo, hi)` arc per edge) with weights, advanced by the same
/// update stream the service is fed, so at quiescence the two can be
/// compared edge for edge.
pub struct Mirror {
    n: usize,
    rng: Rng,
    /// Present edges, for uniform sampling of deletes.
    edges: Vec<(u32, u32)>,
    /// Edge → (position in `edges`, weight).
    index: HashMap<(u32, u32), (usize, f64)>,
    hash: u64,
    emitted: u64,
}

impl Mirror {
    /// Mirror of a symmetric adjacency given as arcs; each undirected
    /// edge appears twice in `arcs` and is kept once.
    pub fn new(n: usize, arcs: &[(usize, usize, f64)], seed: u64) -> Self {
        let mut m = Mirror {
            n,
            rng: Rng::new(seed),
            edges: Vec::with_capacity(arcs.len() / 2),
            index: HashMap::with_capacity(arcs.len() / 2),
            hash: 0xCBF2_9CE4_8422_2325,
            emitted: 0,
        };
        for &(i, j, w) in arcs {
            if i < j {
                m.put(i as u32, j as u32, w);
            }
        }
        m
    }

    fn put(&mut self, lo: u32, hi: u32, w: f64) {
        match self.index.get_mut(&(lo, hi)) {
            Some(slot) => slot.1 = w,
            None => {
                self.index.insert((lo, hi), (self.edges.len(), w));
                self.edges.push((lo, hi));
            }
        }
    }

    fn take(&mut self, lo: u32, hi: u32) {
        if let Some((pos, _)) = self.index.remove(&(lo, hi)) {
            self.edges.swap_remove(pos);
            if let Some(&moved) = self.edges.get(pos) {
                self.index.get_mut(&moved).expect("mirror index covers every edge").0 = pos;
            }
        }
    }

    /// The next update of the stream, already applied to the mirror:
    /// 7/8 inserts of a uniform vertex pair (an existing edge is
    /// re-weighted), 1/8 deletes of an edge that is present.
    pub fn next_op(&mut self) -> Op {
        let delete = self.rng.below(8) == 0 && !self.edges.is_empty();
        let op = if delete {
            let (lo, hi) = self.edges[self.rng.below(self.edges.len())];
            self.take(lo, hi);
            Op::Delete(lo as usize, hi as usize)
        } else {
            let u = self.rng.below(self.n);
            let mut v = self.rng.below(self.n - 1);
            if v >= u {
                v += 1;
            }
            let w = (1 + self.rng.below(255)) as f64;
            let (lo, hi) = (u.min(v) as u32, u.max(v) as u32);
            self.put(lo, hi, w);
            // Alternate orientation so the service's canonicalization runs.
            if self.emitted.is_multiple_of(2) {
                Op::Insert(u, v, w)
            } else {
                Op::Insert(v, u, w)
            }
        };
        self.emitted += 1;
        let (tag, a, b, w) = match op {
            Op::Insert(a, b, w) => (1u64, a, b, w.to_bits()),
            Op::Delete(a, b) => (2u64, a, b, 0),
        };
        for word in [tag, a as u64, b as u64, w] {
            self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
        op
    }

    /// FNV-style hash of every update emitted so far: equal streams hash
    /// equal.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    /// Updates emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    pub fn nvertices(&self) -> usize {
        self.n
    }

    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    pub fn weight(&self, i: usize, j: usize) -> Option<f64> {
        self.index.get(&(i.min(j) as u32, i.max(j) as u32)).map(|&(_, w)| w)
    }

    /// Both arcs of every present edge.
    pub fn arcs(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.edges.len() * 2);
        for &(lo, hi) in &self.edges {
            let w = self.index[&(lo, hi)].1;
            out.push((lo as usize, hi as usize, w));
            out.push((hi as usize, lo as usize, w));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_arcs(n: usize) -> Vec<(usize, usize, f64)> {
        (0..n).flat_map(|i| [(i, (i + 1) % n, 1.0), ((i + 1) % n, i, 1.0)]).collect()
    }

    fn stream(seed: u64, len: usize) -> (Vec<Op>, u64) {
        let mut m = Mirror::new(64, &ring_arcs(64), mix(seed, UPDATES));
        let ops = (0..len).map(|_| m.next_op()).collect();
        (ops, m.stream_hash())
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different() {
        let degree = vec![1u32; 4096];
        let a = pick_sources(&degree, 16, mix(42, SOURCES));
        assert_eq!(a, pick_sources(&degree, 16, mix(42, SOURCES)));
        assert_ne!(a, pick_sources(&degree, 16, mix(43, SOURCES)));
        assert_eq!(a.len(), 16);

        let (ops_a, hash_a) = stream(42, 500);
        let (ops_b, hash_b) = stream(42, 500);
        let (ops_c, hash_c) = stream(43, 500);
        assert_eq!(ops_a, ops_b);
        assert_eq!(hash_a, hash_b);
        assert_ne!(ops_a, ops_c);
        assert_ne!(hash_a, hash_c);
    }

    #[test]
    fn sources_are_distinct_and_never_isolated() {
        let mut degree = vec![0u32; 1000];
        for v in (0..1000).step_by(10) {
            degree[v] = 3;
        }
        let s = pick_sources(&degree, 16, 7);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|&v| degree[v] > 0));
        let uniq: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(uniq.len(), 16);
        // Fewer eligible vertices than asked for: all of them, no panic.
        let mut few = vec![0u32; 100];
        few[3] = 1;
        few[9] = 1;
        let mut got = pick_sources(&few, 16, 7);
        got.sort_unstable();
        assert_eq!(got, vec![3, 9]);
    }

    #[test]
    fn mirror_replays_its_own_stream() {
        let mut m = Mirror::new(64, &ring_arcs(64), 5);
        assert_eq!(m.nedges(), 64);
        // An independent replay of the emitted ops lands on the same edge set.
        let mut replay: HashMap<(usize, usize), f64> =
            ring_arcs(64).into_iter().filter(|a| a.0 < a.1).map(|(i, j, w)| ((i, j), w)).collect();
        let (mut inserts, mut deletes) = (0, 0);
        for _ in 0..2000 {
            match m.next_op() {
                Op::Insert(a, b, w) => {
                    assert_ne!(a, b);
                    replay.insert((a.min(b), a.max(b)), w);
                    inserts += 1;
                }
                Op::Delete(a, b) => {
                    assert!(
                        replay.remove(&(a.min(b), a.max(b))).is_some(),
                        "delete of absent edge"
                    );
                    deletes += 1;
                }
            }
        }
        assert!(deletes > 150 && deletes < 350, "about 1/8 deletes, got {deletes}/{inserts}");
        assert_eq!(m.nedges(), replay.len());
        for (&(i, j), &w) in &replay {
            assert_eq!(m.weight(i, j), Some(w));
            assert_eq!(m.weight(j, i), Some(w));
        }
        assert_eq!(m.arcs().len(), 2 * replay.len());
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut r = Rng::new(1);
        for n in [1usize, 2, 7, 255, 1 << 20] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }
}
