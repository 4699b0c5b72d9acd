//! Graph partitioning for the sharded service: the [`Partitioner`]
//! trait maps every edge to the shard that owns it, and the two built-in
//! schemes realize the row-block and 2D/hypersparse partitionings that
//! "GraphBLAS Mathematical Opportunities: Parallel Hypersparse, Matrix
//! Based Graph Streaming" (Jananthan et al.) argues for.
//!
//! A partitioner is a *routing policy*, not a storage constraint: shard
//! `s` owns exactly the edges `shard_of` assigns to it, so its slice of
//! the update log (one queue, one lock) nets into a delta of its own,
//! and the published snapshot is the previous one plus the disjoint
//! union of all shard deltas at one epoch, netted by the one epoch
//! coordinator in shard order. Because `shard_of`
//! is a pure function of the (canonicalized) edge key, every update to
//! one edge is serialized through one shard — per-edge last-write-wins
//! order is preserved at any shard count, which is what makes the
//! S∈{1,2,4} differential tests bit-identical.
//!
//! On undirected graphs the service canonicalizes each edge to
//! `(min, max)` *before* routing, and the coordinator writes both arcs
//! when it nets the owning shard's slice; a 2D partitioner therefore
//! sees only canonical keys.

use graphblas::Index;

/// Maps edges to shards. Implementations must be pure functions of the
/// edge key (same key → same shard, always) and total over
/// `0..nvertices` so no update is unroutable. The service refuses a
/// partitioner over 0 shards at construction, and an update routed past
/// the last shard at submission, with [`ServiceError::Graph`].
///
/// [`ServiceError::Graph`]: super::ServiceError::Graph
///
/// # Examples
///
/// ```
/// use lagraph::service::{Partitioner, RowBlock, Grid2D};
///
/// // Row blocks: contiguous row ranges, one per shard.
/// let p = RowBlock::new(1000, 4);
/// assert_eq!(p.shards(), 4);
/// assert_eq!(p.shard_of(0, 999), 0);    // row 0 → first block
/// assert_eq!(p.shard_of(999, 0), 3);    // row 999 → last block
///
/// // 2D grid: shards tile the adjacency matrix, hypersparse-style.
/// let p = Grid2D::new(1000, 2, 2);
/// assert_eq!(p.shards(), 4);
/// assert_eq!(p.shard_of(0, 0), 0);      // top-left block
/// assert_eq!(p.shard_of(999, 999), 3);  // bottom-right block
/// ```
pub trait Partitioner: Send + Sync + std::fmt::Debug {
    /// Number of shards this partitioner routes across (≥ 1).
    fn shards(&self) -> usize;

    /// The shard owning edge `(row, col)`; must be `< self.shards()`.
    fn shard_of(&self, row: Index, col: Index) -> usize;

    /// Short scheme name for logs, traces, and metrics labels.
    fn name(&self) -> &'static str;
}

/// 1D row-block partitioning: shard `s` owns the contiguous row range
/// `[s·⌈n/S⌉, (s+1)·⌈n/S⌉)`. The default scheme — replay locality is
/// high (each shard assembles a contiguous CSR row band) and the
/// combine step unions non-overlapping row ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    n: Index,
    shards: usize,
    rows_per_shard: Index,
}

impl RowBlock {
    /// Partition `n` rows into `shards` contiguous blocks (`shards`
    /// clamped to `1..=n`).
    pub fn new(n: Index, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        RowBlock { n, shards, rows_per_shard: n.div_ceil(shards).max(1) }
    }
}

impl Partitioner for RowBlock {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, row: Index, _col: Index) -> usize {
        debug_assert!(row < self.n);
        (row / self.rows_per_shard).min(self.shards - 1)
    }

    fn name(&self) -> &'static str {
        "row-block"
    }
}

/// 2D block-grid partitioning: the adjacency matrix is tiled into
/// `rows × cols` rectangular blocks, one shard each — the 2D /
/// hypersparse decomposition of Jananthan et al., which balances
/// heavy-hitter rows (a high-degree vertex's edges spread over a whole
/// block *row* instead of landing in one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2D {
    n: Index,
    rows: usize,
    cols: usize,
    rows_per_block: Index,
    cols_per_block: Index,
}

impl Grid2D {
    /// Tile an `n × n` adjacency into a `rows × cols` shard grid (each
    /// dimension clamped to `1..=n`).
    pub fn new(n: Index, rows: usize, cols: usize) -> Self {
        let rows = rows.clamp(1, n.max(1));
        let cols = cols.clamp(1, n.max(1));
        Grid2D {
            n,
            rows,
            cols,
            rows_per_block: n.div_ceil(rows).max(1),
            cols_per_block: n.div_ceil(cols).max(1),
        }
    }
}

impl Partitioner for Grid2D {
    fn shards(&self) -> usize {
        self.rows * self.cols
    }

    fn shard_of(&self, row: Index, col: Index) -> usize {
        debug_assert!(row < self.n && col < self.n);
        let br = (row / self.rows_per_block).min(self.rows - 1);
        let bc = (col / self.cols_per_block).min(self.cols - 1);
        br * self.cols + bc
    }

    fn name(&self) -> &'static str {
        "grid-2d"
    }
}

/// Fibonacci-hash edge partitioning — the PR-4 update-log sharding kept
/// as a [`Partitioner`] for workloads whose row distribution is too
/// skewed for blocks. Statistically balanced, but with no block
/// structure to exploit in the combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHash {
    shards: usize,
}

impl EdgeHash {
    /// Hash edges across `shards` (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        EdgeHash { shards: shards.max(1) }
    }
}

impl Partitioner for EdgeHash {
    fn shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, row: Index, col: Index) -> usize {
        let h = row
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(col.wrapping_mul(0xD1B5_4A32_D192_ED03));
        h % self.shards
    }

    fn name(&self) -> &'static str {
        "edge-hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_all_shards(p: &dyn Partitioner, n: Index) {
        let mut seen = vec![false; p.shards()];
        for i in 0..n {
            for j in 0..n {
                let s = p.shard_of(i, j);
                assert!(s < p.shards(), "{} routed ({i},{j}) to {s}", p.name());
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{} left a shard empty over a full grid", p.name());
    }

    #[test]
    fn row_block_is_total_and_contiguous() {
        let p = RowBlock::new(10, 3);
        covers_all_shards(&p, 10);
        // Contiguity: shard index is monotone in the row.
        let mut last = 0;
        for i in 0..10 {
            let s = p.shard_of(i, 0);
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn row_block_more_shards_than_rows_clamps() {
        let p = RowBlock::new(2, 8);
        assert_eq!(p.shards(), 2);
        covers_all_shards(&p, 2);
    }

    #[test]
    fn grid2d_tiles_the_matrix() {
        let p = Grid2D::new(8, 2, 2);
        assert_eq!(p.shards(), 4);
        covers_all_shards(&p, 8);
        assert_eq!(p.shard_of(0, 7), 1, "top-right block");
        assert_eq!(p.shard_of(7, 0), 2, "bottom-left block");
    }

    #[test]
    fn edge_hash_is_total() {
        let p = EdgeHash::new(3);
        covers_all_shards(&p, 16);
    }

    #[test]
    fn partitioners_are_pure() {
        let p = Grid2D::new(100, 3, 2);
        for (i, j) in [(0, 0), (57, 3), (99, 99)] {
            assert_eq!(p.shard_of(i, j), p.shard_of(i, j));
        }
    }
}
