//! Measured cost model for kernel selection.
//!
//! The push/pull direction choice in `mxv`/`vxm` and the Gustavson/dot
//! method choice in `mxm` both reduce to the same question: is it cheaper
//! to expand the sparse input (saxpy-style scatter work) or to compute
//! only the requested outputs (dot-style gather work)? Instead of a fixed
//! ratio (the old `PUSH_PULL_RATIO = 10` and `mask.nvals() <= 4 * out_rows`
//! rules), each candidate kernel gets a flops estimate and the estimates
//! are weighted by **measured** per-flop constants:
//!
//! * push / Gustavson work ≈ input nnz × average row degree, costed at the
//!   calibrated scatter rate;
//! * pull / masked-dot work ≈ dense-view build + considered rows × per-row
//!   cost, costed at the calibrated dot rate.
//!
//! Calibration runs once per process (the first product that consults the
//! model): two synthetic micro-kernels — one scatter-shaped, one
//! dot-shaped — are timed and aggregated through the
//! [`crate::trace::Profile`] machinery, giving nanoseconds-per-flop
//! constants on the *actual* host. The result is recorded as a
//! `cost.calibrate` instant event so Chrome traces show which constants
//! every subsequent direction choice used. The `GRAPHBLAS_COST_MODEL`
//! environment variable (`"<push_ns>,<pull_ns>"`) overrides calibration
//! for reproducible runs.
//!
//! Every estimator below saturates: operand dimensions may legitimately
//! sit near `Index::MAX` (hypersparse matrices), and a debug-build
//! overflow in a *heuristic* must never abort a correct product.

use std::sync::OnceLock;
use std::time::Instant;

use crate::trace::{self, ArgValue, Cat, Event, Profile};

/// Measured per-flop costs, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one scatter-side (saxpy) flop: read a matrix entry, combine
    /// into a random position of an accumulator.
    pub push_ns: f64,
    /// Cost of one dot-side flop: read a matrix entry, gather from a dense
    /// vector, fold into a register accumulator.
    pub pull_ns: f64,
}

impl CostModel {
    /// Estimated nanoseconds for `flops` of scatter-side work.
    pub fn push_cost(&self, flops: usize) -> f64 {
        self.push_ns * flops as f64
    }

    /// Estimated nanoseconds for `flops` of dot-side work.
    pub fn pull_cost(&self, flops: usize) -> f64 {
        self.pull_ns * flops as f64
    }

    /// True when the scatter-side estimate is strictly cheaper.
    pub fn push_wins(&self, push_flops: usize, pull_flops: usize) -> bool {
        self.push_cost(push_flops) < self.pull_cost(pull_flops)
    }
}

/// The process-wide cost model, calibrated on first use (or taken from
/// `GRAPHBLAS_COST_MODEL`). Constant for the life of the process, so a
/// given operand shape always resolves to the same direction — the
/// determinism the thread-equivalence suite relies on.
pub fn model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        crate::env::var("GRAPHBLAS_COST_MODEL", COST_MODEL_SYNTAX, parse_env)
            .unwrap_or_else(calibrate)
    })
}

const COST_MODEL_SYNTAX: &str = "'<push_ns>,<pull_ns>' with positive numbers";

/// Parse a `GRAPHBLAS_COST_MODEL="<push_ns>,<pull_ns>"` override. An
/// invalid value falls back to calibration after [`crate::env::var`]'s
/// warning.
fn parse_env(v: &str) -> Option<CostModel> {
    let (p, q) = v.split_once(',')?;
    let push_ns: f64 = p.trim().parse().ok()?;
    let pull_ns: f64 = q.trim().parse().ok()?;
    (push_ns.is_finite() && push_ns > 0.0 && pull_ns.is_finite() && pull_ns > 0.0)
        .then_some(CostModel { push_ns, pull_ns })
}

/// Bounds on a believable per-flop cost; timings outside them (clock
/// glitches, preemption) are clamped rather than trusted.
const MIN_NS_PER_FLOP: f64 = 0.05;
const MAX_NS_PER_FLOP: f64 = 1000.0;

/// Time the two kernel shapes on synthetic data and derive ns-per-flop
/// constants through a [`Profile`] over the timing events. A few hundred
/// microseconds, paid once per process.
fn calibrate() -> CostModel {
    const N: usize = 1 << 10;
    const DEG: usize = 8;
    const REPS: u32 = 5;
    let flops = (N * DEG) as u64;
    // Synthetic CSR-shaped data: N rows of DEG entries with a scrambled
    // (cache-unfriendly, like real scatter targets) column pattern.
    let cols: Vec<usize> = (0..N * DEG).map(|t| (t.wrapping_mul(7919) + 13) % N).collect();
    let vals: Vec<f64> = (0..N * DEG).map(|t| (t % 13) as f64 + 1.0).collect();

    let mut events: Vec<Event> = Vec::new();
    let mut sample = |name: &'static str, dur_ns: u64| {
        events.push(Event {
            name,
            cat: Cat::Runtime,
            kernel: None,
            t0_ns: 0,
            dur_ns: dur_ns.max(1),
            tid: 0,
            args: vec![("flops", ArgValue::U64(flops))],
        });
    };

    // Scatter shape: combine every entry into a stamped dense accumulator.
    let mut acc = vec![0.0f64; N];
    let mut stamp = vec![0u32; N];
    for rep in 1..=REPS {
        let t0 = Instant::now();
        for r in 0..N {
            for t in r * DEG..(r + 1) * DEG {
                let j = cols[t];
                let prod = vals[t] * 2.0;
                if stamp[j] == rep {
                    acc[j] += prod;
                } else {
                    stamp[j] = rep;
                    acc[j] = prod;
                }
            }
        }
        std::hint::black_box(&acc);
        sample("cost.push", t0.elapsed().as_nanos() as u64);
    }

    // Dot shape: per row, gather from a dense vector and fold.
    let dense: Vec<f64> = (0..N).map(|i| (i % 7) as f64 + 0.5).collect();
    let mut sink = 0.0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for r in 0..N {
            let mut s = 0.0f64;
            for t in r * DEG..(r + 1) * DEG {
                s += vals[t] * dense[cols[t]];
            }
            sink += s;
        }
        std::hint::black_box(sink);
        sample("cost.pull", t0.elapsed().as_nanos() as u64);
    }

    let p = Profile::from_events(&events);
    let per_flop = |name: &str| -> f64 {
        p.ops
            .get(name)
            .filter(|o| o.total_flops > 0)
            .map(|o| {
                (o.total_ns as f64 / o.total_flops as f64).clamp(MIN_NS_PER_FLOP, MAX_NS_PER_FLOP)
            })
            .unwrap_or(1.0)
    };
    let m = CostModel { push_ns: per_flop("cost.push"), pull_ns: per_flop("cost.pull") };
    trace::cost_calibrated(m.push_ns, m.pull_ns);
    m
}

// ---------------------------------------------------------------------------
// Flops estimators (all saturating; see module docs)
// ---------------------------------------------------------------------------

/// Push (scatter) side of `mxv`/`vxm`: every input entry expands an
/// average-degree row of the matrix.
pub fn mxv_push_flops(u_nvals: usize, a_nnz: usize, src_majors: usize) -> usize {
    let deg = (a_nnz / src_majors.max(1)).max(1);
    u_nvals.saturating_mul(deg)
}

/// Pull (rowdot) side of `mxv`/`vxm`: building the dense input view
/// (`dense_build = n` for a sparse-stored vector, 0 when already dense)
/// plus the considered rows. A terminal or ANY monoid stops each dot at
/// its first hit, so those rows cost ~1 flop; otherwise a full
/// average-degree row is scanned.
pub fn mxv_pull_flops(
    dense_build: usize,
    rows_considered: usize,
    a_nnz: usize,
    out_majors: usize,
    early_exit: bool,
) -> usize {
    let per_row = if early_exit { 1 } else { (a_nnz / out_majors.max(1)).max(1) };
    dense_build.saturating_add(rows_considered.saturating_mul(per_row))
}

/// Masked-dot `mxm`: one dot of combined average row length per stored
/// mask entry.
pub fn mxm_dot_flops(
    mask_nnz: usize,
    a_nnz: usize,
    a_majors: usize,
    b_nnz: usize,
    bt_majors: usize,
) -> usize {
    let per_dot =
        (a_nnz / a_majors.max(1)).saturating_add(b_nnz / bt_majors.max(1)).saturating_add(1);
    mask_nnz.saturating_mul(per_dot)
}

/// Gustavson `mxm`: every `A` entry expands an average-degree row of `B`.
pub fn mxm_gustavson_flops(a_nnz: usize, b_nnz: usize, b_majors: usize) -> usize {
    a_nnz.saturating_mul((b_nnz.max(1) / b_majors.max(1)).saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_stable_and_sane() {
        let a = model();
        let b = model();
        assert_eq!(a, b, "model must be calibrated exactly once");
        assert!(a.push_ns >= MIN_NS_PER_FLOP && a.push_ns <= MAX_NS_PER_FLOP);
        assert!(a.pull_ns >= MIN_NS_PER_FLOP && a.pull_ns <= MAX_NS_PER_FLOP);
    }

    #[test]
    fn env_override_parsing() {
        let env =
            |raw| crate::env::check("GRAPHBLAS_COST_MODEL", raw, COST_MODEL_SYNTAX, parse_env);
        assert_eq!(env(None), None);
        let m = env(Some("0.5, 2.0")).expect("valid override");
        assert_eq!(m, CostModel { push_ns: 0.5, pull_ns: 2.0 });
        assert_eq!(env(Some("1.0")), None);
        assert_eq!(env(Some("0,1")), None);
        assert_eq!(env(Some("-1,1")), None);
        assert_eq!(env(Some("nan,1")), None);
        assert_eq!(env(Some("fast,slow")), None);
    }

    #[test]
    fn estimators_saturate_near_index_max() {
        // Hypersparse operands put dimensions near Index::MAX; every
        // estimate must stay finite instead of overflowing in debug.
        let n = usize::MAX / 2;
        assert_eq!(mxv_push_flops(usize::MAX, usize::MAX, 1), usize::MAX);
        let _ = mxv_pull_flops(n, n, 4, n, false);
        let _ = mxv_pull_flops(n, n, usize::MAX, 1, false);
        let _ = mxm_dot_flops(n, usize::MAX, 1, usize::MAX, 1);
        assert_eq!(mxm_gustavson_flops(usize::MAX, usize::MAX, 1), usize::MAX);
    }

    #[test]
    fn crossover_tracks_frontier_density() {
        // With any sane constants, a tiny frontier must choose push and a
        // dense one must choose pull in the BFS (early-exit) regime.
        let m = model();
        let (n, deg) = (1 << 20, 16);
        let sparse_push = mxv_push_flops(4, n * deg, n);
        let dense_push = mxv_push_flops(n / 2, n * deg, n);
        let pull = mxv_pull_flops(n, n, n * deg, n, true);
        assert!(m.push_wins(sparse_push, pull), "tiny frontier must push");
        // Half-dense frontier: push work is 4× the pull work, so pull wins
        // unless this host's measured dot rate is over 4× the scatter rate.
        assert!(!m.push_wins(dense_push, pull) || m.pull_ns > 4.0 * m.push_ns);
    }
}
