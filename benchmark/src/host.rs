//! What the run can say about the machine it ran on: a fixed reference
//! loop that tells a noisy window from a slow program, the process's
//! resident-set figures, and the conditions block every output carries.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::Rng;
use crate::json::Value;
use crate::stats;

/// Spread of the yardstick beyond which a run is tagged `noisy`.
pub const NOISY_SPREAD: f64 = 0.10;

/// Stored entries per row of the yardstick's matrix: the stored degree of
/// the RMAT graphs the workloads run on (1.8 M entries over 65 536 rows).
const YARD_DEGREE: usize = 28;
/// Timed sweeps per sample; one untimed sweep goes before them. A sample
/// is the median of their times, so one sweep that lost its core to a
/// neighbour does not pass for the host having slowed.
const YARD_PASSES: usize = 5;
/// The unit timings are quoted in: a duration is reported as what it
/// would have taken on a host that sweeps one stored entry in this many
/// nanoseconds. Any constant would do, since only its constancy matters
/// for comparisons; this one is what the sweep costs on the sizing box in
/// a typical window, so reported numbers read like wall-clock ones there.
const NOMINAL_NS_PER_ENTRY: f64 = 1.3;

/// The fixed reference loop ("yardstick"): a plain CSR `y = A·x` sweep,
/// written here and sharing no code with the library, over a synthetic
/// matrix shaped like the workload's graph (`2^scale` rows, 28 random
/// entries each, `usize` indices and `f64` values as the library stores
/// them). Its work never changes, so its time moving is the host moving.
///
/// It is sampled only where the program is idle: between kernels, between
/// serving rounds, between serving segments with the writer and the
/// reader both stopped, around set-up and around each probe; never
/// inside a kernel or beside a live client thread. Its spread over a run
/// says whether the run measured the program or the neighbours
/// (`host.calib_*`, `noisy`). And the two samples that bracket a timed
/// interval give the host's exchange rate for that interval
/// ([`Yardstick::factor`]): the shared 2-vCPU sizing box slows every
/// memory-bound kernel by 40-60 % for minutes at a time and this loop
/// with them, so durations scaled by it repeat two to four times closer
/// than wall-clock ones do (README "Host-normalised timings").
pub struct Yardstick {
    cols: Vec<usize>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    nominal_ms: f64,
    /// Every sample's time, ms.
    samples: Vec<f64>,
}

impl Yardstick {
    pub fn new(scale: u32) -> Self {
        let n = 1usize << scale;
        let entries = n * YARD_DEGREE;
        let mut rng = Rng::new(0x5EED);
        let mut yard = Yardstick {
            cols: (0..entries).map(|_| rng.below(n)).collect(),
            vals: (0..entries).map(|i| (i % 5) as f64 + 1.0).collect(),
            x: (0..n).map(|i| i as f64 * 1e-6).collect(),
            y: vec![0.0; n],
            nominal_ms: entries as f64 * NOMINAL_NS_PER_ENTRY * 1e-6,
            samples: Vec::new(),
        };
        // The first sweep faults the arrays in; it is not a sample.
        yard.sample();
        yard.samples.clear();
        yard
    }

    fn sweep(&mut self) {
        for (r, y) in self.y.iter_mut().enumerate() {
            let row = r * YARD_DEGREE..(r + 1) * YARD_DEGREE;
            *y = self.vals[row.clone()]
                .iter()
                .zip(&self.cols[row])
                .map(|(v, &c)| v * self.x[c])
                .sum();
        }
        black_box(&mut self.y);
    }

    /// Take a sample: the median time of one sweep, in ms, kept and
    /// returned. The untimed sweep first pulls the arrays back in, so the
    /// sample does not depend on how much of the cache the program's last
    /// operation left behind.
    pub fn sample(&mut self) -> f64 {
        self.sweep();
        let sweeps: [f64; YARD_PASSES] = std::array::from_fn(|_| {
            let t = Instant::now();
            self.sweep();
            t.elapsed().as_secs_f64() * 1e3
        });
        let ms = stats::median(&sweeps);
        self.samples.push(ms);
        ms
    }

    /// The exchange rate of an interval bracketed by two samples: multiply
    /// a duration measured between them by it to get what it would have
    /// taken on the nominal host.
    pub fn factor(&self, before_ms: f64, after_ms: f64) -> f64 {
        self.nominal_ms / ((before_ms + after_ms) / 2.0)
    }

    /// Sample now, and return the exchange rate of the interval since the
    /// sample that read `before_ms`.
    pub fn factor_since(&mut self, before_ms: f64) -> f64 {
        let after_ms = self.sample();
        self.factor(before_ms, after_ms)
    }

    /// Bytes the arrays keep resident. They are touched by every sample,
    /// so they sit in `VmRSS` and `VmHWM` for the whole run; the driver
    /// takes them back out of what it reports as the program's.
    pub fn resident_bytes(&self) -> u64 {
        let words = self.cols.len() + self.vals.len() + self.x.len() + self.y.len();
        (words * std::mem::size_of::<f64>()) as u64
    }

    /// Median time of one sweep over the run, in ms.
    pub fn calib_ms(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// Quartile spread of the loop over the run: `(q3 - q1) / median`.
    pub fn spread(&self) -> f64 {
        stats::quartile_spread(&self.samples)
    }

    pub fn noisy(&self) -> bool {
        self.spread() > NOISY_SPREAD
    }
}

/// A `Vm*` line of `/proc/self/status`, in bytes (0 where there is no procfs).
fn proc_status_bytes(key: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set so far (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Current resident set (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// First line of a command's stdout, or "unknown" when it cannot run
/// (the driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The cost-model constants an unpinned process calibrates to. The
/// traced run pins `GRAPHBLAS_COST_MODEL`, and the model is fixed for
/// the life of a process, so the calibrated values come from a child
/// (`lagraph-benchmark calibrate`) that prints `push_ns pull_ns`.
pub fn calibrated_cost_model() -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("calibrate")
        .env_remove("GRAPHBLAS_COST_MODEL")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    Some((it.next()?.ok()?, it.next()?.ok()?))
}

/// The conditions a result was taken under. Every output file carries
/// this block so two results are only compared like with like.
pub fn conditions(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    nvertices: usize,
    nedges: usize,
) -> Vec<(String, Value)> {
    let model = graphblas::cost::model();
    // The kernel pool is sized once per process from the hardware; the
    // library exposes it only through its metrics gauge, which exists
    // once the pool has been used.
    let pool_workers = graphblas::metrics::snapshot()
        .into_iter()
        .find(|(name, _)| name.starts_with("graphblas_pool_workers"))
        .map_or(0.0, |(_, v)| v);
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.into()),
        ("seconds".into(), seconds.into()),
        ("traced".into(), traced.into()),
        ("smoke".into(), smoke.into()),
        ("host_cores".into(), host_cores().into()),
        ("threads".into(), graphblas::parallel::threads().into()),
        ("pool_workers".into(), pool_workers.into()),
        ("cost_push_ns".into(), model.push_ns.into()),
        ("cost_pull_ns".into(), model.pull_ns.into()),
        ("cost_model_pinned".into(), std::env::var("GRAPHBLAS_COST_MODEL").is_ok().into()),
        ("specialize".into(), graphblas::specialization_enabled().into()),
        ("git_revision".into(), first_line("git", &["rev-parse", "HEAD"]).into()),
        ("rustc".into(), first_line("rustc", &["--version"]).into()),
        ("nvertices".into(), nvertices.into()),
        ("nedges".into(), nedges.into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_readable_and_peak_bounds_current() {
        let (cur, peak) = (rss_bytes(), peak_rss_bytes());
        assert!(cur > 0, "VmRSS unreadable");
        assert!(peak >= cur / 2, "VmHWM {peak} far below VmRSS {cur}");
    }

    #[test]
    fn yardstick_prices_an_interval_by_its_bracketing_samples() {
        let mut y = Yardstick::new(8);
        let nominal = y.nominal_ms;
        assert!((y.factor(nominal, nominal) - 1.0).abs() < 1e-12);
        // The loop took twice as long on both sides: the host ran at half
        // speed, and a duration of 8 measured there is worth 4.
        assert!((8.0 * y.factor(2.0 * nominal, 2.0 * nominal) - 4.0).abs() < 1e-12);
        assert!((y.factor(nominal, 3.0 * nominal) - 0.5).abs() < 1e-12);
        let ms = y.sample();
        assert!(ms > 0.0 && y.calib_ms() == ms && !y.noisy());
        y.samples = vec![nominal, 2.0 * nominal, 2.0 * nominal, nominal];
        assert!(y.noisy());
        assert_eq!(y.resident_bytes(), ((256 * 28) * 2 + 256 * 2) * 8);
    }
}
