//! What one run carries from set-up to its result line: the arguments,
//! the span recorder, the host yardstick and the metrics and failure
//! counts collected so far.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use crate::host::{self, Yardstick};
use crate::spans::Recorder;
use crate::spec::WorkloadSpec;
use crate::stats;

/// Metrics and operation counts of a run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// How many samples stand behind a metric, where it is a statistic.
    pub samples: BTreeMap<String, usize>,
    /// Operations attempted: kernel calls, queries, updates, flushes and
    /// output checks.
    pub attempted: u64,
    /// Of those, the ones that returned `Err`, were rejected, or
    /// disagreed with an oracle.
    pub failed: u64,
    /// What failed, for the human reading the output.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub nvertices: usize,
    pub nedges: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(crate::spec::metric(name).is_some(), "metric {name} is not in spec.rs");
        self.metrics.insert(name.to_string(), value);
    }

    /// A metric that is a statistic over `samples` samples.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    fn fail(&mut self, what: &str, why: &dyn Display) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// Count one operation of the program; an `Err` is a failure.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    /// Count one output check; a mismatch is a failure.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, &"output disagrees with the oracle");
        }
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

/// One run's context.
pub struct Ctx {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub rec: Recorder,
    pub yard: Yardstick,
    pub out: Outcome,
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn scale(&self) -> u32 {
        if self.smoke {
            crate::spec::SMOKE_SCALE
        } else {
            self.spec.scale
        }
    }

    /// `VmHWM` without the driver's own yardstick arrays, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_bytes().saturating_sub(self.yard.resident_bytes()) as f64 / 1e6
    }

    /// The `setup_s` row: the median of the set-ups' total times plus the
    /// warm-up that followed the first of them.
    pub fn report_setup(&mut self, totals: &[f64], warm_s: f64) {
        self.out.set_n("setup_s", stats::median(totals) + warm_s, totals.len());
    }

    /// How many times set-up is repeated so `setup_s` can be a median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke || self.traced {
            1
        } else {
            3
        }
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
