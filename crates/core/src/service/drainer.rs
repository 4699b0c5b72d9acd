//! The sharded drain path: one drainer thread per shard turns that
//! shard's slice of the update log into a small sorted delta, and a
//! coordinator thread cuts consistent batches, barriers the shards at
//! one epoch, folds their deltas into the published adjacency, and
//! publishes the snapshot. Shards carry deltas, never a copy of the
//! graph: the only resident adjacency is the published one.
//!
//! Consistency argument: the coordinator swaps *all* shard queues out
//! before dispatching any of them, so one epoch contains exactly the
//! updates accepted before the cut — never a prefix of one shard and a
//! suffix of another. Each edge is routed to exactly one shard by a
//! pure function of its canonical key ([`Partitioner`]), so per-edge
//! replay order equals submission order at any shard count, the shard
//! deltas are disjoint, and the last write to an edge is the same one
//! everywhere — the S∈{1,2,4} differential tests check the published
//! matrix is *bit-identical* to a single-shard replay.
//!
//! Failure semantics: a shard drainer that panics mid-replay marks the
//! service failed. The coordinator stops publishing (the last good
//! epoch keeps serving), and every `submit`/`flush`/`query` thereafter
//! returns [`ServiceError::DrainerFailed`] instead of hanging on an
//! epoch that will never arrive.
//!
//! [`Partitioner`]: super::Partitioner

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use graphblas::trace;
use graphblas::{net_edits, Edit, Error as GrbError};

use super::{now_unix_ns, panic_message, Shared, Snapshot, Update};
use crate::graph::{EdgeEvent, Graph, GraphKind};

/// What the coordinator asks a shard worker to do next.
pub(crate) enum SlotCmd {
    /// Nothing pending; the worker waits.
    Idle,
    /// Net `batch` into a delta, reporting completion as `epoch`.
    Drain { epoch: u64, batch: Vec<Update> },
    /// Exit the worker thread.
    Shutdown,
}

/// Completion report a shard worker posts after each drain.
pub(crate) struct ShardDone {
    /// Last epoch this shard finished (success or failure).
    pub(crate) epoch: u64,
    /// The shard's netted delta for that epoch, for the coordinator to take.
    pub(crate) delta: Vec<Edit<f64>>,
    /// Panic message if the drain failed.
    pub(crate) failed: Option<String>,
}

/// Per-shard worker state: a command slot and a completion slot.
pub(crate) struct ShardWorker {
    cmd: Mutex<SlotCmd>,
    cmd_cv: Condvar,
    done: Mutex<ShardDone>,
    done_cv: Condvar,
}

impl ShardWorker {
    /// A worker that has nothing to report up to `epoch`.
    pub(crate) fn new(epoch: u64) -> Self {
        ShardWorker {
            cmd: Mutex::new(SlotCmd::Idle),
            cmd_cv: Condvar::new(),
            done: Mutex::new(ShardDone { epoch, delta: Vec::new(), failed: None }),
            done_cv: Condvar::new(),
        }
    }

    fn send(&self, cmd: SlotCmd) {
        let mut c = self.cmd.lock().unwrap_or_else(|e| e.into_inner());
        *c = cmd;
        self.cmd_cv.notify_all();
    }
}

/// The per-shard drainer loop: wait for a command, net the batch into
/// this shard's delta, report. Panics are caught and reported, never
/// propagated into a hung barrier.
pub(crate) fn shard_loop(
    workers: Arc<Vec<ShardWorker>>,
    index: usize,
    kind: GraphKind,
    fail_epoch: Option<u64>,
) {
    let w = &workers[index];
    loop {
        let cmd = {
            let mut c = w.cmd.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match *c {
                    SlotCmd::Idle => {
                        c = w.cmd_cv.wait(c).unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break std::mem::replace(&mut *c, SlotCmd::Idle),
                }
            }
        };
        let (epoch, batch) = match cmd {
            SlotCmd::Shutdown => return,
            SlotCmd::Idle => continue,
            SlotCmd::Drain { epoch, batch } => (epoch, batch),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if index == 0 && fail_epoch == Some(epoch) {
                panic!("injected shard-drainer failure at epoch {epoch}");
            }
            shard_delta(&batch, kind)
        }));
        let mut d = w.done.lock().unwrap_or_else(|e| e.into_inner());
        match outcome {
            Ok(delta) => {
                d.delta = delta;
                d.failed = None;
            }
            Err(p) => d.failed = Some(panic_message(&*p).to_string()),
        }
        d.epoch = epoch;
        w.done_cv.notify_all();
    }
}

/// One shard batch as a delta: an insert is a `Some(weight)` edit, a
/// delete a `None`; undirected graphs mirror both arcs (into the same
/// shard, which owns the edge). Sorted by position, and netted so only
/// the last write to each arc survives.
pub(super) fn shard_delta(batch: &[Update], kind: GraphKind) -> Vec<Edit<f64>> {
    let mirror = kind == GraphKind::Undirected;
    let mut delta = Vec::with_capacity(batch.len() * (1 + usize::from(mirror)));
    for u in batch {
        let (i, j, x) = match *u {
            Update::Insert(i, j, w) => (i, j, Some(w)),
            Update::Delete(i, j) => (i, j, None),
        };
        delta.push((i, j, x));
        if mirror && i != j {
            delta.push((j, i, x));
        }
    }
    net_edits(&mut delta);
    delta
}

/// Epoch e+1 from epoch e: the next adjacency shares the *published*
/// one's base arrays and writes only the rows the delta touches into its
/// overlay ([`graphblas::Matrix::with_edits`]), folding the overlay into a
/// fresh base once it crosses its cut; the snapshot's materialised caches
/// follow by the same delta. Also returns the delta's structural changes,
/// classified once for the caches and the views.
fn next_graph(
    prev: &Graph,
    delta: &[Edit<f64>],
    compressed: bool,
) -> Result<(Graph, Vec<EdgeEvent>), GrbError> {
    let mut a = prev.a().with_edits(delta)?;
    if compressed {
        // Encodes the first epoch's result on the parallel pool; a
        // compressed adjacency comes out of the splice re-encoded.
        a.set_compressed(true);
    }
    prev.advance(a, delta)
}

/// Mark the service failed (shard `shard` died with `message`), wake
/// every waiter, and stop accepting work. The last published snapshot
/// keeps serving reads.
fn fail_service(shared: &Shared, shard: usize, message: String) {
    trace::warn_once(
        "service.drainer",
        &format!("shard {shard} drainer failed, service stopping: {message}"),
    );
    *shared.failed.lock().unwrap_or_else(|e| e.into_inner()) = Some((shard, message));
    shared.failed_flag.store(true, SeqCst);
    shared.shutting_down.store(true, SeqCst);
    shared.state.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
    shared.work.notify_all();
    shared.published.notify_all();
    for s in &shared.shards {
        s.not_full.notify_all();
    }
}

pub(crate) fn shutdown_workers(workers: &[ShardWorker]) {
    for w in workers {
        w.send(SlotCmd::Shutdown);
    }
}

/// The epoch coordinator: cut a consistent batch across all shard
/// queues, fan it out, barrier, fold the shard deltas into the published
/// adjacency, publish.
pub(crate) fn coordinator_loop(
    shared: &Arc<Shared>,
    workers: &Arc<Vec<ShardWorker>>,
    max_batch: usize,
    compressed: bool,
) {
    let mut epoch = shared.snapshot.read().epoch;
    loop {
        // Sleep until there is work or a shutdown request. The timeout
        // guards against a notify racing ahead of this wait.
        {
            let state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if shared.depth() == 0 {
                if state.shutdown {
                    drop(state);
                    shutdown_workers(workers);
                    return;
                }
                let _ = shared.work.wait_timeout(state, Duration::from_millis(5));
            }
        }
        if shared.depth() == 0 {
            continue;
        }

        // Cut the epoch: swap every shard's queue out (bounded by
        // max_batch overall) *before* dispatching any of them, freeing
        // blocked writers immediately.
        let mut batches: Vec<Vec<Update>> = Vec::with_capacity(workers.len());
        let mut total = 0usize;
        for (si, shard) in shared.shards.iter().enumerate() {
            let mut q = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
            let room = max_batch.saturating_sub(total);
            let b: Vec<Update> = if q.len() <= room {
                std::mem::take(&mut *q).into()
            } else {
                q.drain(..room).collect()
            };
            total += b.len();
            shared.metrics.queue_depth[si].set(q.len() as f64);
            drop(q);
            shard.not_full.notify_all();
            batches.push(b);
        }
        if total == 0 {
            continue;
        }

        epoch += 1;
        let mut span = trace::service_span("service.epoch");
        span.arg("epoch", epoch);
        span.arg("batch", total);
        span.arg("shards", workers.len());
        shared.metrics.batch_updates.observe(total as u64);
        let shard_counts: Vec<usize> = batches.iter().map(Vec::len).collect();

        // Fan out. Every shard gets a command (empty batches included)
        // so the barrier below is uniform.
        for (si, b) in batches.into_iter().enumerate() {
            workers[si].send(SlotCmd::Drain { epoch, batch: b });
        }

        // Barrier: all shards at this epoch before anything publishes.
        // Their deltas are disjoint (one shard owns each edge), so the
        // epoch's delta is their concatenation.
        let mut delta: Vec<Edit<f64>> = Vec::new();
        let mut failure: Option<(usize, String)> = None;
        for (si, w) in workers.iter().enumerate() {
            let mut d = w.done.lock().unwrap_or_else(|e| e.into_inner());
            while d.epoch < epoch {
                d = w.done_cv.wait(d).unwrap_or_else(|e| e.into_inner());
            }
            delta.append(&mut d.delta);
            if failure.is_none() {
                if let Some(m) = &d.failed {
                    failure = Some((si, m.clone()));
                }
            }
        }

        if let Some((si, message)) = failure {
            span.arg("failed_shard", si);
            drop(span);
            fail_service(shared, si, message);
            shutdown_workers(workers);
            return;
        }

        // Publish: an immutable Graph that inherits the caches of the one
        // it replaces, stamped with this epoch. Readers swap over
        // atomically on their next snapshot().
        let prev = shared.snapshot.read().graph.clone();
        match next_graph(&prev, &delta, compressed) {
            Ok((mut g, events)) => {
                span.arg("delta", delta.len());
                g.set_epoch(epoch);
                let nedges = g.nedges();
                span.arg("nedges", nedges);
                span.arg("queue_depth", shared.depth());
                if span.on() {
                    // What the publish wrote: the overlay it carries, and
                    // whether it folded that into a fresh base instead — the
                    // O(E) epochs a `publish_p95` outlier traces back to.
                    let layers = g.a().layers();
                    if let Some(l) = layers {
                        span.arg("overlay_rows", l.overlay_rows);
                        span.arg("overlay_entries", l.overlay_entries);
                    }
                    span.arg("folded", u64::from(layers.is_some_and(|l| l.folded)));
                }
                let graph = Arc::new(g);
                // Views advance *before* the snapshot swap, so a flush
                // that observes epoch e also observes views at e; a
                // failed epoch never reaches this point, leaving the
                // views at the last good epoch alongside the snapshot.
                // They repair from the same two graphs and the same
                // classified Δ.
                shared.views.on_epoch(&prev, &graph, &events);
                *shared.snapshot.write() = Arc::new(Snapshot { epoch, nedges, graph });
                let now_ns = now_unix_ns();
                shared.metrics.publish_unix_ns.store(now_ns, Relaxed);
                shared.metrics.last_publish.set(now_ns as f64 / 1e9);
                shared.metrics.epochs.inc();
                shared.metrics.epoch.set(epoch as f64);
            }
            Err(_) => {
                // Updates are bounds-checked at submit, so this is unreachable;
                // keep serving the previous snapshot if it somehow isn't.
                trace::warn_once("service.publish", "failed to rebuild service snapshot graph");
            }
        }
        drop(span);
        for (si, &n) in shard_counts.iter().enumerate() {
            if n > 0 {
                shared.metrics.shard_processed[si].add(n as u64);
            }
        }
        shared.processed.fetch_add(total as u64, SeqCst);
        shared.metrics.processed.add(total as u64);
        shared.published.notify_all();
    }
}
