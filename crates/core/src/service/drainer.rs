//! The drain path: one coordinator thread cuts a consistent batch across
//! every shard's slice of the update log, nets each slice into a small
//! sorted delta, writes their concatenation over the published
//! adjacency, and publishes the snapshot. A shard is one slice of the log
//! (a queue and its lock), not a thread, and it holds no copy of the
//! graph: the only resident adjacency is the published one.
//!
//! Consistency argument: the coordinator swaps *all* shard queues out
//! before netting any of them, so one epoch contains exactly the
//! updates accepted before the cut — never a prefix of one shard and a
//! suffix of another. Each edge is routed to exactly one shard by a
//! pure function of its canonical key ([`Partitioner`]), so per-edge
//! replay order equals submission order at any shard count, the shard
//! deltas are disjoint, and the last write to an edge is the same one
//! everywhere — the S∈{1,2,4} differential tests check the published
//! matrix is *bit-identical* to a single-shard replay.
//!
//! Failure semantics: the netting, the publish and the view repair run
//! under one guard. A panic or an error there marks the service failed:
//! the coordinator stops publishing (the last good epoch keeps serving),
//! and every `submit`/`flush`/`query` thereafter returns
//! [`ServiceError::DrainerFailed`] instead of hanging on an epoch that
//! will never arrive.
//!
//! [`Partitioner`]: super::Partitioner
//! [`ServiceError::DrainerFailed`]: super::ServiceError::DrainerFailed

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;
use std::time::Duration;

use graphblas::trace;
use graphblas::{net_edits, Edit, Error as GrbError};

use super::{now_unix_ns, panic_message, Shared, Snapshot, Update};
use crate::graph::{EdgeEvent, Graph, GraphKind};

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

/// Mark the service failed with `message` (`shard` as in
/// [`ServiceError::DrainerFailed`](super::ServiceError::DrainerFailed)),
/// wake every waiter, and stop accepting work. The last published
/// snapshot keeps serving reads.
fn fail_service(shared: &Shared, shard: usize, message: String) {
    trace::warn_once(
        "service.drainer",
        &format!("epoch failed at shard {shard}, service stopping: {message}"),
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

/// The epoch coordinator: cut a consistent batch across all shard
/// queues, net each shard's slice in shard order, write the concatenated
/// delta over the published adjacency, publish. `fail_epoch` is the test
/// failpoint ([`super::ServiceConfig::fail_epoch`]).
pub(crate) fn coordinator_loop(
    shared: &Arc<Shared>,
    max_batch: usize,
    compressed: bool,
    fail_epoch: Option<u64>,
) {
    let mut epoch = shared.snapshot.read().epoch;
    loop {
        // Sleep until there is work or a shutdown request. The timeout
        // guards against a notify racing ahead of this wait.
        {
            let state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if shared.depth() == 0 {
                if state.shutdown {
                    return;
                }
                let _ = shared.work.wait_timeout(state, Duration::from_millis(5));
            }
        }
        if shared.depth() == 0 {
            continue;
        }

        // Cut the epoch: swap every shard's queue out (bounded by
        // max_batch overall) *before* netting any of them, freeing
        // blocked writers immediately.
        let mut batches: Vec<Vec<Update>> = Vec::with_capacity(shared.shards.len());
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
        span.arg("shards", batches.len());
        shared.metrics.batch_updates.observe(total as u64);

        // Net, build, advance the views and swap — under one guard, so a
        // panic or an error anywhere in here fails the service closed
        // instead of killing this thread under a flush that waits for the
        // epoch. `shard` is the slice being netted, 0 past the netting.
        let prev = shared.snapshot.read().clone();
        let mut shard = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The shard deltas are disjoint (one shard owns each edge), so
            // the epoch's delta is their concatenation.
            let mut delta: Vec<Edit<f64>> = Vec::new();
            for (si, b) in batches.iter().enumerate() {
                shard = si;
                delta.append(&mut shard_delta(b, shared.kind));
            }
            shard = 0;
            let (mut g, events) = next_graph(prev.graph(), &delta, compressed)
                .map_err(|e| format!("epoch {epoch} publish failed: {e}"))?;
            if fail_epoch == Some(epoch) {
                panic!("injected epoch-publish failure at epoch {epoch}");
            }
            span.arg("delta", delta.len());
            g.set_epoch(epoch);
            span.arg("nedges", g.nedges());
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
            // Publish: the views' answers, repaired from the snapshot this
            // one replaces by the same classified Δ, are pinned on the new
            // snapshot before readers swap over to it on their next
            // snapshot(), so a flush that observes epoch e observes the
            // views at e. A failed epoch never gets this far, leaving
            // both at the last good epoch.
            let graph = Arc::new(g);
            shared.views.on_epoch(&prev, &graph, &events, |pinned| {
                *shared.snapshot.write() = Arc::new(Snapshot::new(graph.clone(), pinned));
            });
            Ok(())
        }))
        .unwrap_or_else(|p| Err(panic_message(&*p).to_string()));
        if let Err(message) = outcome {
            span.arg("failed_shard", shard);
            drop(span);
            fail_service(shared, shard, message);
            return;
        }
        // Left for a query thread to release (`Shared::current`); one
        // that no query released is dropped here.
        let unreleased = shared.retired.lock().replace(prev);
        drop(unreleased);
        let now_ns = now_unix_ns();
        shared.metrics.publish_unix_ns.store(now_ns, Relaxed);
        shared.metrics.last_publish.set(now_ns as f64 / 1e9);
        shared.metrics.epochs.inc();
        shared.metrics.epoch.set(epoch as f64);
        drop(span);
        for (si, b) in batches.iter().enumerate() {
            if !b.is_empty() {
                shared.metrics.shard_processed[si].add(b.len() as u64);
            }
        }
        shared.processed.fetch_add(total as u64, SeqCst);
        shared.metrics.processed.add(total as u64);
        shared.published.notify_all();
    }
}
