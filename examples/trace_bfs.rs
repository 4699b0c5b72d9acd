//! Trace a direction-optimized BFS and export the run as Chrome
//! trace-event JSON.
//!
//! Demonstrates the runtime observability layer: tracing is switched on
//! programmatically (no recompile, no feature flag), the BFS runs as
//! usual, and the recorded spans show each frontier wave's size, the
//! push/pull kernel the heuristic chose for it, and where the time went.
//!
//! Run with: `cargo run --release --example trace_bfs [out.json]`
//!
//! Then load `out.json` (default `trace_bfs.json`) in `chrome://tracing`
//! or <https://ui.perfetto.dev>. Set `GRAPHBLAS_TRACE=burble` to narrate
//! every event to stderr as it happens instead.

use lagraph_suite::graphblas::trace;
use lagraph_suite::lagraph::gen::{self, RmatConfig};
use lagraph_suite::prelude::*;

fn main() -> graphblas::Result<()> {
    // A scale-free RMAT graph with dual (row + column) storage, so both
    // the push and pull mxv kernels are available to the direction
    // heuristic.
    let mut adj = gen::rmat(&RmatConfig { scale: 12, edge_factor: 8, ..Default::default() })?;
    adj.set_dual_storage(true);
    adj.wait();
    let n = adj.nrows();
    println!("graph: {n} vertices, {} edges", adj.nvals());

    // Record every span from here on. Honor an environment choice
    // (GRAPHBLAS_TRACE=burble) if one was made; otherwise record quietly.
    if !trace::enabled() {
        trace::enable();
    }
    trace::clear();

    let levels = bfs_level_matrix(&adj, 0, Direction::Auto)?;

    trace::disable();
    let mut events = trace::drain();
    events.sort_by_key(|e| e.t0_ns);
    println!(
        "bfs: reached {} vertices in {} levels; traced {} events ({} dropped)",
        levels.nvals(),
        levels.iter().map(|(_, d)| d).max().unwrap_or(0),
        events.len(),
        trace::dropped(),
    );

    // Each frontier wave: its nnz and the direction the heuristic took.
    println!("\nmxv spans (one per BFS wave):");
    for e in events.iter().filter(|e| e.name == "mxv") {
        println!("  {}", trace::burble_line(e));
    }

    // Aggregate per-op profile of the whole run.
    println!("\n{}", trace::Profile::from_events(&events).report());

    // Chrome trace-event export.
    let path = std::env::args().nth(1).unwrap_or_else(|| "trace_bfs.json".to_string());
    trace::write_chrome_trace(&path, &events).expect("write chrome trace");
    println!("chrome trace written to {path}");
    Ok(())
}
