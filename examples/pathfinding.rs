//! Pathfinding scenario: shortest paths on a weighted grid "road map" —
//! Bellman-Ford vs delta-stepping vs A* with a Manhattan heuristic, the
//! A* entry being one of the algorithms §V lists as not yet done on a
//! GraphBLAS (implemented here as an extension).
//!
//! Run with: `cargo run --release --example pathfinding`

use std::time::Instant;

use lagraph_suite::lagraph::gen;
use lagraph_suite::prelude::*;

fn main() -> graphblas::Result<()> {
    // A 64×64 street grid with mildly varied travel times.
    let (rows, cols) = (64usize, 64usize);
    let base = gen::grid2d(rows, cols)?;
    // Perturb weights deterministically so routes are interesting.
    let mut roads = Matrix::<f64>::new(base.nrows(), base.ncols())?;
    apply_matrix_indexed(
        &mut roads,
        None,
        NOACC,
        |i: Index, j: Index, w: f64| w + (((i * 31 + j * 17) % 7) as f64) * 0.25,
        &base,
        &Descriptor::default(),
    )?;
    // Make travel times symmetric (undirected roads).
    let rt = transpose_new(&roads)?;
    let mut sym = Matrix::<f64>::new(roads.nrows(), roads.ncols())?;
    ewise_add_matrix(&mut sym, None, NOACC, binaryop::Min, &roads, &rt, &Descriptor::default())?;
    let g = Graph::new(sym, GraphKind::Undirected)?;
    println!("road grid: {} intersections, {} road segments", g.nvertices(), g.nedges() / 2);

    let source = 0;
    let target = rows * cols - 1;

    let t0 = Instant::now();
    let bf = sssp_bellman_ford(&g, source)?;
    let bf_time = t0.elapsed();
    let bf_d = bf.get(target).expect("grid is connected");

    let t0 = Instant::now();
    let ds = sssp_delta_stepping(&g, source, 2.0)?;
    let ds_time = t0.elapsed();
    let ds_d = ds.get(target).expect("grid is connected");

    let manhattan = move |v: Index| {
        let (vr, vc) = (v / cols, v % cols);
        let (tr, tc) = (target / cols, target % cols);
        (vr.abs_diff(tr) + vc.abs_diff(tc)) as f64 // admissible: min weight 1
    };
    let t0 = Instant::now();
    let (path, astar_d) = astar(&g, source, target, manhattan)?.expect("connected");
    let astar_time = t0.elapsed();

    println!("corner-to-corner travel time:");
    println!("  bellman-ford   {bf_d:8.2}  in {bf_time:?}");
    println!("  delta-stepping {ds_d:8.2}  in {ds_time:?}");
    println!("  a*             {astar_d:8.2}  in {astar_time:?}  ({} hops)", path.len() - 1);
    assert_eq!(bf_d, ds_d);
    assert_eq!(bf_d, astar_d);

    // All-pairs on a small sub-map: the 8×8 upper-left corner.
    let sub: Vec<Index> = (0..8).flat_map(|r| (0..8).map(move |c| r * cols + c)).collect();
    let mut corner = Matrix::<f64>::new(64, 64)?;
    extract_matrix(
        &mut corner,
        None,
        NOACC,
        g.a(),
        &IndexSel::List(sub.clone()),
        &IndexSel::List(sub),
        &Descriptor::default(),
    )?;
    let sub_g = Graph::new(corner, GraphKind::Undirected)?;
    let d = apsp(&sub_g)?;
    let diameter = d.iter().map(|(_, _, x)| x).fold(0.0f64, f64::max);
    println!("sub-map all-pairs: weighted diameter {diameter:.2}");
    Ok(())
}
