//! Differential tests for carried-forward snapshot caches.
//!
//! A published epoch inherits whatever its predecessor had materialised
//! (`Graph::advance`): the structure with its dual, `Aᵀ`, the degree
//! vectors — patched by the epoch's delta instead of re-derived. The
//! honesty property: after *every* epoch of the 800-update churn scripts
//! (insert-only, delete-heavy, mixed; the generator of
//! `service_views.rs`), directed and undirected, at S ∈ {1, 2, 4} shards,
//! each inherited cache must equal the one `Graph::new` derives from
//! scratch on the same adjacency — and an epoch whose predecessor had
//! nothing materialised must materialise nothing. Snapshots are layered:
//! between two folds, consecutive ones share their base arrays. The
//! component labels a cc query leaves on a snapshot follow every epoch of
//! a churn of inserts, deletes, re-weights and self-loops, plain and
//! compressed, equal bit for bit to FastSV from scratch; a directed
//! graph's are recomputed instead. The triangle count, core numbers and
//! PageRank the views keep on a snapshot follow the same way, within the
//! staleness budget: equal at every epoch to the entry points on a graph
//! built from scratch (PageRank within tolerance when carried, bit for
//! bit when computed cold), and recomputed past the budget.

use std::collections::BTreeSet;

use graphblas::ops::transpose_new;
use graphblas::Direction;
use lagraph::service::{GraphService, Query, ServiceConfig, Update, ViewKind, ViewsConfig};
use lagraph::{
    bfs_level_direction, connected_components, core_numbers, pagerank, triangle_count, Graph,
    GraphKind, PageRankOptions, TriCountMethod,
};

const N: usize = 64;
const ROUNDS: usize = 8;
const PER_ROUND: usize = 100;

/// Deterministic seed graph: a ring plus chords, no self-loops.
fn seed_graph(kind: GraphKind) -> Graph {
    let edges: Vec<(usize, usize)> = (0..N)
        .map(|i| (i, (i + 1) % N))
        .chain((0..N / 4).map(|i| (i, (i * 5 + 2) % N)).filter(|&(i, j)| i != j))
        .collect();
    Graph::from_edges(N, &edges, kind).expect("seed graph")
}

/// Tiny deterministic PRNG (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[derive(Clone, Copy, Debug)]
enum Mix {
    InsertOnly,
    DeleteHeavy,
    Mixed,
}

/// The churn script of `service_views.rs`: deletes are drawn from a
/// tracked mirror of the live edge set so they mostly hit real edges.
fn script(mix: Mix) -> Vec<Vec<Update>> {
    let mut rng = Rng(0xA5A5_1234_5678_9ABC);
    let mut present: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 0..N {
        let j = (i + 1) % N;
        present.insert((i.min(j), i.max(j)));
    }
    for i in 0..N / 4 {
        let j = (i * 5 + 2) % N;
        if i != j {
            present.insert((i.min(j), i.max(j)));
        }
    }
    let delete_cut = match mix {
        Mix::InsertOnly => 0,
        Mix::DeleteHeavy => 10,
        Mix::Mixed => 4,
    };
    (0..ROUNDS)
        .map(|_| {
            (0..PER_ROUND)
                .map(|_| {
                    if (rng.next() % 16) < delete_cut && !present.is_empty() {
                        let idx = (rng.next() as usize) % present.len();
                        let &(i, j) = present.iter().nth(idx).expect("indexed edge");
                        present.remove(&(i, j));
                        Update::Delete(i, j)
                    } else {
                        let i = (rng.next() as usize) % N;
                        let mut j = (rng.next() as usize) % N;
                        if i == j {
                            j = (j + 1) % N;
                        }
                        present.insert((i.min(j), i.max(j)));
                        Update::Insert(i, j, (rng.next() % 1000) as f64 / 8.0)
                    }
                })
                .collect()
        })
        .collect()
}

fn service(kind: GraphKind, shards: usize) -> GraphService {
    GraphService::new(seed_graph(kind), ServiceConfig { shards, ..ServiceConfig::default() })
        .expect("service")
}

fn bits(m: &graphblas::Matrix<f64>) -> Vec<(usize, usize, u64)> {
    m.extract_tuples().into_iter().map(|(i, j, w)| (i, j, w.to_bits())).collect()
}

/// Materialise every cached property, the structure's dual included (a
/// pull BFS reads it).
fn touch(g: &Graph) {
    g.structure().expect("structure");
    g.at().expect("at");
    g.out_degree().expect("out_degree");
    g.in_degree().expect("in_degree");
    bfs_level_direction(g, 0, Direction::Pull).expect("pull bfs");
}

/// Every cache of `g` equals the one a from-scratch graph over the same
/// adjacency derives.
fn assert_caches_match_oracle(g: &Graph, label: &str) {
    let oracle = Graph::new(g.a().clone(), g.kind()).expect("oracle");
    assert_eq!(
        g.structure().expect("structure").extract_tuples(),
        oracle.structure().expect("structure").extract_tuples(),
        "{label}: structure"
    );
    for source in [0, N / 2, N - 1] {
        // Pull reads the dual, push the rows: three answers, one truth.
        let pulled = bfs_level_direction(g, source, Direction::Pull).expect("pull bfs");
        let pushed = bfs_level_direction(g, source, Direction::Push).expect("push bfs");
        let want = bfs_level_direction(&oracle, source, Direction::Pull).expect("oracle bfs");
        assert_eq!(
            pulled.extract_tuples(),
            want.extract_tuples(),
            "{label}: pull bfs from {source}"
        );
        assert_eq!(
            pushed.extract_tuples(),
            want.extract_tuples(),
            "{label}: push bfs from {source}"
        );
    }
    assert_eq!(bits(&g.at().expect("at")), bits(&oracle.at().expect("at")), "{label}: at");
    assert_eq!(
        g.out_degree().expect("out").extract_tuples(),
        oracle.out_degree().expect("out").extract_tuples(),
        "{label}: out_degree"
    );
    assert_eq!(
        g.in_degree().expect("in").extract_tuples(),
        oracle.in_degree().expect("in").extract_tuples(),
        "{label}: in_degree"
    );
}

/// Replay one script with every cache live: each published epoch must
/// arrive with all of them already materialised, and equal to the oracle.
fn run_carried(mix: Mix, kind: GraphKind, shards: usize) {
    let label = format!("{mix:?} {kind:?} S={shards}");
    let s = service(kind, shards);
    touch(s.snapshot().graph());
    for round in script(mix) {
        for u in &round {
            s.submit(*u).expect("submit");
        }
        let snap = s.flush().expect("flush");
        let g = snap.graph();
        let label = format!("{label} epoch {}", snap.epoch());
        // Whatever number of epochs the flush turned, each inherited from
        // the one before: nothing is left for the getters to derive.
        let inherited = g.resident_bytes();
        assert!(inherited > g.a().memory_usage().total(), "{label}: no cache was carried forward");
        assert_caches_match_oracle(g, &label);
        assert_eq!(g.resident_bytes(), inherited, "{label}: a getter had to derive a cache");
    }
}

#[test]
fn insert_only_epochs_inherit_exact_caches() {
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        for shards in [1, 2, 4] {
            run_carried(Mix::InsertOnly, kind, shards);
        }
    }
}

#[test]
fn delete_heavy_epochs_inherit_exact_caches() {
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        for shards in [1, 2, 4] {
            run_carried(Mix::DeleteHeavy, kind, shards);
        }
    }
}

#[test]
fn mixed_epochs_inherit_exact_caches() {
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        for shards in [1, 2, 4] {
            run_carried(Mix::Mixed, kind, shards);
        }
    }
}

#[test]
fn undirected_snapshots_hold_one_copy_of_the_structure() {
    // An undirected structure is symmetric and every epoch's delta is
    // mirrored, so each snapshot's structure serves its own dual: no
    // transposed copy is held, and the snapshot is smaller than one that
    // held it by exactly the bytes of that copy.
    for mix in [Mix::InsertOnly, Mix::DeleteHeavy, Mix::Mixed] {
        for shards in [1, 2] {
            let s = service(GraphKind::Undirected, shards);
            touch(s.snapshot().graph());
            for round in script(mix) {
                for u in &round {
                    s.submit(*u).expect("submit");
                }
                let snap = s.flush().expect("flush");
                let g = snap.graph();
                let label = format!("{mix:?} S={shards} epoch {}", snap.epoch());
                let st = g.structure().expect("structure");
                let held = st.memory_usage();
                assert_eq!(held.dual_bytes, 0, "{label}: the structure holds a transposed copy");
                // What the structure's dual costs as a copy: its transpose.
                let copy = transpose_new(&st).expect("transpose").memory_usage().total();
                let degrees = g.out_degree().expect("out_degree").memory_usage().total();
                let with_copy = g.a().memory_usage().total() + held.total() + copy + degrees;
                assert!(copy > 0, "{label}");
                assert!(g.resident_bytes() + copy <= with_copy, "{label}: a copy too many");
                assert_caches_match_oracle(g, &label);
            }
        }
    }
}

#[test]
fn unqueried_epochs_materialise_nothing() {
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        let s = service(kind, 2);
        for round in script(Mix::Mixed) {
            for u in &round {
                s.submit(*u).expect("submit");
            }
            let snap = s.flush().expect("flush");
            let g = snap.graph();
            assert_eq!(
                g.resident_bytes(),
                g.a().memory_usage().total(),
                "{kind:?} epoch {}: an epoch nobody queried holds more than its adjacency",
                snap.epoch()
            );
        }
        // The caches are lazy, not lost: the last epoch still derives them.
        assert_caches_match_oracle(s.snapshot().graph(), &format!("{kind:?} lazy"));
    }
}

#[test]
fn only_what_was_materialised_is_carried() {
    let s = service(GraphKind::Directed, 2);
    s.snapshot().graph().out_degree().expect("out_degree at epoch 0");
    let rounds = script(Mix::Mixed);
    for u in &rounds[0] {
        s.submit(*u).expect("submit");
    }
    let snap = s.flush().expect("flush");
    let g = snap.graph();
    let inherited = g.resident_bytes();
    assert!(inherited > g.a().memory_usage().total(), "out_degree was not carried forward");
    g.out_degree().expect("out_degree");
    assert_eq!(g.resident_bytes(), inherited, "out_degree had to be derived again");
    g.structure().expect("structure");
    assert!(g.resident_bytes() > inherited, "structure was carried though never materialised");
    assert_caches_match_oracle(g, "partial carry");
}

#[test]
fn layered_snapshots_share_their_base_until_a_fold() {
    // One update an epoch, so each flush turns exactly one epoch and the
    // snapshot it replaced is its predecessor. Every publish either layers
    // its rows over the predecessor's base or folds its overlay into a
    // fresh base; both must happen, the structure must fold when `A` does
    // (they hold one pattern), serve as its own dual throughout, and `at()`
    // must stay `A` itself.
    let updates: Vec<Update> = script(Mix::Mixed).concat().into_iter().take(96).collect();
    for shards in [1, 2] {
        let s = service(GraphKind::Undirected, shards);
        touch(s.snapshot().graph());
        let (mut shared, mut folded) = (0, 0);
        for u in &updates {
            let prev = s.snapshot();
            s.submit(*u).expect("submit");
            let snap = s.flush().expect("flush");
            assert_eq!(snap.epoch(), prev.epoch() + 1);
            let (g, before) = (snap.graph(), prev.graph());
            let label = format!("S={shards} epoch {}", snap.epoch());
            let layers = g.a().layers().expect("a layered adjacency");
            let shares = g.a().shares_base(before.a());
            assert_eq!(shares, !layers.folded, "{label}: {layers:?}");
            let st = g.structure().expect("structure");
            let st_before = before.structure().expect("structure");
            assert_eq!(st.shares_base(&st_before), shares, "{label}: the structure's base");
            assert_eq!(st.memory_usage().dual_bytes, 0, "{label}: the structure holds a copy");
            assert!(std::ptr::eq(&*g.at().expect("at"), g.a()), "{label}: at() is not A");
            if shares {
                shared += 1;
            } else {
                folded += 1;
            }
            assert_caches_match_oracle(g, &label);
        }
        assert!(shared > 10 && folded > 10, "S={shards}: shared {shared}, folded {folded}");
    }
}

/// Churn for the components carry, from `seed`: inserts of fresh edges,
/// deletes of live ones (splits), re-weights of live ones (no event), and
/// self-loops put in and taken out (events that join nothing), in rounds
/// of 16 updates.
fn churn(kind: GraphKind, seed: u64) -> Vec<Vec<Update>> {
    let mut rng = Rng(seed);
    let key = |i: usize, j: usize| match kind {
        GraphKind::Undirected => (i.min(j), i.max(j)),
        GraphKind::Directed => (i, j),
    };
    let seeded = seed_graph(kind).a().extract_tuples();
    let mut live: BTreeSet<(usize, usize)> = seeded.iter().map(|&(i, j, _)| key(i, j)).collect();
    let mut draw = || {
        let pick = rng.next() % 16;
        let (i, j) = ((rng.next() as usize) % N, (rng.next() as usize) % N);
        let weight = (rng.next() % 1000) as f64 / 8.0;
        match pick {
            0..=5 if !live.is_empty() => {
                let e = *live.iter().nth((rng.next() as usize) % live.len()).expect("live edge");
                live.remove(&e);
                Update::Delete(e.0, e.1)
            }
            6..=7 if !live.is_empty() => {
                let e = *live.iter().nth((rng.next() as usize) % live.len()).expect("live edge");
                Update::Insert(e.0, e.1, weight)
            }
            8 => Update::Insert(i, i, weight),
            9 => Update::Delete(i, i),
            _ => {
                let j = if i == j { (j + 1) % N } else { j };
                live.insert(key(i, j));
                Update::Insert(i, j, weight)
            }
        }
    };
    (0..24).map(|_| (0..16).map(|_| draw()).collect()).collect()
}

#[test]
fn carried_components_match_fastsv_at_every_epoch() {
    for compressed in [false, true] {
        for shards in [1, 2, 4] {
            let label = format!("compressed={compressed} S={shards}");
            let config = ServiceConfig { shards, compressed, ..ServiceConfig::default() };
            let s = GraphService::new(seed_graph(GraphKind::Undirected), config).expect("service");
            s.query(Query::connected_components()).expect("cc at epoch 0");
            for (k, round) in
                churn(GraphKind::Undirected, 0x5EED_0000 + shards as u64).iter().enumerate()
            {
                for u in round {
                    s.submit(*u).expect("submit");
                }
                let snap = s.flush().expect("flush");
                let g = snap.graph();
                let label = format!("{label} round {k} epoch {}", snap.epoch());
                // Carried, not derived: the getter adds nothing resident.
                let held = g.resident_bytes();
                let labels = g.components().expect("components");
                assert_eq!(g.resident_bytes(), held, "{label}: the labels were not carried");
                let oracle = Graph::new(g.a().clone(), GraphKind::Undirected).expect("oracle");
                assert_eq!(
                    labels.extract_tuples(),
                    connected_components(&oracle).expect("fastsv").extract_tuples(),
                    "{label}"
                );
                assert_eq!(g.a().is_compressed(), compressed, "{label}");
            }
        }
    }
}

#[test]
fn a_directed_graph_recomputes_its_components() {
    for compressed in [false, true] {
        for shards in [1, 2, 4] {
            let label = format!("directed compressed={compressed} S={shards}");
            let config = ServiceConfig { shards, compressed, ..ServiceConfig::default() };
            let s = GraphService::new(seed_graph(GraphKind::Directed), config).expect("service");
            s.query(Query::connected_components()).expect("cc at epoch 0");
            for (k, round) in
                churn(GraphKind::Directed, 0xD1_0000 + shards as u64).iter().enumerate()
            {
                for u in round {
                    s.submit(*u).expect("submit");
                }
                let snap = s.flush().expect("flush");
                let g = snap.graph();
                let label = format!("{label} round {k} epoch {}", snap.epoch());
                let held = g.resident_bytes();
                let labels = g.components().expect("components");
                assert!(g.resident_bytes() > held, "{label}: a directed graph carried its labels");
                let oracle = Graph::new(g.a().clone(), GraphKind::Directed).expect("oracle");
                assert_eq!(
                    labels.extract_tuples(),
                    connected_components(&oracle).expect("fastsv").extract_tuples(),
                    "{label}"
                );
            }
        }
    }
}

/// The three views whose properties `Graph::advance` seeds for a repair
/// on the next graph's first read.
const SEEDED_VIEWS: [ViewKind; 3] =
    [ViewKind::TriangleCount, ViewKind::CoreNumbers, ViewKind::PageRank];

/// A service over the undirected seed graph with the seeded views
/// registered, repairing within `staleness` structural changes an epoch.
fn seeded_view_service(shards: usize, staleness: usize) -> GraphService {
    let views = ViewsConfig { views: SEEDED_VIEWS.to_vec(), staleness, ..ViewsConfig::default() };
    let config = ServiceConfig { shards, views: Some(views), ..ServiceConfig::default() };
    GraphService::new(seed_graph(GraphKind::Undirected), config).expect("service with views")
}

/// The published graph's triangle count, core numbers and ranks are held
/// on it (reading them adds nothing resident) and equal what a graph
/// built from scratch on the same adjacency gets from the entry points:
/// bit for bit, except ranks that `cold` does not promise, which must be
/// within 1e-6.
fn assert_carried_answers_match_oracle(s: &GraphService, label: &str, cold: bool) {
    let snap = s.snapshot();
    let g = snap.graph();
    let label = format!("{label} epoch {}", snap.epoch());
    let held = g.resident_bytes();
    let triangles = g.triangles().expect("triangles");
    let cores = g.cores().expect("cores");
    let opts = PageRankOptions::default();
    let (ranks, _) = g.ranks(&opts).expect("ranks");
    assert_eq!(g.resident_bytes(), held, "{label}: an answer was not held at publish");
    let oracle = Graph::new(g.a().clone(), GraphKind::Undirected).expect("oracle");
    assert_eq!(
        triangles,
        triangle_count(&oracle, TriCountMethod::Sandia).expect("tricount"),
        "{label}: triangles"
    );
    assert_eq!(
        cores.extract_tuples(),
        core_numbers(&oracle).expect("core numbers").extract_tuples(),
        "{label}: cores"
    );
    let (want, _) = pagerank(&oracle, &opts).expect("pagerank");
    if cold {
        let bits = |v: &graphblas::Vector<f64>| -> Vec<(usize, u64)> {
            v.extract_tuples().into_iter().map(|(i, x)| (i, x.to_bits())).collect()
        };
        assert_eq!(bits(&ranks), bits(&want), "{label}: cold ranks must be bit-identical");
    } else {
        for v in 0..N {
            let (a, b) = (ranks.get(v).unwrap_or(0.0), want.get(v).unwrap_or(0.0));
            assert!((a - b).abs() < 1e-6, "{label}: ranks at {v}: {a} vs {b}");
        }
    }
}

fn refreshes(s: &GraphService, view: ViewKind) -> (u64, u64) {
    let st = s.view_stats().into_iter().find(|v| v.view == view).expect("registered view");
    (st.repairs, st.rebuilds)
}

#[test]
fn carried_view_answers_match_the_entry_points_at_every_epoch() {
    for shards in [1, 2, 4] {
        for mix in [Mix::InsertOnly, Mix::Mixed] {
            let label = format!("{mix:?} S={shards}");
            let s = seeded_view_service(shards, 4096);
            assert_carried_answers_match_oracle(&s, &label, true); // registration: cold
            for round in script(mix) {
                for u in &round {
                    s.submit(*u).expect("submit");
                }
                s.flush().expect("flush");
                assert_carried_answers_match_oracle(&s, &label, false);
            }
            // Within the budget the count and the ranks always repair; the
            // core numbers repair on inserts and are recomputed after a delete.
            for view in [ViewKind::TriangleCount, ViewKind::PageRank] {
                let (repairs, rebuilds) = refreshes(&s, view);
                assert!(repairs >= ROUNDS as u64, "{label}: {view:?} repaired {repairs}");
                assert_eq!(rebuilds, 0, "{label}: {view:?} rebuilt");
            }
            let (repairs, rebuilds) = refreshes(&s, ViewKind::CoreNumbers);
            match mix {
                Mix::InsertOnly => assert_eq!(rebuilds, 0, "{label}: cores rebuilt on inserts"),
                _ => assert!(rebuilds >= 1, "{label}: a delete epoch kept the core numbers"),
            }
            assert!(repairs + rebuilds >= ROUNDS as u64, "{label}: cores refreshed too rarely");
        }
    }
}

#[test]
fn past_the_budget_the_view_answers_are_recomputed_cold() {
    for shards in [1, 2, 4] {
        // Every epoch changes at least one edge, which a zero budget does
        // not admit: nothing is carried, so PageRank is bit-identical too.
        let label = format!("over budget S={shards}");
        let s = seeded_view_service(shards, 0);
        for round in script(Mix::Mixed) {
            for u in &round {
                s.submit(*u).expect("submit");
            }
            s.flush().expect("flush");
            assert_carried_answers_match_oracle(&s, &label, true);
        }
        for view in SEEDED_VIEWS {
            let (repairs, rebuilds) = refreshes(&s, view);
            assert_eq!(repairs, 0, "{label}: {view:?} repaired past the budget");
            assert!(rebuilds >= ROUNDS as u64, "{label}: {view:?} rebuilt {rebuilds}");
        }
    }
}

#[test]
fn an_epoch_past_the_budget_between_carried_ones_is_recomputed_and_carried_again() {
    // A budget of one edge: one update a flush is one epoch with one
    // event, carried; a flush of a whole round holds epochs past it.
    let rounds = script(Mix::Mixed);
    for shards in [1, 2, 4] {
        let label = format!("budget 1 S={shards}");
        let s = seeded_view_service(shards, 1);
        let mut past_budget = 0;
        for (k, round) in rounds.iter().take(4).enumerate() {
            let before = refreshes(&s, ViewKind::PageRank);
            for u in &round[..8] {
                s.submit(*u).expect("submit");
                s.flush().expect("flush");
            }
            let after = refreshes(&s, ViewKind::PageRank);
            assert!(after.0 > before.0, "{label} round {k}: one-edge epochs were not repaired");
            assert_carried_answers_match_oracle(&s, &label, false);
            let before = refreshes(&s, ViewKind::PageRank);
            for u in &round[8..] {
                s.submit(*u).expect("submit");
            }
            s.flush().expect("flush");
            let after = refreshes(&s, ViewKind::PageRank);
            // Only epochs past the budget: the ranks were computed cold.
            let cold = after.0 == before.0;
            assert_carried_answers_match_oracle(&s, &label, cold);
            past_budget += after.1 - before.1;
        }
        // A round's 92 updates outrun the coordinator's epochs, so some
        // epoch takes more than one of them.
        assert!(past_budget >= 1, "{label}: no epoch went past the budget");
    }
}
