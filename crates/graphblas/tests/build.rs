//! `Matrix::build` against a reference: the tuples stably sorted by
//! `(row, col)`, then each run of one position folded left to right.
//! The `dup` here is not commutative, so a build that hands duplicates to
//! it in any order but the input's gives a different value.
//!
//! The inputs cover every path of the build: tuples already in order,
//! reversed, and as drawn; fewer tuples than a third of the rows (the
//! comparison sort) and more (the row buckets); heavy duplication; one hub row holding at
//! least half the entries.

use graphblas::prelude::*;
use proptest::prelude::*;

/// Not commutative and not associative: `dup(dup(a, b), c)` differs from
/// every other grouping and order of the three.
fn dup(a: u64, b: u64) -> u64 {
    a.wrapping_mul(31).wrapping_add(b)
}

fn reference(tuples: &[(Index, Index, u64)]) -> Vec<(Index, Index, u64)> {
    let mut sorted = tuples.to_vec();
    sorted.sort_by_key(|&(i, j, _)| (i, j));
    let mut out: Vec<(Index, Index, u64)> = Vec::new();
    for (i, j, x) in sorted {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (i, j) => last.2 = dup(last.2, x),
            _ => out.push((i, j, x)),
        }
    }
    out
}

fn built(nrows: Index, ncols: Index, tuples: &[(Index, Index, u64)]) -> Vec<(Index, Index, u64)> {
    Matrix::from_tuples(nrows, ncols, tuples.to_vec(), dup).expect("build").extract_tuples()
}

#[derive(Debug, Clone, Copy)]
enum Order {
    Sorted,
    Reversed,
    AsDrawn,
}

/// `(nrows, ncols, tuples)`: up to three tuples a row, so the count lands
/// on both sides of `nrows / 3`; `ncols` of 1–3 duplicates heavily; a hub,
/// when drawn, is the row every other tuple is moved to.
fn arb_input() -> impl Strategy<Value = (Index, Index, Vec<(Index, Index, u64)>)> {
    (
        1usize..48,
        prop_oneof![1usize..4, 1usize..64],
        proptest::collection::vec((0usize..48, 0usize..64, any::<u64>()), 0..144),
        proptest::option::of(0usize..48),
        prop_oneof![Just(Order::Sorted), Just(Order::Reversed), Just(Order::AsDrawn)],
    )
        .prop_map(|(nrows, ncols, drawn, hub, order)| {
            let mut tuples: Vec<(Index, Index, u64)> = drawn
                .into_iter()
                .take(3 * nrows)
                .map(|(i, j, x)| (i % nrows, j % ncols, x))
                .collect();
            if let Some(h) = hub {
                for t in tuples.iter_mut().step_by(2) {
                    t.0 = h % nrows;
                }
            }
            match order {
                Order::Sorted => tuples.sort_by_key(|&(i, j, _)| (i, j)),
                Order::Reversed => {
                    tuples.sort_by_key(|&(i, j, _)| (i, j));
                    tuples.reverse();
                }
                Order::AsDrawn => {}
            }
            (nrows, ncols, tuples)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn build_folds_duplicates_in_input_order((nrows, ncols, tuples) in arb_input()) {
        prop_assert_eq!(built(nrows, ncols, &tuples), reference(&tuples));
    }
}

#[test]
fn no_tuples_build_an_empty_matrix() {
    for n in [1, 5, 1 << 23] {
        let a = Matrix::<u64>::from_tuples(n, n, Vec::new(), dup).expect("empty");
        assert_eq!(a.nvals(), 0);
    }
}

/// One row: every tuple count is at least `nrows / 3`, so each takes the
/// bucket path, with the whole input in one bucket.
#[test]
fn a_single_row_folds_in_input_order() {
    let tuples: Vec<(Index, Index, u64)> =
        (0..500u64).map(|k| (0, (k * 7919 % 97) as Index, k)).collect();
    assert_eq!(built(1, 97, &tuples), reference(&tuples));
    assert_eq!(built(1, 97, &tuples[..1]), reference(&tuples[..1]));
}

#[test]
fn every_tuple_at_one_position_folds_to_one_entry() {
    for (n, len) in [(1, 300), (16, 3), (16, 300)] {
        let tuples: Vec<(Index, Index, u64)> = (0..len as u64).map(|k| (n / 2, n / 3, k)).collect();
        let expect = (1..len as u64).fold(0, dup);
        assert_eq!(built(n, n, &tuples), vec![(n / 2, n / 3, expect)]);
    }
}

/// A duplicate-heavy input with a hub row, and the same input past the
/// hypersparse cut on rows, both against the reference.
#[test]
fn large_inputs_match_the_reference() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let n = 512;
    let tuples: Vec<(Index, Index, u64)> = (0..20_000)
        .map(|k| {
            let i = if k % 3 == 0 { 7 } else { draw(n as u64) as Index };
            (i, draw(64) as Index, draw(1 << 40))
        })
        .collect();
    assert_eq!(built(n, n, &tuples), reference(&tuples));
    let wide: Vec<(Index, Index, u64)> = tuples.iter().map(|&(i, j, x)| (i << 20, j, x)).collect();
    assert_eq!(built(1 << 30, n, &wide), reference(&wide));
}
