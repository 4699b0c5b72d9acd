//! Figure 1's layering, held as a test: the LAGraph stack puts the
//! algorithm library above the GraphBLAS API and the implementation below
//! it. Here that is `lagraph` (crates/core) and `lagraph-io` (crates/io)
//! over `graphblas` (crates/graphblas), whose kernels run on its own
//! thread pool (`graphblas::parallel`). Two rules make it hold: every
//! dependency arrow points downward, and the algorithm sources name no
//! `graphblas` internals.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The package names under a manifest's `[dependencies]`.
fn deps_of(manifest: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join(manifest)).expect("manifest");
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_deps = t == "[dependencies]";
        } else if in_deps && !t.is_empty() && !t.starts_with('#') {
            deps.extend(t.split(['=', ' ', '.']).next().map(str::to_string));
        }
    }
    deps
}

#[test]
fn dependency_arrows_point_downward() {
    let core = deps_of("crates/core/Cargo.toml");
    let io = deps_of("crates/io/Cargo.toml");
    let graphblas = deps_of("crates/graphblas/Cargo.toml");
    assert!(core.iter().any(|d| d == "graphblas"), "lagraph must sit on graphblas: {core:?}");
    assert!(
        !graphblas.iter().any(|d| d == "lagraph" || d == "lagraph-io"),
        "graphblas must not depend upward: {graphblas:?}"
    );
    assert!(!io.iter().any(|d| d == "lagraph"), "io must not depend on the algorithms: {io:?}");
}

/// The internal modules of `graphblas` are private, so a leak would be a
/// compile error; this also keeps the sources from naming their paths.
#[test]
fn algorithms_use_only_the_public_graphblas_api() {
    let mut checked = 0;
    let mut stack = vec![root().join("crates/core/src")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("source file");
                for forbidden in ["graphblas::sparse", "graphblas::matrix::Store", "VStore"] {
                    assert!(!src.contains(forbidden), "{path:?} names internal `{forbidden}`");
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "only {checked} algorithm sources found");
}
