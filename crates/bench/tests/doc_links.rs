//! Drift checks for the repository documentation: relative links, and
//! the README's environment-variable table against the code.
//!
//! The link checker walks `README.md`, `DESIGN.md`, and everything under `docs/`,
//! extracts every inline Markdown link, and verifies that each
//! repo-relative target resolves: the file must exist, and a `#anchor`
//! fragment must match a heading in the target file under GitHub's
//! slugging rules (lowercase, punctuation stripped, spaces → dashes).
//! External links (`http…`) are skipped — CI must not depend on the
//! network — but in-repo drift fails the build instead of rotting.
//!
//! The environment table check holds the README's "Environment
//! variables" rows to exactly the `GRAPHBLAS_*` / `LAGRAPH_*` /
//! `SERVICE_CHURN_*` names that source under `crates/` reads.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// Repository root, two levels up from the bench crate.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// The documentation set under test.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("README.md"), root.join("DESIGN.md")];
    let docs = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&docs)
        .expect("docs/ directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    out.extend(entries);
    out
}

/// Extract inline `[text](target)` links, skipping fenced code blocks
/// and inline code spans (link-shaped text inside backticks is example
/// syntax, not a link).
fn extract_links(markdown: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut in_code = false;
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b']' if !in_code && i + 1 < bytes.len() && bytes[i + 1] == b'(' => {
                    if let Some(end) = line[i + 2..].find(')') {
                        links.push(line[i + 2..i + 2 + end].to_string());
                        i += end + 2;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    links
}

/// GitHub's heading slug: lowercase, alphanumerics and existing dashes
/// kept, spaces become dashes, everything else dropped.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .trim_start_matches('#')
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' {
                Some('-')
            } else if c == '-' || c == '_' {
                Some(c)
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors in a file, with `-1`, `-2`… suffixes for
/// duplicate headings, GitHub-style.
fn anchors(markdown: &str) -> HashSet<String> {
    let mut seen: std::collections::HashMap<String, usize> = Default::default();
    let mut out = HashSet::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && trimmed.starts_with('#') {
            let base = slug(trimmed);
            let n = seen.entry(base.clone()).or_insert(0);
            out.insert(if *n == 0 { base.clone() } else { format!("{base}-{n}") });
            *n += 1;
        }
    }
    out
}

#[test]
fn relative_links_resolve() {
    let root = repo_root();
    let mut errors = Vec::new();
    let mut checked = 0usize;
    for file in doc_files(&root) {
        let text = std::fs::read_to_string(&file).expect("read doc");
        let dir = file.parent().expect("doc parent");
        let rel = file.strip_prefix(&root).unwrap_or(&file).display().to_string();
        for link in extract_links(&text) {
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
            {
                continue;
            }
            checked += 1;
            let (path_part, fragment) = match link.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (link.as_str(), None),
            };
            let target = if path_part.is_empty() { file.clone() } else { dir.join(path_part) };
            if !target.exists() {
                errors.push(format!("{rel}: broken link `{link}` ({path_part} not found)"));
                continue;
            }
            if let Some(frag) = fragment {
                if target.extension().is_some_and(|x| x == "md") {
                    let body = std::fs::read_to_string(&target).expect("read link target");
                    if !anchors(&body).contains(frag) {
                        errors.push(format!(
                            "{rel}: link `{link}` points at a missing anchor `#{frag}`"
                        ));
                    }
                }
            }
        }
    }
    assert!(checked >= 10, "link checker found only {checked} relative links — extraction broken?");
    assert!(errors.is_empty(), "documentation link drift:\n  {}", errors.join("\n  "));
}

#[test]
fn slugs_match_github_rules() {
    assert_eq!(slug("## Materialized views"), "materialized-views");
    assert_eq!(
        slug("# 15. Incremental views & epoch deltas"),
        "15-incremental-views--epoch-deltas"
    );
    assert_eq!(slug("### `LAGRAPH_VIEWS` (env)"), "lagraph_views-env");
}

const ENV_PREFIXES: [&str; 3] = ["GRAPHBLAS_", "LAGRAPH_", "SERVICE_CHURN_"];

/// Every environment-variable name in `text` that directly follows
/// `open` and is directly followed by `close`.
fn env_names(text: &str, open: char, close: char, out: &mut BTreeSet<String>) {
    for (at, _) in text.match_indices(open) {
        let rest = &text[at + open.len_utf8()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..len];
        if rest[len..].starts_with(close)
            && ENV_PREFIXES.iter().any(|p| name.starts_with(p) && name.len() > p.len())
        {
            out.insert(name.to_string());
        }
    }
}

/// The names the code reads: every string literal under `crates/` that
/// is exactly one variable name (messages and doc comments that merely
/// mention a variable are not).
fn env_names_read(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("read source dir").filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            env_names_read(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            env_names(&std::fs::read_to_string(&path).expect("read source"), '"', '"', out);
        }
    }
}

#[test]
fn readme_environment_table_matches_the_code() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let section = readme
        .split_once("## Environment variables")
        .map(|(_, rest)| rest.split("\n## ").next().unwrap_or(rest))
        .expect("README has an Environment variables section");
    let mut documented = BTreeSet::new();
    // The variable is the first cell of its row; later cells may mention others.
    for cell in section.lines().filter_map(|row| row.strip_prefix('|')?.split('|').next()) {
        env_names(cell, '`', '`', &mut documented);
    }
    let mut read = BTreeSet::new();
    env_names_read(&root.join("crates"), &mut read);
    assert!(read.len() >= 10, "found only {read:?} — source scan broken?");
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README environment table drift: read but not documented {undocumented:?}, \
         documented but not read {stale:?}"
    );
}
