//! The `lagraph-bench` package: its binary (`src/main.rs`) regenerates
//! every table of EXPERIMENTS.md; the library holds [`json`], the
//! workspace's dependency-free JSON parser.

pub mod json;
