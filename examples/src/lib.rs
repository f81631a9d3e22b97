//! Placeholder library target; the runnable content lives in the example
//! binaries (`cargo run -p pf-examples --example <name>`).

#![forbid(unsafe_code)]
