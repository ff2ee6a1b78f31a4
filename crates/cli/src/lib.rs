//! Library surface of the `carta` CLI so integration tests (golden
//! output pins, metrics schema) can drive [`commands::run`] in-process
//! instead of spawning binaries.
//!
//! The binary in `main.rs` is a thin wrapper: parse `argv`, call
//! [`commands::run`], print, map the error to an exit code.

pub mod args;
pub mod commands;
pub mod obs;
pub mod render;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod scratch;
