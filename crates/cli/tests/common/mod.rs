//! Scratch files for the CLI's suites: its integration tests and, via a
//! `#[path]` module in `lib.rs`, the unit tests of `commands.rs`.

use std::path::PathBuf;

/// A scratch directory under the system temp dir, named per process and
/// per test, removed on drop: also when an assertion fails.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates an empty directory for the test named `test`.
    pub fn new(test: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("carta-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir scratch dir");
        ScratchDir(dir)
    }

    /// The path of `name` inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
