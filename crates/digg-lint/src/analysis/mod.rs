//! The workspace-level analysis families (DESIGN.md §18).
//!
//! Each analysis runs over the [`WorkspaceModel`] and yields
//! violations keyed by file index; [`crate::lint_workspace`] merges
//! them into the per-file reports before pragma filtering, so the
//! same `// digg-lint: allow(...)` ledger governs them.
//! [`crate::lint_source`] runs the three source-level families over a
//! one-file model so fixtures and unit tests exercise identical code
//! paths; the manifest-level boundary check is workspace-only by
//! nature.

pub mod boundary;
pub mod hotpath;
pub mod snapshot;
pub mod taint;

use crate::model::WorkspaceModel;
use crate::rules::Violation;

/// Method names so common that resolving them by bare name across a
/// crate would connect unrelated types (`Vec::push` vs a slab's
/// `push`). The call-graph analyses skip them: direct allocation and
/// iteration patterns are caught textually at the call site instead.
pub const COMMON_METHODS: [&str; 20] = [
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clone",
    "collect",
    "extend",
    "contains",
    "new",
    "with_capacity",
    "iter",
    "drain",
    "clear",
    "entry",
    "next",
    "default",
];

/// Is `callee` worth resolving through the call graph?
pub fn resolvable(callee: &str) -> bool {
    !COMMON_METHODS.contains(&callee)
}

/// Run the source-level analyses over every file of a model.
pub fn run_all(model: &WorkspaceModel) -> Vec<(usize, Violation)> {
    let mut out = snapshot::run(model);
    out.extend(hotpath::run(model));
    out.extend(taint::run(model));
    out
}
