//! `digg-lint` — the workspace determinism-and-robustness linter.
//!
//! Every result this reproduction ships rests on an unwritten
//! contract: all randomness flows through `des_core::StreamRng`,
//! payloads are bit-identical at any `DIGG_THREADS`, artifacts never
//! depend on wall-clock or hash-iteration order, and library code
//! reports failures as typed errors instead of panicking. This crate
//! makes that contract *written and enforced*: a self-contained
//! static-analysis pass (own comment/string-aware lexer, item parser
//! and workspace symbol graph, zero dependencies) that CI runs on
//! every push.
//!
//! Two layers of rules — see [`rules`] for the ids, DESIGN.md §13 for
//! the per-line invariants and §18 for the workspace analyses:
//!
//! | rule | guards |
//! |------|--------|
//! | `kernel-capability` | kernel artifacts independent of real time, OS entropy and executors |
//! | `no-lib-unwrap` | library failures are typed, not panics |
//! | `no-unordered-serialize` | serde-derived bytes independent of hash order |
//! | `no-truncating-cast` | ids/counts never silently truncated |
//! | `raw-thread-fanout` | all fan-out through `des_core::par` |
//! | `no-unchecked-mmap` | `unsafe` confined to the one audited mmap module |
//! | `snapshot-coverage` | every field of a Snapshot/Restore type round-trips |
//! | `kernel-dep-shell` | kernel crates cannot depend on shell crates |
//! | `hot-path-alloc` | the per-vote kernels stay allocation-free |
//! | `unordered-taint` | no hash-order data reaches a serialization sink |
//!
//! Every rule's scope — the kernel/shell crate partition and the
//! file-level carve-outs — comes from `lint-boundary.toml` at the
//! workspace root ([`Config::load`]); a tree without it does not lint.
//! Inline suppression is only possible via
//!
//! ```text
//! // digg-lint: allow(no-lib-unwrap) — reason the invariant holds
//! ```
//!
//! and an allow that suppresses nothing is itself an error, so the
//! exemption ledger can only shrink — enforced in CI by the baseline
//! gate (`--baseline results/lint_baseline.json`). Run with
//! `cargo run -p digg-lint` (add `--json` for the machine-readable
//! report).

pub mod analysis;
pub mod baseline;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod walk;

use model::WorkspaceModel;
use rules::{Scope, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The boundary file at the workspace root: the only source of rule
/// scope.
const BOUNDARY_FILE: &str = "lint-boundary.toml";

/// Why a lint run could not start. The CLI exits 2 on every variant.
#[derive(Debug)]
pub enum LintError {
    /// The workspace root has no `lint-boundary.toml`.
    MissingBoundary(PathBuf),
    /// `lint-boundary.toml` does not parse, or does not partition the
    /// workspace crates.
    Boundary(String),
    /// A manifest or source file could not be read.
    Io(std::io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::MissingBoundary(path) => write!(
                f,
                "{} not found; every workspace crate must be partitioned into kernel or shell",
                path.display()
            ),
            LintError::Boundary(msg) => write!(f, "{BOUNDARY_FILE}: {msg}"),
            LintError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<std::io::Error> for LintError {
    fn from(e: std::io::Error) -> LintError {
        LintError::Io(e)
    }
}

/// Rule scope, read from `lint-boundary.toml` ([`Config::load`]) —
/// there is no other way to build one. Allowlist paths are
/// workspace-relative suffix matches.
#[derive(Debug, Clone)]
pub struct Config {
    /// `[crates] shell`: harness/driver crates, exempt from
    /// `kernel-capability` and the library panic/cast rules.
    shell_crates: Vec<String>,
    /// Directory prefixes of the shell crates.
    shell_paths: Vec<String>,
    /// `[allow] wallclock`: kernel files allowed to read the clock.
    wallclock_allow: Vec<String>,
    /// `[allow] fanout`: files allowed raw `std::thread` fan-out (the
    /// deterministic primitives themselves).
    fanout_allow: Vec<String>,
    /// `[allow] unsafe_mmap`: files allowed `unsafe` /
    /// `from_raw_parts` — exactly the one audited mmap module.
    mmap_allow: Vec<String>,
}

impl Config {
    /// Read `root/lint-boundary.toml` and check it against the crates
    /// under `root`.
    pub fn load(root: &Path) -> Result<Config, LintError> {
        Config::from_boundary(root, &model::discover_crates(root)?)
    }

    fn scope_for(&self, rel: &str) -> Scope {
        Scope {
            kind: walk::classify(rel),
            shell: self.shell_paths.iter().any(|p| rel.starts_with(p)),
            wallclock_exempt: self.wallclock_allow.iter().any(|p| rel.ends_with(p)),
            fanout_exempt: self.fanout_allow.iter().any(|p| rel.ends_with(p)),
            mmap_exempt: self.mmap_allow.iter().any(|p| rel.ends_with(p)),
        }
    }

    /// Every workspace crate must be assigned to exactly one side — a
    /// new crate cannot land unpartitioned.
    fn from_boundary(root: &Path, crates: &[model::CrateInfo]) -> Result<Config, LintError> {
        let path = root.join(BOUNDARY_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(LintError::MissingBoundary(path))
            }
            Err(e) => return Err(LintError::Io(e)),
        };
        let boundary =
            manifest::parse_boundary(&text).map_err(|e| LintError::Boundary(e.to_string()))?;
        for name in boundary.kernel.iter().chain(boundary.shell.iter()) {
            if !crates.iter().any(|c| c.name == *name) {
                return Err(LintError::Boundary(format!("names unknown crate `{name}`")));
            }
        }
        for c in crates {
            let in_kernel = boundary.kernel.iter().any(|n| n == &c.name);
            let in_shell = boundary.shell.iter().any(|n| n == &c.name);
            match (in_kernel, in_shell) {
                (true, true) => {
                    return Err(LintError::Boundary(format!(
                        "lists crate `{}` as both kernel and shell",
                        c.name
                    )))
                }
                (false, false) => {
                    return Err(LintError::Boundary(format!(
                        "does not partition crate `{}` (add it to [crates] kernel or shell)",
                        c.name
                    )))
                }
                // Its files are matched by directory prefix, and the
                // root's empty prefix would make every file shell.
                (false, true) if c.dir_prefix.is_empty() => {
                    return Err(LintError::Boundary(format!(
                        "the root package `{}` cannot be a shell crate",
                        c.name
                    )))
                }
                _ => {}
            }
        }
        let shell_paths = crates
            .iter()
            .filter(|c| boundary.shell.contains(&c.name))
            .map(|c| c.dir_prefix.clone())
            .collect();
        Ok(Config {
            shell_crates: boundary.shell,
            shell_paths,
            wallclock_allow: boundary.wallclock,
            fanout_allow: boundary.fanout,
            mmap_allow: boundary.unsafe_mmap,
        })
    }
}

/// Lint result for one file.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Surviving violations (pragmas already applied), in line order.
    pub violations: Vec<Violation>,
    /// Allow pragmas that suppressed at least one violation.
    pub allows_honoured: usize,
    /// Rule id of every violation a pragma suppressed.
    pub suppressed_rules: Vec<&'static str>,
}

/// Lint one file's source text (the unit the fixture tests drive).
/// Runs the per-line rules plus the source-level workspace analyses
/// over a single-file model, so fixtures exercise the same code paths
/// as [`lint_workspace`].
pub fn lint_source(rel_path: &str, src: &str, config: &Config) -> FileReport {
    let model = WorkspaceModel::single(rel_path, src);
    let map = &model.files[0].map;
    let raw: Vec<&str> = src.split('\n').collect();
    let mut raw_violations = rules::check(map, config.scope_for(rel_path), &raw);
    raw_violations.extend(analysis::run_all(&model).into_iter().map(|(_, v)| v));
    raw_violations.sort_by_key(|v| v.line);
    finish_file(rel_path, map, &raw, raw_violations)
}

/// Shared tail of per-file linting: pragma parse/apply and counting.
fn finish_file(
    rel_path: &str,
    map: &lexer::SourceMap,
    raw: &[&str],
    raw_violations: Vec<Violation>,
) -> FileReport {
    let (allows, mut malformed) = pragma::parse(map, raw);
    let (mut violations, suppressed_rules) =
        pragma::apply_counted(map, raw, raw_violations, &allows);
    let unused = violations
        .iter()
        .filter(|v| v.rule == rules::UNUSED_ALLOW)
        .count();
    violations.append(&mut malformed);
    violations.sort_by_key(|v| v.line);
    FileReport {
        path: rel_path.to_string(),
        violations,
        allows_honoured: allows.len().saturating_sub(unused),
        suppressed_rules,
    }
}

/// Outcome of a workspace lint.
#[derive(Debug, Clone)]
pub struct WorkspaceReport {
    /// Per-file reports that contain at least one violation.
    pub dirty: Vec<FileReport>,
    /// Total files scanned.
    pub files_scanned: usize,
    /// Total allow pragmas honoured across the tree.
    pub allows_honoured: usize,
    /// Suppressed-violation count per rule id (the per-rule ledger
    /// the baseline gate keeps shrink-only).
    pub suppressed_by_rule: BTreeMap<String, usize>,
}

impl WorkspaceReport {
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Lint every workspace source under `root`: per-line rules, the
/// workspace symbol-graph analyses, and the manifest-level boundary
/// check, all merged before pragma filtering. Rule scope comes from
/// `root/lint-boundary.toml`; a missing file is an error.
pub fn lint_workspace(root: &Path) -> Result<WorkspaceReport, LintError> {
    let crates = model::discover_crates(root)?;
    let config = Config::from_boundary(root, &crates)?;

    // Build the workspace model.
    let rels = walk::workspace_files(root)?;
    let files_scanned = rels.len();
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(root.join(rel))?;
        let map = lexer::lex(&src);
        let syms = symbols::parse(&map);
        files.push(model::FileEntry {
            crate_idx: WorkspaceModel::crate_for(&crates, &rel_str),
            rel: rel_str,
            map,
            raw: src.split('\n').map(str::to_string).collect(),
            syms,
        });
    }
    let ws = WorkspaceModel { crates, files };

    // Workspace analyses, grouped per file.
    let mut extra: BTreeMap<usize, Vec<Violation>> = BTreeMap::new();
    for (fi, v) in analysis::run_all(&ws) {
        extra.entry(fi).or_default().push(v);
    }

    // Per-file merge + pragma filtering.
    let mut dirty = Vec::new();
    let mut allows = 0usize;
    let mut suppressed_by_rule: BTreeMap<String, usize> = BTreeMap::new();
    for (fi, entry) in ws.files.iter().enumerate() {
        let raw: Vec<&str> = entry.raw.iter().map(String::as_str).collect();
        let mut raw_violations = rules::check(&entry.map, config.scope_for(&entry.rel), &raw);
        if let Some(mut v) = extra.remove(&fi) {
            raw_violations.append(&mut v);
        }
        raw_violations.sort_by_key(|v| v.line);
        let fr = finish_file(&entry.rel, &entry.map, &raw, raw_violations);
        allows += fr.allows_honoured;
        for r in &fr.suppressed_rules {
            *suppressed_by_rule.entry((*r).to_string()).or_insert(0) += 1;
        }
        if !fr.violations.is_empty() {
            dirty.push(fr);
        }
    }

    // Manifest-level boundary violations (no pragma path: boundary
    // moves are lint-boundary.toml edits).
    let mut by_manifest: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for (manifest_rel, v) in analysis::boundary::run(&ws.crates, &config.shell_crates) {
        by_manifest.entry(manifest_rel).or_default().push(v);
    }
    for (path, violations) in by_manifest {
        dirty.push(FileReport {
            path,
            violations,
            allows_honoured: 0,
            suppressed_rules: Vec::new(),
        });
    }
    dirty.sort_by(|a, b| a.path.cmp(&b.path));

    Ok(WorkspaceReport {
        dirty,
        files_scanned,
        allows_honoured: allows,
        suppressed_by_rule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `lint-boundary.toml`, as CI reads it.
    fn committed() -> Config {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = walk::workspace_root(here).expect("workspace root above digg-lint");
        Config::load(&root).expect("committed lint-boundary.toml")
    }

    #[test]
    fn clean_source_is_clean() {
        let fr = lint_source(
            "crates/x/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
            &committed(),
        );
        assert!(fr.violations.is_empty());
    }

    #[test]
    fn supervisor_is_clock_and_fanout_exempt() {
        let config = committed();
        let clock = "pub fn t() { let _ = std::time::Instant::now(); }";
        let fanout = "pub fn f() { std::thread::scope(|_s| {}); }";
        for src in [clock, fanout] {
            let fr = lint_source("crates/digg-sim/src/supervisor.rs", src, &config);
            assert!(fr.violations.is_empty(), "{src}: {:?}", fr.violations);
        }
        let fr = lint_source("crates/digg-sim/src/engine.rs", clock, &config);
        assert_eq!(fr.violations[0].rule, rules::KERNEL_CAPABILITY);
        let fr = lint_source("crates/digg-sim/src/engine.rs", fanout, &config);
        assert_eq!(fr.violations[0].rule, rules::RAW_THREAD_FANOUT);
    }

    #[test]
    fn des_core_par_is_fanout_exempt() {
        let config = committed();
        let src = "pub fn f() { std::thread::scope(|_s| {}); }";
        let fr = lint_source("crates/des-core/src/par.rs", src, &config);
        assert!(fr.violations.is_empty());
        let fr = lint_source("crates/core/src/incremental.rs", src, &config);
        assert_eq!(fr.violations.len(), 1);
        // The fan-out carve-out is not a clock carve-out.
        let clock = "pub fn t() { let _ = std::time::Instant::now(); }";
        let fr = lint_source("crates/des-core/src/par.rs", clock, &config);
        assert_eq!(fr.violations[0].rule, rules::KERNEL_CAPABILITY);
    }

    #[test]
    fn mmap_module_is_unsafe_exempt() {
        let config = committed();
        let src = "pub fn f(p: *const u8) { let _ = unsafe { *p }; }";
        let fr = lint_source("crates/social-graph/src/mmap.rs", src, &config);
        assert!(fr.violations.is_empty());
        let fr = lint_source("crates/social-graph/src/graph.rs", src, &config);
        assert_eq!(fr.violations.len(), 1);
        assert_eq!(fr.violations[0].rule, rules::NO_UNCHECKED_MMAP);
    }

    #[test]
    fn allows_honoured_are_counted() {
        let src = "fn f() { x.unwrap(); } // digg-lint: allow(no-lib-unwrap) — fixture\n";
        let fr = lint_source("crates/x/src/lib.rs", src, &committed());
        assert!(fr.violations.is_empty());
        assert_eq!(fr.allows_honoured, 1);
        assert_eq!(fr.suppressed_rules, vec![rules::NO_LIB_UNWRAP]);
    }

    #[test]
    fn shell_crates_waive_harness_rules() {
        let config = committed();
        let src = "pub fn t() { let _ = std::time::Instant::now(); }";
        let fr = lint_source("crates/bench/src/chaos.rs", src, &config);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        let fr = lint_source("crates/core/src/pipeline.rs", src, &config);
        assert_eq!(fr.violations.len(), 1);
    }

    #[test]
    fn snapshot_coverage_runs_on_a_single_source() {
        let config = committed();
        let src = "struct S {\n    a: u64,\n    b: u64,\n}\nimpl Snapshot for S {\n    fn snapshot(&self, w: &mut W) {\n        w.put(self.a);\n    }\n}\n";
        let fr = lint_source("crates/x/src/lib.rs", src, &config);
        assert_eq!(fr.violations.len(), 1, "{:?}", fr.violations);
        assert_eq!(fr.violations[0].rule, rules::SNAPSHOT_COVERAGE);
        // A field-level pragma on the uncovered field suppresses it.
        let with_pragma = src.replace(
            "    b: u64,",
            "    // digg-lint: allow(snapshot-coverage) — derived, rebuilt on restore\n    b: u64,",
        );
        let fr = lint_source("crates/x/src/lib.rs", &with_pragma, &config);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        assert_eq!(fr.allows_honoured, 1);
    }
}
