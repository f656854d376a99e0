//! The determinism-and-robustness rules.
//!
//! Every rule is line-level over the blanked code of a [`SourceMap`]
//! (comments and string bodies can never match), scoped by file kind
//! and by the `#[cfg(test)]` region map. DESIGN.md §13 names the
//! workspace invariant each rule enforces.

use crate::lexer::{has_token, SourceMap};
use crate::walk::FileKind;

/// Stable rule identifiers (the ids pragmas name).
/// Wall clock, ambient rng or async in a kernel-crate file.
pub const KERNEL_CAPABILITY: &str = "kernel-capability";
pub const NO_LIB_UNWRAP: &str = "no-lib-unwrap";
pub const NO_UNORDERED_SERIALIZE: &str = "no-unordered-serialize";
pub const NO_TRUNCATING_CAST: &str = "no-truncating-cast";
pub const RAW_THREAD_FANOUT: &str = "raw-thread-fanout";
pub const NO_UNCHECKED_MMAP: &str = "no-unchecked-mmap";
/// Workspace analysis (DESIGN.md §18): a named field of a type with an
/// `impl Snapshot`/`Restore` that the corresponding impl bodies never
/// reference.
pub const SNAPSHOT_COVERAGE: &str = "snapshot-coverage";
/// Boundary rule: a kernel crate's `[dependencies]` names a shell
/// crate (reported against the `Cargo.toml` line; no pragma escape).
pub const KERNEL_DEP_SHELL: &str = "kernel-dep-shell";
/// Workspace analysis: heap allocation in (or one call level below) a
/// `// digg-lint: hot-path` function.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Workspace analysis: hash-order iteration reachable from a
/// serialization or artifact-write sink.
pub const UNORDERED_TAINT: &str = "unordered-taint";
/// Meta-rule: an `allow` pragma that suppressed nothing. Errors, so
/// the pragma ledger can only shrink — dead exemptions never linger.
pub const UNUSED_ALLOW: &str = "unused-allow";
/// Meta-rule: a pragma the engine cannot honour (unknown rule id,
/// missing reason). Never suppressible.
pub const MALFORMED_PRAGMA: &str = "malformed-pragma";

/// The suppressible rules, in reporting order.
pub const RULES: [&str; 10] = [
    KERNEL_CAPABILITY,
    NO_LIB_UNWRAP,
    NO_UNORDERED_SERIALIZE,
    NO_TRUNCATING_CAST,
    RAW_THREAD_FANOUT,
    NO_UNCHECKED_MMAP,
    SNAPSHOT_COVERAGE,
    KERNEL_DEP_SHELL,
    HOT_PATH_ALLOC,
    UNORDERED_TAINT,
];

/// One-line description per rule (for `--explain` style output and
/// the JSON report).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        KERNEL_CAPABILITY => {
            "wall clock (Instant::now/SystemTime), ambient randomness (thread_rng/from_entropy/\
             rand::random/OsRng) or async (async/.await/tokio) in a kernel crate; artifacts \
             must not depend on real time, all randomness flows through des_core::StreamRng \
             or a caller-seeded rng, and the replay kernel is synchronous. These belong in \
             shell crates; only lint-boundary.toml's [allow] wallclock files may read the clock"
        }
        NO_LIB_UNWRAP => {
            "panic path (unwrap/expect/panic!/unreachable!) in non-test library code; return a \
             typed error or justify with a pragma"
        }
        NO_UNORDERED_SERIALIZE => {
            "HashMap/HashSet field in a #[derive(Serialize)] item; serialized artifacts must \
             use BTreeMap or a sorted Vec so bytes are iteration-order independent \
             (hand-written snapshot() encoders are unordered-taint's job)"
        }
        NO_TRUNCATING_CAST => {
            "narrowing `as` cast to a <=32-bit integer; use try_into or a checked-id helper \
             (UserId::from_index, StoryId::from_index, try_build)"
        }
        RAW_THREAD_FANOUT => {
            "raw std::thread spawn/scope outside des_core::par; fan-out must go through the \
             deterministic chunked primitives"
        }
        NO_UNCHECKED_MMAP => {
            "`unsafe` block/fn or from_raw_parts outside the single allowlisted mmap module \
             (crates/social-graph/src/mmap.rs); all other code stays safe Rust and consumes \
             mapped memory only through GraphMap's checked slice accessors"
        }
        SNAPSHOT_COVERAGE => {
            "named field of a Snapshot/Restore type never referenced in that impl's bodies \
             (per side, one same-file call level deep); a silently dropped field is the \
             PR-7 voter_pos bug class — reference it or justify the derived state with a \
             field-level pragma"
        }
        KERNEL_DEP_SHELL => {
            "kernel crate lists a shell crate in [dependencies]; the kernel must not reach \
             the shell through the build graph (dev-dependencies are exempt). Fix the edge \
             or move the crate in lint-boundary.toml — there is no pragma escape"
        }
        HOT_PATH_ALLOC => {
            "heap allocation in (or one call level below) a `// digg-lint: hot-path` \
             function; the per-vote kernels must stay allocation-free"
        }
        UNORDERED_TAINT => {
            "HashMap/HashSet iteration reachable from a serialization or artifact-write \
             sink through the intra-crate call graph; sort the collected entries or reduce \
             order-independently on the same line"
        }
        UNUSED_ALLOW => "digg-lint allow pragma that suppressed no violation",
        MALFORMED_PRAGMA => "unparseable digg-lint pragma (unknown rule id or missing reason)",
        _ => "unknown rule",
    }
}

/// A single violation (pre-pragma-filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Per-file scope configuration resolved by the caller.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub kind: FileKind,
    /// File belongs to a shell crate (`lint-boundary.toml`): the
    /// harness/driver layer. Wall clock, ambient RNG, async, and CLI
    /// panics are legal there; artifact-order and unsafe rules are
    /// not.
    pub shell: bool,
    /// Kernel file allowlisted for wall-clock reads (`[allow]
    /// wallclock`); rng and async stay banned there.
    pub wallclock_exempt: bool,
    /// File is allowlisted for raw thread fan-out (`des_core::par`).
    pub fanout_exempt: bool,
    /// File is the one allowlisted unsafe mmap module
    /// (`social-graph::mmap`).
    pub mmap_exempt: bool,
}

/// Run every rule over one lexed file. Returned violations are in
/// line order; pragma filtering happens in [`crate::pragma`].
pub fn check(map: &SourceMap, scope: Scope, raw_lines: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, code) in map.code.iter().enumerate() {
        let line = idx + 1;
        let in_test = map.in_test.get(idx).copied().unwrap_or(false);
        let snippet = || {
            raw_lines
                .get(idx)
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        };
        let mut push = |rule: &'static str| {
            out.push(Violation {
                rule,
                line,
                snippet: snippet(),
            })
        };

        if !scope.shell {
            let clock = !scope.wallclock_exempt
                && (code.contains("Instant::now") || has_token(code, "SystemTime"));
            let rng = has_token(code, "thread_rng")
                || has_token(code, "from_entropy")
                || has_token(code, "from_os_rng")
                || has_token(code, "OsRng")
                || code.contains("rand::random");
            let asynchrony = has_token(code, "async")
                || code.contains(".await")
                || has_token(code, "tokio")
                || has_token(code, "async_std");
            if clock || rng || asynchrony {
                push(KERNEL_CAPABILITY);
            }
        }

        if scope.kind == FileKind::Lib && !in_test && !scope.shell {
            let panicky = code.contains(".unwrap()")
                || code.contains(".unwrap_err()")
                || code.contains(".expect(")
                || code.contains(".expect_err(")
                || code.contains("panic!(")
                || code.contains("unreachable!(")
                || code.contains("todo!(")
                || code.contains("unimplemented!(");
            if panicky {
                push(NO_LIB_UNWRAP);
            }
            if has_narrowing_cast(code) {
                push(NO_TRUNCATING_CAST);
            }
        }

        let in_serialize = map.in_serialize.get(idx).copied().unwrap_or(false);
        if in_serialize && (has_token(code, "HashMap") || has_token(code, "HashSet")) {
            // A `#[serde(skip)]`-annotated field (attribute on the same
            // or the preceding line) never reaches the serialized
            // bytes, so its iteration order is unobservable. A
            // hand-written `snapshot()` that iterates it anyway is
            // caught by `unordered-taint`.
            let skipped = code.contains("serde(skip")
                || idx
                    .checked_sub(1)
                    .and_then(|p| map.code.get(p))
                    .is_some_and(|prev| prev.contains("serde(skip"));
            if !skipped {
                push(NO_UNORDERED_SERIALIZE);
            }
        }

        if !scope.fanout_exempt
            && (code.contains("thread::spawn")
                || code.contains("thread::scope")
                || code.contains("thread::Builder"))
        {
            push(RAW_THREAD_FANOUT);
        }

        // Applies everywhere, tests included: the soundness argument
        // for the mapped-memory casts lives in one audited module, and
        // a second `unsafe` anywhere would silently widen it.
        if !scope.mmap_exempt && (has_token(code, "unsafe") || has_token(code, "from_raw_parts")) {
            push(NO_UNCHECKED_MMAP);
        }
    }
    out
}

/// `expr as u8|u16|u32|i8|i16|i32` — the id/count-truncating casts.
/// Casts to `u64`/`usize` are exempt: ids are `u32`, so those widen on
/// every supported target (`usize` is at least 32 bits here, and the
/// CSR builders reject graphs that would overflow it).
fn has_narrowing_cast(code: &str) -> bool {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    let tokens: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect();
    tokens
        .windows(2)
        .any(|w| w[0] == "as" && NARROW.contains(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_scope() -> Scope {
        Scope {
            kind: FileKind::Lib,
            shell: false,
            wallclock_exempt: false,
            fanout_exempt: false,
            mmap_exempt: false,
        }
    }

    fn check_src(src: &str, scope: Scope) -> Vec<Violation> {
        let map = lex(src);
        let raw: Vec<&str> = src.split('\n').collect();
        check(&map, scope, &raw)
    }

    #[test]
    fn narrowing_casts_flag_only_narrow_targets() {
        assert!(has_narrowing_cast("let x = n as u32;"));
        assert!(has_narrowing_cast("powi(p as i32)"));
        assert!(!has_narrowing_cast("let x = n as u64;"));
        assert!(!has_narrowing_cast("let x = n as usize;"));
        assert!(!has_narrowing_cast("let x = nas u32;"));
    }

    #[test]
    fn unwrap_only_fires_in_lib_non_test() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t {\n    fn g() { y.unwrap(); }\n}";
        let v = check_src(src, lib_scope());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        let bin = Scope {
            kind: FileKind::Bin,
            ..lib_scope()
        };
        assert!(check_src(src, bin).is_empty());
    }

    #[test]
    fn wallclock_exemption_covers_only_the_clock() {
        let src = "let t0 = Instant::now();";
        assert_eq!(check_src(src, lib_scope())[0].rule, KERNEL_CAPABILITY);
        let exempt = Scope {
            wallclock_exempt: true,
            ..lib_scope()
        };
        assert!(check_src(src, exempt).is_empty());
        // The clock carve-out does not extend to rng or async.
        for src in ["let r = rand::thread_rng();", "pub async fn pump() {}"] {
            assert_eq!(check_src(src, exempt)[0].rule, KERNEL_CAPABILITY, "{src}");
        }
    }

    #[test]
    fn one_violation_per_line_for_mixed_capabilities() {
        let src = "async fn f() { let t = Instant::now(); let r = rand::thread_rng(); }";
        assert_eq!(check_src(src, lib_scope()).len(), 1);
    }

    #[test]
    fn rng_in_string_or_comment_is_ignored() {
        let src = "// thread_rng is banned\nlet s = \"thread_rng\";";
        assert!(check_src(src, lib_scope()).is_empty());
        assert_eq!(
            check_src("let r = rand::thread_rng();", lib_scope())[0].rule,
            KERNEL_CAPABILITY
        );
    }

    #[test]
    fn serialize_derive_with_hashmap_fires() {
        let src = "#[derive(Serialize)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        let v = check_src(src, lib_scope());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_UNORDERED_SERIALIZE);
        let plain = "#[derive(Debug)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        assert!(check_src(plain, lib_scope()).is_empty());
    }

    #[test]
    fn serde_skip_field_is_exempt() {
        let src = "#[derive(Serialize)]\nstruct S {\n    #[serde(skip)]\n    m: HashSet<u32>,\n}";
        assert!(check_src(src, lib_scope()).is_empty());
        let inline = "#[derive(Serialize)]\nstruct S {\n    #[serde(skip)] m: HashSet<u32>,\n}";
        assert!(check_src(inline, lib_scope()).is_empty());
    }

    #[test]
    fn unsafe_fires_everywhere_except_the_mmap_module() {
        let src = "unsafe { std::slice::from_raw_parts(p, n) }";
        let v = check_src(src, lib_scope());
        // Both the `unsafe` token and the cast helper fire on the line.
        assert!(v.iter().all(|v| v.rule == NO_UNCHECKED_MMAP));
        assert!(!v.is_empty());
        let exempt = Scope {
            mmap_exempt: true,
            ..lib_scope()
        };
        assert!(check_src(src, exempt).is_empty());
        // Tests are NOT exempt: unsafe in a test is still unsafe.
        let in_test = "#[cfg(test)]\nmod t {\n    fn g() { unsafe { f() } }\n}";
        assert_eq!(check_src(in_test, lib_scope()).len(), 1);
        // Comments and strings never match.
        assert!(check_src("// unsafe from_raw_parts\n", lib_scope()).is_empty());
    }

    #[test]
    fn fanout_rule_and_exemption() {
        let src = "std::thread::scope(|s| {});";
        assert_eq!(check_src(src, lib_scope())[0].rule, RAW_THREAD_FANOUT);
        let exempt = Scope {
            fanout_exempt: true,
            ..lib_scope()
        };
        assert!(check_src(src, exempt).is_empty());
    }

    #[test]
    fn async_is_banned_in_kernel_but_legal_in_shell() {
        let shell = Scope {
            shell: true,
            ..lib_scope()
        };
        for src in [
            "pub async fn pump() {}",
            "let x = fut.await;",
            "tokio::spawn(task);",
        ] {
            let v = check_src(src, lib_scope());
            assert!(
                v.iter().any(|v| v.rule == KERNEL_CAPABILITY),
                "{src}: {v:?}"
            );
            assert!(
                check_src(src, shell)
                    .iter()
                    .all(|v| v.rule != KERNEL_CAPABILITY),
                "{src} must be legal in a shell crate"
            );
        }
        // Comments and identifiers with the substring do not fire.
        assert!(check_src("// async is shell-only\nlet asynchrony = 1;", lib_scope()).is_empty());
    }

    #[test]
    fn shell_scope_waives_harness_rules_but_keeps_order_and_unsafe() {
        let shell = Scope {
            shell: true,
            ..lib_scope()
        };
        // Wall clock, ambient RNG, panics, casts: the shell owns them.
        let harness = "fn main() { let t = Instant::now(); let r = rand::thread_rng(); let n = big as u32; x.unwrap(); }";
        assert!(
            check_src(harness, shell).is_empty(),
            "{:?}",
            check_src(harness, shell)
        );
        // Clock and rng share one kernel-capability hit on the line.
        assert_eq!(check_src(harness, lib_scope()).len(), 3);
        // Artifact order, fan-out, and unsafe stay policed.
        let ordered = "#[derive(Serialize)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        assert_eq!(check_src(ordered, shell).len(), 1);
        assert_eq!(check_src("std::thread::spawn(f);", shell).len(), 1);
        assert_eq!(check_src("unsafe { f() }", shell).len(), 1);
    }
}
