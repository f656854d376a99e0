//! Fixture tests: for every rule, the `bad.rs` fixture fires exactly
//! that rule and the `good.rs` fixture is silent; pragma fixtures
//! prove suppression works and that stale or unparseable pragmas are
//! themselves errors. Together these pin the acceptance property that
//! reintroducing a banned pattern (or deleting a load-bearing pragma)
//! turns the lint red.

use digg_lint::{lint_source, Config};

/// The committed `lint-boundary.toml`, as CI reads it.
fn committed() -> Config {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = digg_lint::walk::workspace_root(here).expect("workspace root above digg-lint");
    Config::load(&root).expect("committed lint-boundary.toml")
}

/// Lint fixture text as kernel library code (every rule in scope).
fn lint_lib(src: &str) -> Vec<(String, usize)> {
    lint_source("crates/fixture/src/lib.rs", src, &committed())
        .violations
        .into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

fn rules_fired(src: &str) -> Vec<String> {
    let mut rules: Vec<String> = lint_lib(src).into_iter().map(|(r, _)| r).collect();
    rules.sort();
    rules.dedup();
    rules
}

macro_rules! rule_fixture {
    ($test:ident, $dir:literal, $rule:literal) => {
        #[test]
        fn $test() {
            let bad = include_str!(concat!("fixtures/", $dir, "/bad.rs"));
            let good = include_str!(concat!("fixtures/", $dir, "/good.rs"));
            assert_eq!(
                rules_fired(bad),
                vec![$rule.to_string()],
                "bad.rs must fire exactly {}",
                $rule
            );
            assert!(
                lint_lib(good).is_empty(),
                "good.rs must be silent, got {:?}",
                lint_lib(good)
            );
        }
    };
}

rule_fixture!(
    kernel_capability_fixture,
    "kernel-capability",
    "kernel-capability"
);
rule_fixture!(no_lib_unwrap_fixture, "no-lib-unwrap", "no-lib-unwrap");
rule_fixture!(
    no_unordered_serialize_fixture,
    "no-unordered-serialize",
    "no-unordered-serialize"
);
rule_fixture!(
    no_truncating_cast_fixture,
    "no-truncating-cast",
    "no-truncating-cast"
);
rule_fixture!(
    raw_thread_fanout_fixture,
    "raw-thread-fanout",
    "raw-thread-fanout"
);
rule_fixture!(
    no_unchecked_mmap_fixture,
    "no-unchecked-mmap",
    "no-unchecked-mmap"
);
rule_fixture!(
    snapshot_coverage_fixture,
    "snapshot-coverage",
    "snapshot-coverage"
);
rule_fixture!(hot_path_alloc_fixture, "hot-path-alloc", "hot-path-alloc");
rule_fixture!(
    unordered_taint_fixture,
    "unordered-taint",
    "unordered-taint"
);

#[test]
fn hot_path_callee_alloc_reports_at_callee_line() {
    // The `tick` -> `refill` chain in the bad fixture must anchor the
    // violation at `refill`'s .extend( line, where the fix belongs.
    let bad = include_str!("fixtures/hot-path-alloc/bad.rs");
    let lines: Vec<usize> = lint_lib(bad)
        .into_iter()
        .filter(|(r, _)| r == "hot-path-alloc")
        .map(|(_, l)| l)
        .collect();
    let extend_line = bad
        .lines()
        .position(|l| l.contains(".extend("))
        .expect("fixture has .extend(")
        + 1;
    assert!(lines.contains(&extend_line), "{lines:?} vs {extend_line}");
}

#[test]
fn unordered_taint_fires_in_each_snapshot_encoder() {
    // The call-graph case and both hand-written encoders fire on
    // their own iteration lines.
    let bad = include_str!("fixtures/unordered-taint/bad.rs");
    let lines: Vec<usize> = lint_lib(bad).into_iter().map(|(_, l)| l).collect();
    for needle in ["counts.iter()", "self.seen.iter()", "self.scratch.keys()"] {
        let line = bad.lines().position(|l| l.contains(needle)).expect(needle) + 1;
        assert!(lines.contains(&line), "{needle} (line {line}): {lines:?}");
    }
}

#[test]
fn capabilities_are_waived_in_shell_crates() {
    let bad = include_str!("fixtures/kernel-capability/bad.rs");
    let report = lint_source("crates/bench/src/lib.rs", bad, &committed());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn every_capability_line_fires() {
    // Clock, rng and async each keep their own lines in the merged rule.
    let bad = include_str!("fixtures/kernel-capability/bad.rs");
    let lines: Vec<usize> = lint_lib(bad).into_iter().map(|(_, l)| l).collect();
    let expected: Vec<usize> = bad
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            [
                "Instant::now",
                "SystemTime",
                "thread_rng",
                "rand::random",
                "async",
                ".await",
            ]
            .iter()
            .any(|t| l.contains(t))
                && !l.starts_with("//")
        })
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(lines, expected);
}

#[test]
fn bad_fixtures_flag_every_expected_line() {
    // Spot-check line anchoring on the densest fixture.
    let bad = include_str!("fixtures/no-lib-unwrap/bad.rs");
    let lines: Vec<usize> = lint_lib(bad).into_iter().map(|(_, l)| l).collect();
    assert_eq!(lines.len(), 3, "unwrap, expect and todo! sites");
}

#[test]
fn allow_pragmas_suppress_in_both_placements() {
    let src = include_str!("fixtures/pragmas/allowed.rs");
    let report = lint_source("crates/fixture/src/lib.rs", src, &committed());
    assert!(
        report.violations.is_empty(),
        "both pragma placements must suppress, got {:?}",
        report.violations
    );
    assert_eq!(report.allows_honoured, 2);
}

#[test]
fn unused_allow_is_an_error() {
    let src = include_str!("fixtures/pragmas/unused.rs");
    assert_eq!(rules_fired(src), vec!["unused-allow".to_string()]);
}

#[test]
fn malformed_and_misplaced_pragmas_do_not_suppress() {
    let src = include_str!("fixtures/pragmas/malformed.rs");
    let fired = rules_fired(src);
    // Unknown rule id and missing reason are malformed; the unwraps
    // they failed to cover still fire; the pragma one line too far up
    // is unused.
    assert_eq!(
        fired,
        vec![
            "malformed-pragma".to_string(),
            "no-lib-unwrap".to_string(),
            "unused-allow".to_string(),
        ]
    );
    let unwraps = lint_lib(src)
        .into_iter()
        .filter(|(r, _)| r == "no-lib-unwrap")
        .count();
    assert_eq!(unwraps, 3, "none of the three unwraps may be suppressed");
}

#[test]
fn bin_files_skip_unwrap_but_keep_determinism_rules() {
    let src = "pub fn main() {\n    let _ = vec![1].pop().unwrap();\n    let _ = std::time::Instant::now();\n}\n";
    let report = lint_source("crates/fixture/src/bin/tool.rs", src, &committed());
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["kernel-capability"]);
}

#[test]
fn allowlisted_modules_are_exempt() {
    let config = committed();
    let clock = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let fanout = "pub fn go() { std::thread::scope(|_s| {}); }\n";
    for src in [clock, fanout] {
        let report = lint_source("crates/digg-sim/src/supervisor.rs", src, &config);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    let report = lint_source("crates/des-core/src/par.rs", fanout, &config);
    assert!(report.violations.is_empty());

    let mapped = "pub fn bytes(p: *const u8, n: usize) -> &'static [u8] {\n    unsafe { std::slice::from_raw_parts(p, n) }\n}\n";
    let report = lint_source("crates/social-graph/src/mmap.rs", mapped, &config);
    assert!(report.violations.is_empty());
}
