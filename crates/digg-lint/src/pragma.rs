//! The `digg-lint: allow(...)` pragma: the only way to suppress a
//! violation, and itself policed.
//!
//! Grammar (inside any comment):
//!
//! ```text
//! digg-lint: allow(rule-id[, rule-id…]) — reason text
//! ```
//!
//! The separator may be an em-dash, `--`, or `:`; the reason is
//! mandatory. A pragma covers its own line and, when it is the only
//! thing on its line, the next code line. Every allow must suppress at
//! least one violation — an unused allow is an error ([`UNUSED_ALLOW`])
//! so the exemption ledger can only shrink over time.

use crate::lexer::SourceMap;
use crate::rules::{Violation, MALFORMED_PRAGMA, RULES, UNUSED_ALLOW};

/// One parsed allow pragma.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ids this pragma suppresses.
    pub rules: Vec<String>,
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Justification text (non-empty by construction).
    pub reason: String,
}

/// Scan a file's comments for pragmas. Returns the well-formed allows
/// plus violations for every malformed one.
pub fn parse(map: &SourceMap, raw_lines: &[&str]) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (idx, comment) in map.comments.iter().enumerate() {
        // Doc comments (`///`, `//!`) are documentation — they may
        // *describe* the pragma syntax (as this module does) without
        // being pragmas. The lexer strips only the leading `//`, so a
        // doc comment's text starts with `/` or `!`.
        if comment.starts_with('/') || comment.starts_with('!') {
            continue;
        }
        let Some(at) = comment.find("digg-lint:") else {
            continue;
        };
        let line = idx + 1;
        let snippet = raw_lines
            .get(idx)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let rest = comment[at + "digg-lint:".len()..].trim_start();
        // The `hot-path` marker is not a pragma: it is parsed (and
        // policed for dangling placement) by [`crate::symbols`].
        if rest.trim() == "hot-path" {
            continue;
        }
        let mut fail = |_why: &str| {
            bad.push(Violation {
                rule: MALFORMED_PRAGMA,
                line,
                snippet: snippet.clone(),
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            fail("expected `allow(`");
            continue;
        };
        let Some(close) = args.find(')') else {
            fail("unclosed allow(");
            continue;
        };
        let ids: Vec<String> = args[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if ids.is_empty() || ids.iter().any(|id| !RULES.contains(&id.as_str())) {
            fail("unknown rule id");
            continue;
        }
        let mut reason = args[close + 1..].trim_start();
        for sep in ["—", "--", "-", ":"] {
            if let Some(r) = reason.strip_prefix(sep) {
                reason = r.trim_start();
                break;
            }
        }
        if reason.trim().is_empty() {
            fail("missing reason");
            continue;
        }
        allows.push(Allow {
            rules: ids,
            line,
            reason: reason.trim().to_string(),
        });
    }
    (allows, bad)
}

/// Apply `allows` to `violations`: a violation on the pragma's line or
/// on the next line (for a pragma standing alone on its line) is
/// suppressed. Returns the surviving violations plus an
/// [`UNUSED_ALLOW`] violation per pragma that suppressed nothing.
pub fn apply(
    map: &SourceMap,
    raw_lines: &[&str],
    violations: Vec<Violation>,
    allows: &[Allow],
) -> Vec<Violation> {
    apply_counted(map, raw_lines, violations, allows).0
}

/// [`apply`], also returning the rule id of every suppressed
/// violation — the per-rule ledger the baseline gate compares.
pub fn apply_counted(
    map: &SourceMap,
    raw_lines: &[&str],
    violations: Vec<Violation>,
    allows: &[Allow],
) -> (Vec<Violation>, Vec<&'static str>) {
    let mut used = vec![false; allows.len()];
    let mut suppressed: Vec<&'static str> = Vec::new();
    let mut out = Vec::new();
    'violations: for v in violations {
        for (i, a) in allows.iter().enumerate() {
            if !a.rules.iter().any(|r| r == v.rule) {
                continue;
            }
            let own_line = v.line == a.line;
            // A comment-only pragma line covers the next line.
            let comment_only = map
                .code
                .get(a.line - 1)
                .is_some_and(|c| c.trim().is_empty());
            let next_line = comment_only && v.line == a.line + 1;
            if own_line || next_line {
                used[i] = true;
                suppressed.push(v.rule);
                continue 'violations;
            }
        }
        out.push(v);
    }
    for (i, a) in allows.iter().enumerate() {
        if !used[i] {
            out.push(Violation {
                rule: UNUSED_ALLOW,
                line: a.line,
                snippet: raw_lines
                    .get(a.line - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    (out, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{check, Scope, NO_LIB_UNWRAP};
    use crate::walk::FileKind;

    fn run(src: &str) -> Vec<Violation> {
        let map = lex(src);
        let raw: Vec<&str> = src.split('\n').collect();
        let scope = Scope {
            kind: FileKind::Lib,
            shell: false,
            wallclock_exempt: false,
            fanout_exempt: false,
            mmap_exempt: false,
        };
        let (allows, mut bad) = parse(&map, &raw);
        let mut v = apply(&map, &raw, check(&map, scope, &raw), &allows);
        v.append(&mut bad);
        v.sort_by_key(|v| v.line);
        v
    }

    #[test]
    fn trailing_pragma_suppresses_own_line() {
        let src =
            "fn f() { x.unwrap(); } // digg-lint: allow(no-lib-unwrap) — invariant: x is Some";
        assert!(run(src).is_empty());
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let src = "// digg-lint: allow(no-lib-unwrap) — checked above\nfn f() { x.unwrap(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// digg-lint: allow(no-lib-unwrap) — stale\nfn f() {}";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNUSED_ALLOW);
    }

    #[test]
    fn pragma_does_not_reach_across_code() {
        let src =
            "// digg-lint: allow(no-lib-unwrap) — misplaced\nfn f() {}\nfn g() { x.unwrap(); }";
        let v = run(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.rule == UNUSED_ALLOW));
        assert!(v.iter().any(|v| v.rule == NO_LIB_UNWRAP));
    }

    #[test]
    fn missing_reason_or_unknown_rule_is_malformed() {
        for src in [
            "fn f() { x.unwrap(); } // digg-lint: allow(no-lib-unwrap)",
            "fn f() {} // digg-lint: allow(made-up-rule) — why",
            "fn f() {} // digg-lint: allowing things",
        ] {
            let v = run(src);
            assert!(v.iter().any(|v| v.rule == MALFORMED_PRAGMA), "{src}: {v:?}");
        }
    }

    #[test]
    fn multi_rule_pragma() {
        let src = "fn f() { let x = (t.unwrap() as u32, Instant::now()); } // digg-lint: allow(no-lib-unwrap, no-truncating-cast, kernel-capability) — fixture exercising all three";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }
}
