//! The lint-baseline gate: the committed ledger the CI job compares
//! against, so the pragma count can only shrink.
//!
//! `results/lint_baseline.json` is simply the `--json` report of a
//! clean tree (refresh it with `--write-baseline`). The gate
//! (`--baseline PATH`) re-lints the workspace and fails if the total
//! honoured-pragma count grew, or if any single rule's suppressed
//! count grew — so trading a wallclock exemption for three new unwrap
//! exemptions is caught even when the total is flat. Shrinkage is
//! reported as a friendly nudge to refresh the committed file.
//!
//! Parsing is a deliberately tiny key scanner over the fixed-format
//! JSON [`crate::report::render_json`] emits — not a general JSON
//! parser; the linter stays dependency-free.

use crate::WorkspaceReport;
use std::collections::BTreeMap;

/// The subset of the committed report the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Total allow pragmas honoured when the baseline was written.
    pub allows_honoured: usize,
    /// Per-rule suppressed-violation counts.
    pub suppressed_by_rule: BTreeMap<String, usize>,
}

/// Extract the baseline fields from a committed `--json` report.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let allows_honoured = scan_usize(text, "\"allows_honoured\":")
        .ok_or_else(|| "baseline missing \"allows_honoured\"".to_string())?;
    let mut suppressed_by_rule = BTreeMap::new();
    if let Some(at) = text.find("\"suppressed_by_rule\":") {
        let rest = &text[at + "\"suppressed_by_rule\":".len()..];
        let open = rest
            .find('{')
            .ok_or_else(|| "baseline: suppressed_by_rule is not an object".to_string())?;
        let body = &rest[open + 1..];
        let close = body
            .find('}')
            .ok_or_else(|| "baseline: unterminated suppressed_by_rule".to_string())?;
        for pair in body[..close].split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("baseline: bad ledger entry `{pair}`"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("baseline: bad ledger count `{pair}`"))?;
            suppressed_by_rule.insert(key, value);
        }
    } else {
        return Err("baseline missing \"suppressed_by_rule\"".to_string());
    }
    Ok(Baseline {
        allows_honoured,
        suppressed_by_rule,
    })
}

fn scan_usize(text: &str, key: &str) -> Option<usize> {
    let at = text.find(key)?;
    let rest = text[at + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Regressions — any entry here fails the gate.
    pub failures: Vec<String>,
    /// Improvements worth folding into a refreshed baseline.
    pub notes: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a fresh workspace report against the committed baseline.
pub fn compare(current: &WorkspaceReport, baseline: &Baseline) -> Comparison {
    let mut failures = Vec::new();
    let mut notes = Vec::new();

    match current.allows_honoured.cmp(&baseline.allows_honoured) {
        std::cmp::Ordering::Greater => failures.push(format!(
            "pragma ledger grew: {} allow(s) honoured vs {} in the baseline — \
             remove an exemption instead of adding one",
            current.allows_honoured, baseline.allows_honoured
        )),
        std::cmp::Ordering::Less => notes.push(format!(
            "pragma ledger shrank ({} -> {}): refresh with --write-baseline",
            baseline.allows_honoured, current.allows_honoured
        )),
        std::cmp::Ordering::Equal => {}
    }

    let rules: std::collections::BTreeSet<&String> = current
        .suppressed_by_rule
        .keys()
        .chain(baseline.suppressed_by_rule.keys())
        .collect();
    for rule in rules {
        let now = *current.suppressed_by_rule.get(rule.as_str()).unwrap_or(&0);
        let then = *baseline.suppressed_by_rule.get(rule.as_str()).unwrap_or(&0);
        match now.cmp(&then) {
            std::cmp::Ordering::Greater => failures.push(format!(
                "suppressions for `{rule}` grew: {now} vs {then} in the baseline"
            )),
            std::cmp::Ordering::Less => notes.push(format!(
                "suppressions for `{rule}` shrank ({then} -> {now}): refresh with --write-baseline"
            )),
            std::cmp::Ordering::Equal => {}
        }
    }

    Comparison { failures, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(allows: usize, ledger: &[(&str, usize)]) -> WorkspaceReport {
        WorkspaceReport {
            dirty: Vec::new(),
            files_scanned: 10,
            allows_honoured: allows,
            suppressed_by_rule: ledger.iter().map(|(r, n)| (r.to_string(), *n)).collect(),
        }
    }

    fn baseline(allows: usize, ledger: &[(&str, usize)]) -> Baseline {
        Baseline {
            allows_honoured: allows,
            suppressed_by_rule: ledger.iter().map(|(r, n)| (r.to_string(), *n)).collect(),
        }
    }

    #[test]
    fn round_trips_through_render_json() {
        let ws = report(7, &[("kernel-capability", 3), ("no-lib-unwrap", 4)]);
        let json = crate::report::render_json(
            &ws.dirty,
            ws.files_scanned,
            ws.allows_honoured,
            &ws.suppressed_by_rule,
        );
        let b = parse(&json).expect("parse");
        assert_eq!(b.allows_honoured, 7);
        assert_eq!(b.suppressed_by_rule.get("kernel-capability"), Some(&3));
        assert_eq!(b.suppressed_by_rule.get("no-lib-unwrap"), Some(&4));
        assert!(compare(&ws, &b).passed());
    }

    #[test]
    fn total_growth_fails() {
        let b = baseline(5, &[("kernel-capability", 5)]);
        let cmp = compare(&report(6, &[("kernel-capability", 5)]), &b);
        assert!(!cmp.passed());
        assert!(cmp.failures[0].contains("ledger grew"));
    }

    #[test]
    fn per_rule_growth_fails_even_when_total_is_flat() {
        // Trading one wallclock exemption for one unwrap exemption
        // keeps the total flat but still fails the gate.
        let b = baseline(5, &[("kernel-capability", 3), ("no-lib-unwrap", 2)]);
        let cmp = compare(
            &report(5, &[("kernel-capability", 2), ("no-lib-unwrap", 3)]),
            &b,
        );
        assert!(!cmp.passed());
        assert!(cmp.failures.iter().any(|f| f.contains("no-lib-unwrap")));
    }

    #[test]
    fn new_rule_key_with_nonzero_count_fails() {
        let b = baseline(2, &[("kernel-capability", 2)]);
        let cmp = compare(
            &report(2, &[("kernel-capability", 1), ("hot-path-alloc", 1)]),
            &b,
        );
        assert!(!cmp.passed());
        assert!(cmp.failures.iter().any(|f| f.contains("hot-path-alloc")));
    }

    #[test]
    fn shrinkage_passes_with_refresh_note() {
        let b = baseline(5, &[("kernel-capability", 5)]);
        let cmp = compare(&report(4, &[("kernel-capability", 4)]), &b);
        assert!(cmp.passed());
        assert_eq!(cmp.notes.len(), 2);
        assert!(cmp.notes[0].contains("--write-baseline"));
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse("{}").is_err());
        assert!(parse("{\"allows_honoured\": 3}").is_err());
        assert!(parse("{\"allows_honoured\": 3, \"suppressed_by_rule\": {\"x\": \"y\"}}").is_err());
    }
}
