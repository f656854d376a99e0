//! `unordered-taint`: `HashMap`/`HashSet` iteration whose results can
//! flow — through the intra-crate call graph — into a serialization
//! or artifact-write sink.
//!
//! The per-file `no-unordered-serialize` rule catches hash *fields*
//! on serde-derived types; this analysis owns every other path of the
//! bug class, hand-written `snapshot()` encoders included: a function
//! that *iterates* a hash container in nondeterministic order while
//! being reachable from a `snapshot()`/`encode()`/file-writing
//! function. An iteration site is benign
//! ("rescued") when the same line reduces it order-independently
//! (`.count()`, `.any(..)`, `.min(..)`, a `BTreeMap` collect …) or a
//! later line of the same body sorts the collected result — the
//! `pairs.sort_unstable()` idiom every legitimate site in this
//! workspace uses.

use crate::analysis::resolvable;
use crate::model::WorkspaceModel;
use crate::rules::{Violation, UNORDERED_TAINT};
use std::collections::BTreeSet;

/// `x.<marker>` patterns that enumerate a container in hash order.
const ITER_MARKERS: [&str; 6] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
];

/// Same-line reductions that make enumeration order unobservable.
const LINE_RESCUES: [&str; 7] = [
    ".count()", ".any(", ".all(", ".min(", ".max(", "BTreeMap", "BTreeSet",
];

/// Function-name / body markers of serialization and artifact sinks.
const SINK_FN_NAMES: [&str; 3] = ["snapshot", "encode", "serialize"];
const SINK_BODY_TOKENS: [&str; 7] = [
    "serde_json::to_",
    "write_atomic",
    "File::create",
    ".write_all(",
    "BufWriter",
    "to_writer",
    "writeln!",
];

/// Does `code` iterate a container named `name` (with a token boundary
/// before the name)?
fn iterates(code: &str, name: &str) -> bool {
    for marker in ITER_MARKERS {
        let pat = format!("{name}{marker}");
        let mut start = 0usize;
        while let Some(pos) = code[start..].find(&pat) {
            let at = start + pos;
            let before = code[..at].chars().next_back();
            if !before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                return true;
            }
            start = at + pat.len();
        }
    }
    // `for … in [&[mut]] [self.]name {`
    if let Some(pos) = find_token(code, "for") {
        if let Some(inpos) = find_token(&code[pos..], "in") {
            let operand = &code[pos + inpos + 2..];
            let operand = operand.trim_start_matches([' ', '&']);
            let operand = operand.strip_prefix("mut ").unwrap_or(operand);
            let operand = operand.strip_prefix("self.").unwrap_or(operand);
            let head: String = operand
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if head == name {
                return true;
            }
        }
    }
    false
}

/// Byte offset of `needle` as a maximal token, if present.
fn find_token(code: &str, needle: &str) -> Option<usize> {
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before = code[..at].chars().next_back();
        let after = code[at + needle.len()..].chars().next();
        let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary(before) && boundary(after) {
            return Some(at);
        }
        start = at + needle.len();
    }
    None
}

pub fn run(model: &WorkspaceModel) -> Vec<(usize, Violation)> {
    let mut out: Vec<(usize, Violation)> = Vec::new();
    // Process crate by crate: seeds, sinks, and reachability are all
    // intra-crate.
    for ci in 0..model.crates.len() {
        let crate_files = model.crate_files(ci);
        if crate_files.is_empty() {
            continue;
        }
        // Hash-typed struct fields anywhere in the crate.
        let mut field_names: BTreeSet<&str> = BTreeSet::new();
        for &fi in &crate_files {
            for s in &model.files[fi].syms.structs {
                if s.in_test {
                    continue;
                }
                for f in &s.fields {
                    if f.is_hash {
                        field_names.insert(&f.name);
                    }
                }
            }
        }
        // Reachability from sinks through the call graph.
        let reachable = sink_reachable(model, &crate_files);
        for &fi in &crate_files {
            let file = &model.files[fi];
            for (j, f) in file.syms.fns.iter().enumerate() {
                if f.in_test || !reachable.contains(&(fi, j)) {
                    continue;
                }
                let Some((start, end)) = f.body else {
                    continue;
                };
                let mut names: BTreeSet<&str> = field_names.clone();
                for lh in &file.syms.local_hashes {
                    if lh.fn_idx == j {
                        names.insert(&lh.name);
                    }
                }
                if names.is_empty() {
                    continue;
                }
                let end = end.min(file.map.code.len().saturating_sub(1));
                for ln in start..=end {
                    if file.map.in_test.get(ln).copied().unwrap_or(false) {
                        continue;
                    }
                    let code = &file.map.code[ln];
                    let Some(name) = names.iter().find(|n| iterates(code, n)) else {
                        continue;
                    };
                    if LINE_RESCUES.iter().any(|r| code.contains(r)) {
                        continue;
                    }
                    let sorted_later = (ln + 1..=end)
                        .any(|l2| file.map.code.get(l2).is_some_and(|c| c.contains(".sort")));
                    if sorted_later {
                        continue;
                    }
                    let snippet = file
                        .raw
                        .get(ln)
                        .map(|l| l.trim().to_string())
                        .unwrap_or_default();
                    out.push((
                        fi,
                        Violation {
                            rule: UNORDERED_TAINT,
                            line: ln + 1,
                            snippet: format!(
                                "hash-order iteration of `{name}` reachable from a serialization/artifact sink — {snippet}"
                            ),
                        },
                    ));
                }
            }
        }
    }
    out.sort_by(|a, b| (a.0, a.1.line, a.1.rule).cmp(&(b.0, b.1.line, b.1.rule)));
    out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    out
}

/// All functions reachable from any sink function of the crate
/// (including the sinks themselves) through resolvable calls.
fn sink_reachable(model: &WorkspaceModel, crate_files: &[usize]) -> BTreeSet<(usize, usize)> {
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    for &fi in crate_files {
        let file = &model.files[fi];
        for (j, f) in file.syms.fns.iter().enumerate() {
            if f.in_test || f.body.is_none() {
                continue;
            }
            let by_name = SINK_FN_NAMES.contains(&f.name.as_str())
                && f.trait_name
                    .as_deref()
                    .is_some_and(|t| ["Snapshot", "Codec", "Serialize", "Serializer"].contains(&t));
            let by_body = {
                let (start, end) = f.body.unwrap_or((0, 0));
                let end = end.min(file.map.code.len().saturating_sub(1));
                (start..=end).any(|ln| {
                    SINK_BODY_TOKENS
                        .iter()
                        .any(|t| file.map.code[ln].contains(t))
                })
            };
            if by_name || by_body {
                frontier.push((fi, j));
            }
        }
    }
    let mut reached: BTreeSet<(usize, usize)> = frontier.iter().copied().collect();
    while let Some((fi, j)) = frontier.pop() {
        let calls = model.files[fi].syms.fns[j].calls.clone();
        for callee in &calls {
            if !resolvable(callee) {
                continue;
            }
            for tgt in model.resolve_call(crate_files, fi, callee) {
                if reached.insert(tgt) {
                    frontier.push(tgt);
                }
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str) -> Vec<Violation> {
        run(&WorkspaceModel::single("crates/x/src/lib.rs", src))
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    #[test]
    fn iteration_in_sink_fn_fires() {
        let src = "struct S {\n    m: HashMap<u32, u32>,\n}\nimpl Snapshot for S {\n    fn snapshot(&self, w: &mut W) {\n        for (k, v) in &self.m {\n            w.put(*k);\n        }\n    }\n}\n";
        let v = run_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, UNORDERED_TAINT);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn sorted_collect_is_rescued() {
        let src = "struct S {\n    m: HashMap<u32, u32>,\n}\nimpl Snapshot for S {\n    fn snapshot(&self, w: &mut W) {\n        let mut pairs: Vec<_> = self.m.iter().collect();\n        pairs.sort_unstable();\n        for (k, v) in pairs {\n            w.put(*k);\n        }\n    }\n}\n";
        assert!(run_src(src).is_empty());
    }

    #[test]
    fn count_on_same_line_is_rescued() {
        let src = "fn audit(seen: &HashSet<u32>) -> usize {\n    seen.iter().count()\n}\nfn sink(s: &HashSet<u32>) {\n    let f = File::create(\"out\");\n    let n = audit(s);\n}\n";
        assert!(run_src(src).is_empty());
    }

    #[test]
    fn taint_flows_through_the_call_graph() {
        let src = "fn leak(m: &HashMap<u32, u32>, out: &mut Vec<u32>) {\n    for v in m.values() {\n        out.push(*v);\n    }\n}\nstruct M {\n    m: HashMap<u32, u32>,\n}\nimpl Snapshot for M {\n    fn snapshot(&self, w: &mut W) {\n        let mut v = Vec::new();\n        leak(&self.m, &mut v);\n        w.put_all(&v);\n    }\n}\n";
        let v = run_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].snippet.contains("`m`"));
    }

    #[test]
    fn unreachable_iteration_is_not_flagged() {
        // No sink in this file: iteration order is unobservable.
        let src = "fn tally(m: &HashMap<u32, u32>) -> u64 {\n    let mut t = 0;\n    for v in m.values() {\n        t += u64::from(*v);\n    }\n    t\n}\n";
        assert!(run_src(src).is_empty());
    }

    #[test]
    fn local_hash_binding_is_seeded() {
        let src = "fn write_report(w: &mut W) {\n    let mut seen = HashSet::new();\n    seen.insert(1);\n    let f = File::create(\"x\");\n    for s in seen.iter() {\n        w.put(s);\n    }\n}\n";
        let v = run_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].snippet.contains("`seen`"));
    }

    #[test]
    fn keyed_lookup_is_not_iteration() {
        let src = "fn sink(m: &HashMap<u32, u32>) {\n    let f = File::create(\"x\");\n    let v = m.get(&3);\n    let n = m.len();\n}\n";
        assert!(run_src(src).is_empty());
    }
}
