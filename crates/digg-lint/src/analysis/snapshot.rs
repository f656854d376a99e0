//! `snapshot-coverage`: every named field of a type implementing
//! `Snapshot` (or `Restore`) must be referenced in that trait's impl
//! bodies — or carry a field-level allow pragma naming why it is
//! derived state.
//!
//! Coverage is **per side**: a field must appear in the snapshot-side
//! bodies *and*, separately, in the restore-side bodies. Union
//! coverage would be blind to the PR-7 `voter_pos` bug class — a
//! restore that rebuilds every field via a struct literal would mask
//! a deleted field *write* in `snapshot()`. Each side's token set is
//! widened by one level of same-file callees, so a `snapshot()` that
//! delegates to a same-file `encode()` (as `StreamRng` does) still
//! counts the fields `encode()` touches. The type's own inherent
//! constructors (associated functions without a `self` receiver) never
//! widen a side: callees are matched by bare name, so any
//! `ByteWriter::new()` would otherwise pull in `Self::new`'s struct
//! literal, which names every field. A trait's associated function,
//! such as `Codec::decode`, still widens.

use crate::model::{FileEntry, WorkspaceModel};
use crate::rules::{Violation, SNAPSHOT_COVERAGE};
use crate::symbols::FnSym;

/// Trait names whose impls constitute a coverage side.
const SIDES: [&str; 2] = ["Snapshot", "Restore"];

pub fn run(model: &WorkspaceModel) -> Vec<(usize, Violation)> {
    let mut out: Vec<(usize, Violation)> = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        for imp in &file.syms.impls {
            let Some(trait_name) = imp.trait_name.as_deref() else {
                continue;
            };
            if !SIDES.contains(&trait_name) {
                continue;
            }
            if file.map.in_test.get(imp.line).copied().unwrap_or(false) {
                continue;
            }
            // The impl's functions plus one level of same-file callees.
            let fns = file.syms.impl_fns(&imp.type_name, trait_name);
            if fns.is_empty() {
                continue;
            }
            let mut covered: Vec<&str> = Vec::new();
            for &j in &fns {
                let f = &file.syms.fns[j];
                covered.extend(f.body_tokens.iter().map(String::as_str));
                for callee in &f.calls {
                    for cf in file.syms.fns.iter().filter(|c| {
                        c.name == *callee
                            && c.body.is_some()
                            && !is_constructor(file, c, &imp.type_name)
                    }) {
                        covered.extend(cf.body_tokens.iter().map(String::as_str));
                    }
                }
            }
            // Locate the struct: same file first, then same crate.
            let found = locate_struct(model, fi, &imp.type_name);
            let Some((sfi, si)) = found else {
                continue;
            };
            let sfile = &model.files[sfi];
            let sdef = &sfile.syms.structs[si];
            if sdef.in_test {
                continue;
            }
            for field in &sdef.fields {
                if covered.iter().any(|t| *t == field.name) {
                    continue;
                }
                let snippet = sfile
                    .raw
                    .get(field.line)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default();
                out.push((
                    sfi,
                    Violation {
                        rule: SNAPSHOT_COVERAGE,
                        line: field.line + 1,
                        snippet: format!(
                            "field `{}` not referenced by impl {trait_name} for {} — {snippet}",
                            field.name, imp.type_name
                        ),
                    },
                ));
            }
        }
    }
    out.sort_by(|a, b| (a.0, a.1.line, a.1.rule).cmp(&(b.0, b.1.line, b.1.rule)));
    out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    out
}

/// An inherent associated function of `ty` whose signature takes no
/// `self`.
fn is_constructor(file: &FileEntry, f: &FnSym, ty: &str) -> bool {
    let Some((open, _)) = f.body else {
        return false;
    };
    f.owner.as_deref() == Some(ty)
        && f.trait_name.is_none()
        && !file.map.code[f.sig_line..=open]
            .iter()
            .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
            .any(|t| t == "self")
}

fn locate_struct(model: &WorkspaceModel, from_file: usize, name: &str) -> Option<(usize, usize)> {
    let local = model.files[from_file]
        .syms
        .structs
        .iter()
        .position(|s| s.name == name);
    if let Some(si) = local {
        return Some((from_file, si));
    }
    let crate_idx = model.files[from_file].crate_idx?;
    for fi in model.crate_files(crate_idx) {
        if let Some(si) = model.files[fi]
            .syms
            .structs
            .iter()
            .position(|s| s.name == name)
        {
            return Some((fi, si));
        }
    }
    None
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

    const COVERED: &str = "struct S {\n    a: u64,\n    b: u64,\n}\nimpl Snapshot for S {\n    fn snapshot(&self, w: &mut W) {\n        w.put(self.a);\n        w.put(self.b);\n    }\n}\nimpl Restore for S {\n    fn restore(r: &mut R) -> S {\n        S { a: r.get(), b: r.get() }\n    }\n}\n";

    #[test]
    fn fully_covered_type_is_clean() {
        assert!(run_src(COVERED).is_empty());
    }

    #[test]
    fn missing_snapshot_write_fires_even_if_restore_covers() {
        // Per-side semantics: dropping the `b` write from snapshot()
        // fires although restore()'s struct literal names every field.
        let src = COVERED.replace("        w.put(self.b);\n", "");
        let v = run_src(&src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, SNAPSHOT_COVERAGE);
        assert!(v[0].snippet.contains("field `b`"));
        assert!(v[0].snippet.contains("impl Snapshot"));
    }

    #[test]
    fn missing_restore_read_fires_independently() {
        let src = COVERED.replace("S { a: r.get(), b: r.get() }", "S { a: r.get(), b: 0 }");
        // `b` still appears as a struct-literal key, so this stays
        // clean — coverage is token-level, not dataflow.
        assert!(run_src(&src).is_empty());
        let src = COVERED.replace("S { a: r.get(), b: r.get() }", "S::from_a(r.get())");
        let v = run_src(&src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == SNAPSHOT_COVERAGE));
    }

    #[test]
    fn same_file_callee_counts_as_coverage() {
        let src = "struct R {\n    key: u64,\n    counter: u64,\n}\nimpl R {\n    fn encode(&self, w: &mut W) {\n        w.put(self.key);\n        w.put(self.counter);\n    }\n}\nimpl Snapshot for R {\n    fn snapshot(&self, w: &mut W) {\n        self.encode(w);\n    }\n}\n";
        assert!(run_src(src).is_empty());
    }

    #[test]
    fn own_constructor_is_not_coverage() {
        // `W::new()` reaches `S::new` by name; its struct literal must
        // not cover the `b` write that snapshot() dropped.
        let src = "struct S {\n    a: u64,\n    b: u64,\n}\nimpl S {\n    fn new() -> S {\n        S { a: 0, b: 0 }\n    }\n}\nimpl Snapshot for S {\n    fn snapshot(&self) {\n        let mut w = W::new();\n        w.put(self.a);\n    }\n}\n";
        let v = run_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].snippet.contains("field `b`"));
    }

    #[test]
    fn generic_impl_and_multiline_header() {
        let src = "struct Q<T> {\n    heap: Vec<T>,\n    seq: u64,\n}\nimpl<T: Codec> Snapshot\n    for Q<T>\n{\n    fn snapshot(&self, w: &mut W) {\n        w.put(self.seq);\n    }\n}\n";
        let v = run_src(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].snippet.contains("field `heap`"));
    }

    #[test]
    fn test_region_types_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    struct S {\n        a: u64,\n    }\n    impl Snapshot for S {\n        fn snapshot(&self) {}\n    }\n}\n";
        assert!(run_src(src).is_empty());
    }
}
