//! The workspace must lint clean with every shipped pragma earning
//! its keep — the same gate CI runs via `cargo run -p digg-lint`,
//! pinned here so `cargo test` alone catches a regression.

use digg_lint::lint_workspace;

#[test]
fn workspace_is_clean_with_no_unused_pragmas() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = digg_lint::walk::workspace_root(here).expect("workspace root above digg-lint");
    let report = lint_workspace(&root).expect("workspace readable");
    assert!(report.files_scanned > 100, "walker must see the whole tree");
    let mut message = String::new();
    for file in &report.dirty {
        for v in &file.violations {
            message.push_str(&format!(
                "{}:{}: [{}] {}\n",
                file.path, v.line, v.rule, v.snippet
            ));
        }
    }
    assert!(
        report.is_clean(),
        "workspace must lint clean (unused pragmas included):\n{message}"
    );
}
