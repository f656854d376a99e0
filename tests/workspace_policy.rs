//! Workspace policy: the parts of the determinism contract (DESIGN.md
//! §13) that rustc and clippy cannot check from inside one crate.
//!
//! - The kernel/shell boundary: no kernel crate's `[dependencies]`
//!   names the shell crate.
//! - Lint scope: every workspace crate opts into the workspace lints,
//!   every kernel library carries the panic-and-cast header, and no
//!   crate but the shell has its own clippy config to shadow the
//!   kernel's.
//! - The exception ledger: no lint attribute anywhere says `allow`
//!   (outer, inner or inside `cfg_attr`), so every exception is an
//!   `expect` that rustc checks is still needed. The number of `expect`
//!   attributes, per lint, is pinned, and `unsafe_code` may be expected
//!   only in the files that need it. Adding or removing one changes the
//!   tables below in the same commit, so the ledger cannot grow
//!   unnoticed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The shell: the measurement and driver layer. Every other workspace
/// crate, the root package included, is kernel.
const SHELL: &str = "digg-bench";

/// The lints every kernel library denies outside test builds.
const KERNEL_LIB_DENIES: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::cast_possible_truncation",
];

/// `expect` attributes per lint under `crates/`, `src/`, `tests/` and
/// `examples/`. Each sits on the one statement (or the one-line
/// function, type or module) that needs it.
const EXPECT_LEDGER: [(&str, usize); 7] = [
    ("clippy::cast_possible_truncation", 25),
    ("clippy::disallowed_methods", 5),
    ("clippy::disallowed_types", 1),
    ("clippy::expect_used", 3),
    ("clippy::panic", 3),
    ("clippy::unreachable", 2),
    ("unsafe_code", 3),
];

/// The only files that may expect `unsafe_code`: the memory-mapping
/// module and the counting allocators of the hot-path and build-memory
/// tests.
const UNSAFE_FILES: [&str; 3] = [
    "crates/social-graph/src/mmap.rs",
    "crates/core/tests/hot_path_alloc.rs",
    "crates/social-graph/tests/build_memory.rs",
];

/// The clippy config file names clippy looks for in a directory.
const CLIPPY_CONFIGS: [&str; 2] = ["clippy.toml", ".clippy.toml"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A `Cargo.toml`, reduced to `section -> [(key, value)]`.
type Manifest = BTreeMap<String, Vec<(String, String)>>;

/// Parse the TOML subset this workspace's manifests use: `[section]`
/// headers and one `key = value` per line.
fn parse_manifest(text: &str) -> Manifest {
    let mut out = Manifest::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.to_string();
            out.entry(section.clone()).or_default();
        } else if let Some((key, value)) = line.split_once('=') {
            out.entry(section.clone())
                .or_default()
                .push((key.trim().to_string(), value.trim().to_string()));
        }
    }
    out
}

/// Every workspace crate's manifest outside `vendor/`:
/// `(package name, directory, parsed manifest)`.
fn workspace_crates() -> Vec<(String, PathBuf, Manifest)> {
    let mut dirs = vec![root().to_path_buf()];
    let mut members: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    dirs.extend(members);
    dirs.into_iter()
        .map(|dir| {
            let text = fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml is readable");
            let manifest = parse_manifest(&text);
            let name = manifest["package"]
                .iter()
                .find(|(k, _)| k == "name")
                .map(|(_, v)| v.trim_matches('"').to_string())
                .expect("every workspace crate has a package name");
            (name, dir, manifest)
        })
        .collect()
}

/// The crate names a manifest's `[dependencies]` declare, in either
/// the `name = …` / `name.workspace = true` or the
/// `[dependencies.name]` form.
fn dependencies(manifest: &Manifest) -> Vec<String> {
    let mut deps = Vec::new();
    for (section, entries) in manifest {
        if section == "dependencies" {
            deps.extend(entries.iter().map(|(k, _)| {
                let k = k.split('.').next().unwrap_or(k);
                k.trim_matches('"').to_string()
            }));
        } else if let Some(dep) = section.strip_prefix("dependencies.") {
            deps.push(dep.trim_matches('"').to_string());
        }
    }
    deps
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_kernel_crate_depends_on_the_shell() {
    let crates = workspace_crates();
    assert!(crates.iter().any(|(name, ..)| name == SHELL));
    for (name, _, manifest) in &crates {
        if name != SHELL {
            assert!(
                !dependencies(manifest).iter().any(|d| d == SHELL),
                "kernel crate {name} depends on the shell crate {SHELL}"
            );
        }
    }
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    for (name, _, manifest) in workspace_crates() {
        let lints = manifest.get("lints").map(Vec::as_slice).unwrap_or(&[]);
        assert!(
            lints.iter().any(|(k, v)| k == "workspace" && v == "true"),
            "{name} lacks `[lints] workspace = true`"
        );
    }
}

#[test]
fn kernel_libraries_deny_panics_and_truncating_casts() {
    for (name, dir, _) in workspace_crates() {
        if name == SHELL {
            continue;
        }
        let lib = fs::read_to_string(dir.join("src/lib.rs")).expect("kernel crate has a lib.rs");
        let header = lib
            .split("#![cfg_attr(")
            .nth(1)
            .and_then(|rest| rest.split(")]").next())
            .unwrap_or_else(|| panic!("{name}'s lib.rs has no cfg_attr header"));
        assert!(header.contains("not(test)") && header.contains("deny("));
        for lint in KERNEL_LIB_DENIES {
            assert!(
                header.contains(lint),
                "{name}'s lib.rs does not deny {lint}"
            );
        }
    }
}

#[test]
fn only_the_shell_shadows_the_kernel_clippy_config() {
    // Clippy reads the nearest config at or above a package's manifest
    // directory, so a kernel crate's own config, or one in `crates/`,
    // would replace the root's bans for those crates.
    assert!(root().join("clippy.toml").is_file());
    assert!(!root().join(".clippy.toml").exists());
    for file in CLIPPY_CONFIGS {
        assert!(
            !root().join("crates").join(file).exists(),
            "crates/{file} would shadow the kernel's clippy.toml"
        );
    }
    for (name, dir, _) in workspace_crates() {
        if dir == root() {
            continue;
        }
        assert_eq!(
            dir.join("clippy.toml").exists(),
            name == SHELL,
            "{name}: clippy.toml presence"
        );
        assert!(
            !dir.join(".clippy.toml").exists(),
            "{name}: .clippy.toml would shadow the kernel's clippy.toml"
        );
    }
}

/// One attribute: the file it is in, its first line, and its text from
/// `#` to the closing `]` with string literals emptied (so a `reason`
/// cannot hide or fake a lint name).
struct Attribute {
    file: String,
    line: usize,
    text: String,
}

/// Every attribute that opens a line (after indentation) in the Rust
/// files under `crates/`, `src/`, `tests/` and `examples/`. Lint
/// attributes always open a line under `cargo fmt`.
fn attributes() -> Vec<Attribute> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    files.sort();
    let mut out = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("source is readable");
        let rel = file
            .strip_prefix(root())
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let mut offset = 0;
        for (i, line) in source.split_inclusive('\n').enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
                let start = offset + (line.len() - trimmed.len());
                out.push(Attribute {
                    file: rel.clone(),
                    line: i + 1,
                    text: attribute_text(&source[start..]),
                });
            }
            offset += line.len();
        }
    }
    out
}

/// The attribute at the start of `src`, up to its matching `]`, with
/// string literal contents dropped.
fn attribute_text(src: &str) -> String {
    let mut text = String::new();
    let mut depth = 0usize;
    let mut chars = src.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                // Skip to the closing quote, honouring escapes.
                while let Some(s) = chars.next() {
                    match s {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
                text.push_str("\"\"");
                continue;
            }
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    text.push(c);
                    return text;
                }
            }
            _ => {}
        }
        text.push(c);
    }
    panic!("unterminated attribute: {text}")
}

/// The argument lists of every `name(…)` call in an attribute, where
/// `name` is a whole word: `expect` in `cfg_attr(x, expect(a, b))`
/// gives `["a, b"]`.
fn lint_args<'a>(attr: &'a str, name: &str) -> Vec<&'a str> {
    let mut args = Vec::new();
    for (i, _) in attr.match_indices(&format!("{name}(")) {
        if attr[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let body = &attr[i + name.len() + 1..];
        let mut depth = 1usize;
        let end = body
            .char_indices()
            .find(|&(_, c)| {
                match c {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .map_or(body.len(), |(j, _)| j);
        args.push(&body[..end]);
    }
    args
}

#[test]
fn no_lint_attribute_says_allow() {
    // `clippy::allow_attributes` sees only outer `#[allow]`; an inner
    // `#![allow(…)]`, or an `allow` inside `cfg_attr`, would silence a
    // ban for a whole module unseen. Exceptions are `expect`s.
    let allows: Vec<String> = attributes()
        .iter()
        .filter(|a| !lint_args(&a.text, "allow").is_empty())
        .map(|a| format!("{}:{}: {}", a.file, a.line, a.text))
        .collect();
    assert!(allows.is_empty(), "allow attributes: {allows:#?}");
}

#[test]
fn expect_ledger_is_pinned() {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for attr in attributes() {
        for args in lint_args(&attr.text, "expect") {
            for lint in args.split(',').map(str::trim) {
                if lint.is_empty() || lint.starts_with("reason") {
                    continue;
                }
                if lint == "unsafe_code" {
                    assert!(
                        UNSAFE_FILES.contains(&attr.file.as_str()),
                        "{}:{}: unsafe code outside {UNSAFE_FILES:?}",
                        attr.file,
                        attr.line
                    );
                }
                *counts.entry(lint.to_string()).or_default() += 1;
            }
        }
    }
    let pinned: BTreeMap<String, usize> = EXPECT_LEDGER
        .iter()
        .map(|&(lint, n)| (lint.to_string(), n))
        .collect();
    assert_eq!(
        counts,
        pinned,
        "the expect ledger changed: update EXPECT_LEDGER (total {})",
        counts.values().sum::<usize>()
    );
}
