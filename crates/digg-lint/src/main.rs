//! CLI: `digg-lint [--json] [--root DIR] [--baseline PATH]
//! [--write-baseline PATH]` — lints the workspace above DIR (default:
//! the current directory) with the scope in its `lint-boundary.toml`.
//!
//! Exit codes: 0 clean, 1 violations or baseline regression, 2 usage,
//! boundary-file or I/O error.

use digg_lint::{baseline, lint_workspace, report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: digg-lint [--json] [--root DIR] [--baseline PATH] [--write-baseline PATH]";

#[derive(Default)]
struct Args {
    json: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{a} requires a {what}"))
        };
        match a.as_str() {
            "--json" => out.json = true,
            "--root" => out.root = Some(value("directory")?),
            "--baseline" => out.baseline = Some(value("file")?),
            "--write-baseline" => out.write_baseline = Some(value("file")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(out)
}

/// Lint, write/compare the baseline, print the report. `Err` carries
/// a message for exit code 2; `Ok(false)` means violations or a
/// baseline regression (exit 1).
fn run(args: &Args) -> Result<bool, String> {
    let start = args
        .root
        .clone()
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let root = digg_lint::walk::workspace_root(&start)
        .ok_or_else(|| format!("no workspace Cargo.toml above {}", start.display()))?;
    let ws = lint_workspace(&root).map_err(|e| e.to_string())?;
    let json = || {
        report::render_json(
            &ws.dirty,
            ws.files_scanned,
            ws.allows_honoured,
            &ws.suppressed_by_rule,
        )
    };

    if let Some(path) = &args.write_baseline {
        std::fs::write(path, json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("digg-lint: baseline written to {}", path.display());
    }
    let mut gate_passed = true;
    if let Some(path) = &args.baseline {
        let base = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| baseline::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let cmp = baseline::compare(&ws, &base);
        for note in &cmp.notes {
            eprintln!("digg-lint: note: {note}");
        }
        for fail in &cmp.failures {
            eprintln!("digg-lint: baseline: {fail}");
        }
        gate_passed = cmp.passed();
    }

    if args.json {
        print!("{}", json());
    } else {
        print!(
            "{}",
            report::render_text(&ws.dirty, ws.files_scanned, ws.allows_honoured)
        );
    }
    Ok(ws.is_clean() && gate_passed)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("digg-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
