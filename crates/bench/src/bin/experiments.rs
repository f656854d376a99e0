//! Experiment dispatcher: run any subset of the registry (or `all`)
//! on one shared synthesis.
//!
//! ```text
//! experiments [all | NAME ...] [--list]
//! ```
//!
//! * `all` (or no names) runs every experiment in registry order under
//!   a "Reproduction report" header — the full report.
//! * `--list` prints the registry and exits.
//!
//! Exits non-zero when any artifact fails its validity checks (e.g.
//! the in-text statistics report structural violations).

use digg_bench::registry::{find, run_spec, REGISTRY};

fn main() {
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => {
                for spec in REGISTRY {
                    println!("{:<12} {}", spec.name, spec.about);
                }
                return;
            }
            name => names.push(name.to_string()),
        }
    }

    let specs: Vec<_> = if names.is_empty() || names.iter().any(|n| n == "all") {
        println!("=== Reproduction report: Lerman & Galstyan, WOSN'08 ===\n");
        REGISTRY.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                find(n).unwrap_or_else(|| {
                    eprintln!("unknown experiment {n:?}; try --list");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    // Dispatch is lazy: the shared synthesis is built only when a
    // selected experiment actually needs it, so the standalone sweep
    // experiments run without the multi-day simulation.
    let mut ok = true;
    for spec in specs {
        ok &= run_spec(spec);
    }
    if !ok {
        std::process::exit(1);
    }
}
