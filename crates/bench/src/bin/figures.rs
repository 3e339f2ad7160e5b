//! Prints the reproduced tables and figures of the BTS paper.
//!
//! Usage:
//! ```text
//! cargo run --release -p bts-bench --bin figures -- all
//! cargo run --release -p bts-bench --bin figures -- fig6 table5
//! cargo run --release -p bts-bench --bin figures -- --json   # BENCH_FIGURES.json
//! ```
//!
//! `--json` simulates every registered workload on every Table 4 instance and
//! writes the machine-readable results to `BENCH_FIGURES.json` in the current
//! directory (printing them to stdout as well), so CI can track the perf
//! trajectory across PRs.

use bts_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Resolve every target before rendering any, so a typo fails fast.
    let mut renderers = Vec::with_capacity(targets.len());
    for target in targets {
        match renderer(target) {
            Some(render) => renderers.push(render),
            None => {
                eprintln!(
                    "unknown target '{target}'; expected one of: all table1 fig1 fig2 fig3b table3 table4 fig6 fig7a fig7b table5 table6 fig8 fig9 fig10 sched serve cluster resilience hints compile slowdown --json"
                );
                std::process::exit(2);
            }
        }
    }
    for render in renderers {
        println!("{}", render());
    }
}

fn renderer(target: &str) -> Option<fn() -> String> {
    Some(match target {
        "all" => figures::all,
        "table1" => figures::table1,
        "fig1" => figures::fig1,
        "fig2" => figures::fig2,
        "fig3b" => figures::fig3b,
        "table3" => figures::table3,
        "table4" => figures::table4,
        "fig6" => figures::fig6,
        "fig7a" => figures::fig7a,
        "fig7b" => figures::fig7b,
        "table5" => figures::table5,
        "table6" => figures::table6,
        "fig8" => figures::fig8,
        "fig9" => figures::fig9,
        "fig10" => figures::fig10,
        "sched" => figures::sched,
        "serve" => figures::serve,
        "cluster" => figures::cluster,
        "resilience" => figures::resilience,
        "hints" => figures::hints,
        "compile" => figures::compiler,
        "slowdown" => figures::slowdown,
        "--json" | "json" => write_json,
        _ => return None,
    })
}

/// Writes `BENCH_FIGURES.json` and returns its text for stdout.
fn write_json() -> String {
    let json = figures::workloads_json();
    let path = "BENCH_FIGURES.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
    json
}
