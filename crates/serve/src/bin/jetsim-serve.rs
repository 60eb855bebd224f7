//! Command-line front-end for request-level online serving experiments.
//!
//! ```sh
//! jetsim-serve --tenant resnet50:int8:1:2 --arrival poisson:200 \
//!     --slo 50ms --duration 30s
//! ```
//!
//! Each `--tenant` takes the preceding (or last) `--arrival`;
//! `--find-max-qps` turns the run into a capacity search for tenant 0.
//! The flags come from the table in [`jetsim::cli`]; `--help` lists them.
//! A required value takes `--flag value` or `--flag=value`; an optional
//! one (`--retry`, `--faults`, `--hedge`, `--breaker`, `--recovery`,
//! `--find-max-qps`) only `--flag=value`, so `--retry 0` fails.
//!
//! The flags overlay the `--scenario` document (TOML or JSON
//! [`ScenarioSpec`]), if any. `--dump-scenario` prints the merged
//! document; running it with `--scenario` reproduces the run byte for
//! byte.

use std::process::ExitCode;

use jetsim::cli::{self, Cli, Tool};
use jetsim_serve::{build_serve_spec, ScenarioSpec};

fn run(cli: &Cli, scenario: ScenarioSpec) -> Result<(), String> {
    let spec = build_serve_spec(&scenario)?;
    if let Some(target) = cli.find_max_qps {
        let estimate = spec.find_max_qps(target, 6).map_err(|e| e.to_string())?;
        if cli.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&estimate).map_err(|e| e.to_string())?
            );
        } else {
            println!(
                "max sustainable load for {}: {:.1} qps at >= {:.0}% SLO attainment \
                 ({} probes)",
                spec.tenants()[0].tenant.label(),
                estimate.max_qps,
                target * 100.0,
                estimate.probes.len()
            );
            for p in &estimate.probes {
                println!(
                    "  probe {:>8.1} qps -> {:>5.1}% {}",
                    p.qps,
                    p.slo_attainment * 100.0,
                    if p.feasible { "ok" } else { "MISS" }
                );
            }
        }
        return Ok(());
    }

    let report = spec.run().map_err(|e| e.to_string())?;
    if cli.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{report}");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main(Tool::Serve, &[], run)
}
