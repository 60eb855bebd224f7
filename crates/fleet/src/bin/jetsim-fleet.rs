//! Command-line front-end for fleet-scale serving experiments.
//!
//! ```sh
//! jetsim-fleet --sites 8 --router offload --cloud \
//!     --tenant resnet50:int8:1:2 --arrival poisson:400 --slo 50ms
//! ```
//!
//! The flags come from the table in [`jetsim::cli`] plus this crate's
//! `--router` and `--network` rows; `--help` lists them. A required value
//! takes `--flag value` or `--flag=value`; `--cloud`, whose value is
//! optional, takes only `--cloud=true|false`. As in `jetsim-serve`, the
//! flags overlay the `--scenario` document and `--dump-scenario` prints
//! the merged one. `--workers` never changes the report bytes.

use std::process::ExitCode;

use jetsim::cli::{self, Cli, Tool};
use jetsim_fleet::{build_fleet_spec, CLI_FLAGS};
use jetsim_serve::ScenarioSpec;

fn run(cli: &Cli, scenario: ScenarioSpec) -> Result<(), String> {
    let report = build_fleet_spec(&scenario)?.workers(cli.workers).run()?;
    if cli.json {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main(Tool::Fleet, CLI_FLAGS, run)
}
