//! `repro` — one front door for every table, figure and ablation.
//!
//! ```sh
//! repro --list                # what can be regenerated
//! repro fig06_concurrent_orin # one harness, printed + results/*.csv
//! repro table1 ablation_dvfs  # several, in the order given
//! repro --all                 # everything, plus results/summary.md
//! ```
//!
//! `--all` runs the figures in parallel (sharing the process-wide
//! engine cache), then the ablations and the paper's observation
//! checks, and writes every panel to `results/*.csv` with the figures
//! and observations collected in `results/summary.md`.

use std::process::ExitCode;

use jetsim_bench::Harness;

fn registry() -> Vec<(&'static str, Harness)> {
    let mut harnesses = jetsim_bench::figures::registry();
    harnesses.extend(jetsim_bench::ablations::registry());
    harnesses
}

fn usage(registry: &[(&'static str, Harness)]) -> String {
    let mut out = String::from(
        "usage: repro [--list | --all | <harness>...]\n\
         regenerates the paper's tables/figures/ablations; CSVs land in results/\n\
         harnesses:\n",
    );
    for (name, _) in registry {
        out.push_str("  ");
        out.push_str(name);
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    let registry = registry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", usage(&registry));
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &registry {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--all") {
        return match all() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write results: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut selected = Vec::with_capacity(args.len());
    for arg in &args {
        match registry.iter().find(|(name, _)| name == arg) {
            Some(&(_, harness)) => selected.push(harness),
            None => {
                eprintln!("unknown harness `{arg}`\n{}", usage(&registry));
                return ExitCode::FAILURE;
            }
        }
    }
    for harness in selected {
        let fig = harness();
        fig.print();
        if let Err(e) = fig.save_csv() {
            eprintln!("warning: could not save CSV: {e}");
        }
    }
    ExitCode::SUCCESS
}

/// Every figure (in parallel), ablation and observation check, saved
/// to `results/` with a markdown summary.
fn all() -> std::io::Result<()> {
    let wall = std::time::Instant::now();
    let mut summary = String::from("# jetsim — regenerated tables and figures\n\n");
    for fig in jetsim_bench::figures::all_parallel() {
        fig.print();
        fig.save_csv()?;
        summary.push_str(&format!("## {} — {}\n\n", fig.id, fig.title));
        for (name, table) in &fig.tables {
            summary.push_str(&format!("### {name}\n\n{table}\n"));
        }
    }
    for fig in jetsim_bench::ablations::all() {
        fig.print();
        fig.save_csv()?;
    }
    let (obs, passed, total) = jetsim_bench::figures::observation_checks();
    obs.print();
    obs.save_csv()?;
    summary.push_str(&format!("## observations — {passed}/{total} hold\n\n"));
    for (_, table) in &obs.tables {
        summary.push_str(&format!("{table}\n"));
    }
    let dir = jetsim_bench::results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("summary.md"), summary)?;
    let cache = jetsim_trt::EngineCache::global().stats();
    println!(
        "\nresults written to {} in {:.1}s (engine cache: {} built, {} hits, {:.0}% hit rate)",
        dir.display(),
        wall.elapsed().as_secs_f64(),
        cache.misses,
        cache.hits,
        cache.hit_rate() * 100.0,
    );
    Ok(())
}
