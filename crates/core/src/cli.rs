//! One front door for `jetsim-trtexec`, `jetsim-serve` and `jetsim-fleet`.
//!
//! One flag table, [`FLAGS`], drives all three tools. Each [`Flag`] row
//! names a spelling, the tools that accept it, its [`Operand`], a help
//! line, and an `apply` that writes the operand into the [`ScenarioSpec`]
//! overlay of a [`Cli`] or into a tool-only field. The fleet crate
//! declares its `--router` and `--network` rows with the same type.
//! [`main`] runs a tool: [`parse`], [`Cli::scenario`], then the tool's
//! own build and print. Help is generated from the rows.
//!
//! A required operand takes `--flag VALUE` or `--flag=VALUE`; an optional
//! one (`--retry[=N]`) only `--flag=VALUE`, so `--retry 3` fails with
//! "unknown flag `3`".
//!
//! # Examples
//!
//! ```
//! use jetsim::cli::{parse, Tool};
//!
//! let argv = ["--tenant", "resnet50:int8:1:2", "--retry", "--seed=7"].map(String::from);
//! let sc = parse(Tool::Serve, &[], argv).unwrap().scenario().unwrap();
//! assert_eq!((sc.retry, sc.seed), (Some(3), Some(7)));
//! let err = parse(Tool::Trtexec, &[], ["--retry".to_string()]).unwrap_err();
//! assert!(err.starts_with("unknown flag `--retry`"));
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use jetsim_des::DEFAULT_SEED;
use jetsim_dnn::Precision;
use jetsim_sim::GpuPolicy;

use crate::scenario::{
    parse_arrival, parse_duration, AutoscaleScenario, FleetScenario, ScenarioSpec, TenantScenario,
};
use Operand::{None as Switch, Optional as Opt, Required as Req};
use Tool::{Fleet as F, Serve as S, Trtexec as T};

/// The three command-line tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// `jetsim-trtexec`: closed-loop runs, as the paper drives `trtexec`.
    Trtexec,
    /// `jetsim-serve`: request-level online serving on one device.
    Serve,
    /// `jetsim-fleet`: many serving sites behind a router.
    Fleet,
}

impl Tool {
    /// The binary name and what it needs for a workload.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Tool::Trtexec => (
                "jetsim-trtexec",
                "--model, --tenant or --scenario is required",
            ),
            Tool::Serve => ("jetsim-serve", "--tenant or --scenario is required"),
            Tool::Fleet => ("jetsim-fleet", "--tenant or --scenario is required"),
        }
    }
}

/// What follows a flag's spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A bare switch (`--json`); an inline `=value` is ignored.
    None,
    /// A value, named in help by the text.
    Required(&'static str),
    /// An optional `=VALUE` and the default applied without it; an empty
    /// default leaves the fallback to `apply`.
    Optional(&'static str, &'static str),
}

/// One row of the flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling, `--name`.
    pub name: &'static str,
    /// The tools that accept the flag.
    pub tools: &'static [Tool],
    /// What follows the spelling.
    pub operand: Operand,
    /// The help line.
    pub help: &'static str,
    /// Writes the operand (`""` for a switch) into the command line.
    pub apply: fn(&mut Cli, &str) -> Result<(), String>,
}

impl Flag {
    /// A table row.
    pub const fn new(
        name: &'static str,
        tools: &'static [Tool],
        operand: Operand,
        help: &'static str,
        apply: fn(&mut Cli, &str) -> Result<(), String>,
    ) -> Flag {
        Flag {
            name,
            tools,
            operand,
            help,
            apply,
        }
    }
}

/// A parsed command line: the scenario overlay plus the tool-only fields.
#[derive(Debug, Default)]
pub struct Cli {
    /// `--scenario FILE`: the base document the overlay is merged over.
    pub scenario_file: Option<String>,
    /// Every scenario-shaped flag, as a sparse overlay.
    pub overlay: ScenarioSpec,
    /// The last `--arrival`. Later `--tenant`s take it; with no
    /// `--tenant` at all it replaces every scenario tenant's arrivals.
    arrival: Option<String>,
    /// `--faults` without a seed: resolved against the merged seed.
    faults_default_seed: bool,
    /// `--dump-scenario`: print the merged scenario instead of running.
    pub dump_scenario: bool,
    /// `--json`: emit the report as JSON.
    pub json: bool,
    /// `jetsim-trtexec`'s single-engine workload, set by any of its flags.
    pub engine: Option<EngineFlags>,
    /// `--nsight`: add the kernel-level (phase 2) report.
    pub nsight: bool,
    /// `--chrome-trace FILE`: where to write the timeline.
    pub chrome_trace: Option<String>,
    /// `--find-max-qps[=TARGET]`: the SLO-attainment target to search for.
    pub find_max_qps: Option<f64>,
    /// `--workers N`: the site-simulation thread cap.
    pub workers: Option<usize>,
}

/// `jetsim-trtexec`'s one-engine workload: `--model` built at one
/// precision and batch, run by `--processes` processes of `--streams`
/// streams. Unset fields mean fp32, batch 1, 1 process and 1 stream.
#[derive(Debug, Default)]
pub struct EngineFlags {
    /// A zoo model name or a `.json` model file.
    pub model: Option<String>,
    /// The engine precision.
    pub precision: Option<Precision>,
    /// Images per inference.
    pub batch: Option<u32>,
    /// Concurrent processes running the engine.
    pub processes: Option<u32>,
    /// Streams (execution contexts) per process.
    pub streams: Option<u32>,
}

impl Cli {
    fn engine_mut(&mut self) -> &mut EngineFlags {
        self.engine.get_or_insert_with(EngineFlags::default)
    }

    fn autoscale_mut(&mut self) -> &mut AutoscaleScenario {
        self.overlay.autoscale.get_or_insert_with(Default::default)
    }

    /// The overlay's `[fleet]` table, created on first use.
    pub fn fleet_mut(&mut self) -> &mut FleetScenario {
        self.overlay.fleet.get_or_insert_with(Default::default)
    }

    /// Merges the flag overlay over the `--scenario` file, if any. Then
    /// the `--model` workload replaces the file's tenants, a bare
    /// `--arrival` (no `--tenant`) applies to every tenant, and `--faults`
    /// without a seed takes the merged seed.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed scenario file.
    pub fn scenario(&self) -> Result<ScenarioSpec, String> {
        let base = match &self.scenario_file {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario `{path}`: {e}"))?
                .parse::<ScenarioSpec>()
                .map_err(|e| format!("{path}: {e}"))?,
            None => ScenarioSpec::default(),
        };
        let mut merged = base.merge(&self.overlay);
        if self.engine.is_some() {
            merged.tenants = None;
        }
        if let (None, Some(arrival)) = (&self.overlay.tenants, &self.arrival) {
            for tenant in merged.tenants.iter_mut().flatten() {
                tenant.arrival = Some(arrival.clone());
            }
        }
        if self.faults_default_seed && merged.fault_seed.is_none() {
            merged.fault_seed = Some(merged.seed.unwrap_or(DEFAULT_SEED));
        }
        Ok(merged)
    }
}

fn rows(tool: Tool, extra: &[Flag]) -> impl Iterator<Item = &Flag> {
    FLAGS
        .iter()
        .chain(extra)
        .filter(move |flag| flag.tools.contains(&tool))
}

/// Parses `argv` (without the program name) for `tool` against [`FLAGS`]
/// plus its `extra` rows.
///
/// # Errors
///
/// The help text for `--help`; otherwise a message naming the flag.
pub fn parse(
    tool: Tool,
    extra: &[Flag],
    argv: impl IntoIterator<Item = String>,
) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut argv = argv.into_iter().peekable();
    while let Some(arg) = argv.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((key, value)) => (key, Some(value)),
            None => (arg.as_str(), None),
        };
        if key == "--help" || key == "-h" {
            return Err(help(tool, extra));
        }
        let Some(flag) = rows(tool, extra).find(|flag| flag.name == key) else {
            return Err(format!("unknown flag `{key}`\n{}", help(tool, extra)));
        };
        let value = match (flag.operand, inline) {
            (Operand::None, _) => String::new(),
            (Operand::Optional(..), Some("")) => return Err(format!("bad {key}: empty value")),
            (_, Some(value)) => value.to_string(),
            (Operand::Optional(_, default), None) => default.to_string(),
            (Operand::Required(_), None) => argv
                .next_if(|next| !next.starts_with("--"))
                .ok_or_else(|| format!("{key} needs a value"))?,
        };
        (flag.apply)(&mut cli, &value).map_err(|e| format!("bad {key}: {e}"))?;
    }
    let workload = cli.scenario_file.is_some() || cli.overlay.tenants.is_some();
    let problem = if cli.engine.is_some() && cli.overlay.tenants.is_some() {
        "--tenant cannot be combined with --model/--batch/--processes/--streams or precision flags"
    } else if !workload && cli.engine.is_none() && !cli.dump_scenario {
        tool.names().1
    } else {
        return Ok(cli);
    };
    Err(format!("{problem}\n{}", help(tool, extra)))
}

/// The help text of `tool`, generated from its rows.
fn help(tool: Tool, extra: &[Flag]) -> String {
    let (bin, required) = tool.names();
    let mut out = format!("usage: {bin} [FLAGS]; {required}\n");
    for flag in rows(tool, extra) {
        let name = flag.name;
        let (spelling, alone) = match flag.operand {
            Operand::None => (name.to_string(), String::new()),
            Operand::Required(value) => (format!("{name} {value}"), String::new()),
            Operand::Optional(value, "") => (format!("{name}[={value}]"), String::new()),
            Operand::Optional(value, default) => (
                format!("{name}[={value}]"),
                format!(" (alone: {name}={default})"),
            ),
        };
        out += &format!("  {spelling:<26} {}{alone}\n", flag.help);
    }
    out + "A VALUE operand takes `--flag VALUE` or `--flag=VALUE`; an optional [=VALUE] only `--flag=VALUE`."
}

/// Runs `tool`: [`parse`] the process arguments, merge the scenario, then
/// print it (`--dump-scenario`) or hand both to `run`. A parse error
/// prints as it is; a later error prints as `error: …`. Either way the
/// exit code is a failure.
pub fn main(
    tool: Tool,
    extra: &[Flag],
    run: fn(&Cli, ScenarioSpec) -> Result<(), String>,
) -> ExitCode {
    let cli = match parse(tool, extra, std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = cli.scenario().and_then(|scenario| {
        if cli.dump_scenario {
            print!("{scenario}");
            return Ok(());
        }
        run(&cli, scenario)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn value<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn set<T: FromStr<Err: Display>>(slot: &mut Option<T>, v: &str) -> Result<(), String> {
    *slot = Some(value(v)?);
    Ok(())
}

/// A count that must be at least 1.
fn positive<T: FromStr<Err: Display> + Default + PartialEq>(v: &str) -> Result<T, String> {
    let n = value(v)?;
    if n == T::default() {
        return Err("must be at least 1".to_string());
    }
    Ok(n)
}

/// Stores a duration operand as typed, once it parses.
fn duration(slot: &mut Option<String>, v: &str) -> Result<(), String> {
    parse_duration(v)?;
    set(slot, v)
}

fn one_of(slot: &mut Option<String>, v: &str, allowed: &[&str]) -> Result<(), String> {
    if !allowed.contains(&v) {
        return Err(format!("`{v}`: want {}", allowed.join(" or ")));
    }
    set(slot, v)
}

fn tenant(c: &mut Cli, spec: &str) -> Result<(), String> {
    let tenant = TenantScenario {
        spec: Some(spec.to_string()),
        arrival: c.arrival.clone(),
        ..TenantScenario::default()
    };
    c.overlay.tenants.get_or_insert_with(Vec::new).push(tenant);
    Ok(())
}

/// `--arrival` also applies to the `--tenant` just before it, the
/// natural reading of `--tenant A --arrival X`.
fn arrival(c: &mut Cli, v: &str) -> Result<(), String> {
    parse_arrival(v)?;
    if let Some(last) = c.overlay.tenants.iter_mut().flatten().last() {
        last.arrival = Some(v.to_string());
    }
    c.arrival = Some(v.to_string());
    Ok(())
}

fn autoscale(c: &mut Cli, v: &str) -> Result<(), String> {
    let (min, max) = match v.split_once(':') {
        Some((min, max)) => (min, Some(max)),
        None => (v, None),
    };
    let a = c.autoscale_mut();
    a.min_replicas = Some(value(min).map_err(|e| format!("MIN: {e}"))?);
    a.max_replicas = max
        .map(positive)
        .transpose()
        .map_err(|e| format!("MAX: {e}"))?;
    Ok(())
}

const ALL: &[Tool] = &[T, S, F];
const SERVING: &[Tool] = &[S, F];
const CLOSED_AND_SERVE: &[Tool] = &[T, S];

/// The flag table of the three tools. The fleet crate adds `--router`
/// and `--network`.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    Flag::new("--model", &[T], Req("NAME"), "zoo model (resnet50, fcn_resnet50, yolov8n, resnet18, resnet34, \
        resnet101, mobilenet_v2) or path/to/model.json", |c, v| set(&mut c.engine_mut().model, v)),
    Flag::new("--onnx", &[T], Req("NAME"), "same as --model", |c, v| set(&mut c.engine_mut().model, v)),
    Flag::new("--int8", &[T], Switch, "int8 engine", |c, _| set(&mut c.engine_mut().precision, "int8")),
    Flag::new("--fp16", &[T], Switch, "fp16 engine", |c, _| set(&mut c.engine_mut().precision, "fp16")),
    Flag::new("--tf32", &[T], Switch, "tf32 engine", |c, _| set(&mut c.engine_mut().precision, "tf32")),
    Flag::new("--fp32", &[T], Switch, "fp32 engine (the default)", |c, _| set(&mut c.engine_mut().precision, "fp32")),
    Flag::new("--batch", &[T], Req("N"), "images per inference (default 1)", |c, v| set(&mut c.engine_mut().batch, v)),
    Flag::new("--processes", &[T], Req("N"), "concurrent processes (default 1)", |c, v| set(&mut c.engine_mut().processes, v)),
    Flag::new("--streams", &[T], Req("N"), "streams per process, at least 1 (default 1)",
        |c, v| { c.engine_mut().streams = Some(positive(v)?); Ok(()) }),
    Flag::new("--tenant", ALL, Req("SPEC"), "repeatable; model:precision:batch[:count[:priority]] or key=value form \
        model=..,precision=..,batch=..[,count=..][,priority=..][,sm_share=..]; batch, count >= 1", tenant),
    Flag::new("--arrival", SERVING, Req("PROCESS"), "poisson:RATE or mmpp:CALM:BURST:CALM_MS:BURST_MS for the --tenant \
        before it and those after, alone for every tenant; fleet-wide per class (default poisson:100)", arrival),
    Flag::new("--scenario", ALL, Req("FILE"), "TOML/JSON scenario the flags override", |c, v| set(&mut c.scenario_file, v)),
    Flag::new("--dump-scenario", SERVING, Switch, "print the merged scenario (TOML) and exit",
        |c, _| { c.dump_scenario = true; Ok(()) }),
    Flag::new("--device", ALL, Req("NAME"), "orin-nano, jetson-nano or cloud-a40 (default orin-nano)",
        |c, v| set(&mut c.overlay.device, v)),
    Flag::new("--seed", ALL, Req("N"), "RNG seed; the same seed gives the same bytes", |c, v| set(&mut c.overlay.seed, v)),
    Flag::new("--duration", ALL, Req("DUR"), "measured window: us, ms or s, bare seconds (default 2s for \
        jetsim-trtexec, else 3s)", |c, v| duration(&mut c.overlay.duration, v)),
    Flag::new("--warmup", SERVING, Req("DUR"), "excluded from the report (default 500ms)", |c, v| duration(&mut c.overlay.warmup, v)),
    Flag::new("--slo", SERVING, Req("DUR"), "latency SLO (default 50ms)", |c, v| duration(&mut c.overlay.slo, v)),
    Flag::new("--gpu-policy", CLOSED_AND_SERVE, Req("POLICY"), "rr (default), fifo, priority[:PENALTY_US] or \
        mps[:OVERLAP]; priorities from --tenant", |c, v| { value::<GpuPolicy>(v)?; set(&mut c.overlay.gpu_policy, v) }),
    Flag::new("--faults", CLOSED_AND_SERVE, Opt("SEED", ""), "2 memory spikes, 1 throttle lock, OOM killer; SEED \
        defaults to the run's", |c, v| match v {
            "" => { c.faults_default_seed = true; Ok(()) }
            _ => set(&mut c.overlay.fault_seed, v),
        }),
    Flag::new("--max-delay", &[S], Req("DUR"), "batching deadline (default 5ms)", |c, v| duration(&mut c.overlay.max_delay, v)),
    Flag::new("--queue-cap", &[S], Req("N"), "admission-queue capacity, at least 1 (default 64)",
        |c, v| { c.overlay.queue_cap = Some(positive(v)?); Ok(()) }),
    Flag::new("--admission", &[S], Req("POLICY"), "reject (default), shed or degrade",
        |c, v| one_of(&mut c.overlay.admission, v, &["reject", "shed", "degrade"])),
    Flag::new("--deadline", &[S], Req("DUR"), "fail requests still queued after DUR", |c, v| duration(&mut c.overlay.deadline, v)),
    Flag::new("--retry", &[S], Opt("N", "3"), "retry failed requests, N attempts in all", |c, v| set(&mut c.overlay.retry, v)),
    Flag::new("--hedge", &[S], Opt("DUR|auto", "auto"), "duplicate requests slower than DUR or the rolling p95",
        |c, v| { if v != "auto" { parse_duration(v)?; } set(&mut c.overlay.hedge, v) }),
    Flag::new("--breaker", &[S], Opt("shed|brownout", "shed"), "circuit-break on the rolling error rate",
        |c, v| one_of(&mut c.overlay.breaker, v, &["shed", "brownout"])),
    Flag::new("--recovery", &[S], Opt("N", "2"), "restart OOM-killed replicas up to N times", |c, v| set(&mut c.overlay.recovery, v)),
    Flag::new("--autoscale", &[S], Req("MIN[:MAX]"), "replicas per tenant: MIN (0 scales to zero) to MAX (>= 1; \
        default the tenant's count)", autoscale),
    Flag::new("--target-queue", &[S], Req("N"), "queued requests per replica that scale up (default 4)",
        |c, v| set(&mut c.autoscale_mut().target_queue, v)),
    Flag::new("--keep-alive", &[S], Req("DUR"), "idle time before a replica above MIN is reaped (default 200ms)",
        |c, v| duration(&mut c.autoscale_mut().keep_alive, v)),
    Flag::new("--scale-every", &[S], Req("DUR"), "autoscaler period (default 20ms)",
        |c, v| duration(&mut c.autoscale_mut().evaluate_every, v)),
    Flag::new("--scale-slo-burn", &[S], Switch, "also scale up on SLO burn",
        |c, _| set(&mut c.autoscale_mut().slo_burn, "true")),
    Flag::new("--scale-cost", &[S], Req("DUR|auto"), "replica start cost (default auto: from the engine cache)",
        |c, v| { if v != "auto" { parse_duration(v)?; } set(&mut c.autoscale_mut().start_cost, v) }),
    Flag::new("--find-max-qps", &[S], Opt("TARGET", "0.95"), "find the highest load at which tenant 0 meets its \
        SLO at rate TARGET", |c, v| set(&mut c.find_max_qps, v)),
    Flag::new("--sites", &[F], Req("N"), "edge sites, one device sim each (default 4)", |c, v| set(&mut c.fleet_mut().sites, v)),
    Flag::new("--cloud", &[F], Opt("true|false", "true"), "a cloud tier behind extra RTT", |c, v| set(&mut c.fleet_mut().cloud, v)),
    Flag::new("--cloud-device", &[F], Req("NAME"), "cloud tier device (default cloud-a40)",
        |c, v| set(&mut c.fleet_mut().cloud_device, v)),
    Flag::new("--telemetry-every", &[F], Req("DUR"), "router snapshot period (default 100ms)",
        |c, v| duration(&mut c.fleet_mut().telemetry_every, v)),
    Flag::new("--workers", &[F], Req("N"), "site threads, at least 1; any count gives the same bytes",
        |c, v| { c.workers = Some(positive(v)?); Ok(()) }),
    Flag::new("--nsight", &[T], Switch, "add the Nsight Systems kernel report", |c, _| { c.nsight = true; Ok(()) }),
    Flag::new("--chrome-trace", &[T], Req("FILE"), "write a Chrome/Perfetto timeline", |c, v| set(&mut c.chrome_trace, v)),
    Flag::new("--json", SERVING, Switch, "emit the report as JSON", |c, _| { c.json = true; Ok(()) }),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Vec<String> {
        argv.iter().map(|s| s.to_string()).collect()
    }

    fn try_parse(tool: Tool, argv: &[&str]) -> Result<Cli, String> {
        parse(tool, &[], args(argv))
    }

    /// A scenario file in the temp dir, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(name: &str, body: &str) -> TempFile {
            let path =
                std::env::temp_dir().join(format!("jetsim_cli_{}_{name}", std::process::id()));
            std::fs::write(&path, body).unwrap();
            TempFile(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn help_names_every_row_of_the_tool_and_other_rows_are_unknown() {
        for tool in [Tool::Trtexec, Tool::Serve, Tool::Fleet] {
            let help = try_parse(tool, &["--help"]).unwrap_err();
            assert!(help.starts_with("usage: "), "{help}");
            for flag in FLAGS {
                let listed = help.contains(&format!("\n  {} ", flag.name))
                    || help.contains(&format!("\n  {}[", flag.name));
                if flag.tools.contains(&tool) {
                    assert!(listed, "{tool:?} help misses {}", flag.name);
                } else {
                    assert!(!listed, "{tool:?} help lists {}", flag.name);
                    let err = try_parse(tool, &[flag.name, "x"]).unwrap_err();
                    assert!(
                        err.starts_with(&format!("unknown flag `{}`", flag.name)),
                        "{tool:?} {}: {err}",
                        flag.name
                    );
                }
            }
        }
    }

    #[test]
    fn operands_take_both_spellings_and_optional_ones_only_equals() {
        let spaced = try_parse(Tool::Serve, &["--tenant", "resnet50:int8:1", "--seed", "7"]);
        let joined = try_parse(Tool::Serve, &["--tenant=resnet50:int8:1", "--seed=7"]);
        assert_eq!(spaced.unwrap().overlay, joined.unwrap().overlay);
        let err = try_parse(
            Tool::Serve,
            &["--tenant", "resnet50:int8:1", "--retry", "0"],
        );
        assert!(err.unwrap_err().starts_with("unknown flag `0`"));
        let err = try_parse(Tool::Serve, &["--tenant", "resnet50:int8:1", "--retry="]);
        assert_eq!(err.unwrap_err(), "bad --retry: empty value");
        let err = try_parse(Tool::Serve, &["--tenant", "resnet50:int8:1", "--seed"]);
        assert_eq!(err.unwrap_err(), "--seed needs a value");
        let err = try_parse(Tool::Serve, &["--seed", "--tenant", "resnet50:int8:1"]);
        assert_eq!(err.unwrap_err(), "--seed needs a value");
    }

    #[test]
    fn out_of_range_counts_name_the_flag() {
        for (tool, argv, message) in [
            (
                Tool::Trtexec,
                &["--model=resnet18", "--streams=0"][..],
                "bad --streams: must be at least 1",
            ),
            (
                Tool::Serve,
                &["--tenant=resnet50:int8:1", "--queue-cap=0"][..],
                "bad --queue-cap: must be at least 1",
            ),
            (
                Tool::Serve,
                &["--tenant=resnet50:int8:1", "--autoscale=1:0"][..],
                "bad --autoscale: MAX: must be at least 1",
            ),
            (
                Tool::Fleet,
                &["--tenant=resnet50:int8:1", "--workers=0"][..],
                "bad --workers: must be at least 1",
            ),
        ] {
            assert_eq!(try_parse(tool, argv).unwrap_err(), message);
        }
        // MIN may be 0: scale to zero.
        let cli = try_parse(
            Tool::Serve,
            &["--tenant=resnet50:int8:1", "--autoscale=0:2"],
        )
        .unwrap();
        let autoscale = cli.overlay.autoscale.unwrap();
        assert_eq!(
            (autoscale.min_replicas, autoscale.max_replicas),
            (Some(0), Some(2))
        );
    }

    #[test]
    fn serve_flags_round_trip_through_dump_scenario() {
        let argv = [
            "--arrival",
            "poisson:80",
            "--tenant",
            "resnet50:int8:1:2",
            "--tenant",
            "model=yolov8n,precision=fp16,batch=2,sm_share=0.5",
            "--arrival",
            "mmpp:50:400:300:80",
            "--device",
            "jetson-nano",
            "--seed",
            "9",
            "--duration",
            "2s",
            "--warmup",
            "200ms",
            "--slo",
            "40ms",
            "--gpu-policy",
            "priority:40",
            "--faults",
            "--max-delay",
            "2ms",
            "--queue-cap",
            "16",
            "--admission",
            "shed",
            "--deadline",
            "80ms",
            "--retry",
            "--hedge=10ms",
            "--breaker=brownout",
            "--recovery=1",
            "--autoscale",
            "0:3",
            "--target-queue",
            "2.5",
            "--keep-alive",
            "100ms",
            "--scale-every",
            "10ms",
            "--scale-slo-burn",
            "--scale-cost",
            "auto",
        ];
        let flags = try_parse(Tool::Serve, &argv).unwrap().scenario().unwrap();
        let tenants = flags.tenants.as_ref().unwrap();
        assert_eq!(tenants[0].arrival.as_deref(), Some("poisson:80"));
        assert_eq!(
            tenants[1].arrival.as_deref(),
            Some("mmpp:50:400:300:80"),
            "a trailing --arrival applies to the last tenant"
        );
        assert_eq!(flags.fault_seed, Some(9), "--faults takes the run's seed");

        let file = TempFile::new("serve.toml", &flags.to_toml());
        let replay = try_parse(Tool::Serve, &["--scenario", file.path()])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(replay, flags);
        assert_eq!(replay.to_toml(), flags.to_toml());
    }

    #[test]
    fn bare_arrival_and_unseeded_faults_resolve_against_the_scenario() {
        let file = TempFile::new(
            "base.toml",
            "seed = 5\n\n[[tenants]]\nspec = \"resnet50:int8:1\"\narrival = \"poisson:10\"\n",
        );
        let sc = try_parse(
            Tool::Serve,
            &[
                "--scenario",
                file.path(),
                "--arrival",
                "poisson:99",
                "--faults",
            ],
        )
        .unwrap()
        .scenario()
        .unwrap();
        assert_eq!(
            sc.tenants.unwrap()[0].arrival.as_deref(),
            Some("poisson:99")
        );
        assert_eq!(sc.fault_seed, Some(5));
        let sc = try_parse(Tool::Serve, &["--tenant", "resnet50:int8:1", "--faults"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(sc.fault_seed, Some(DEFAULT_SEED));
    }

    #[test]
    fn trtexec_workload_flags_against_a_scenario() {
        let file = TempFile::new(
            "trt.toml",
            "device = \"jetson-nano\"\nseed = 3\n\n[[tenants]]\nspec = \"resnet50:int8:1:2\"\n",
        );
        let specs = |sc: &ScenarioSpec| -> Vec<String> {
            sc.tenants
                .iter()
                .flatten()
                .filter_map(|t| t.spec.clone())
                .collect()
        };

        let cli = try_parse(
            Tool::Trtexec,
            &["--scenario", file.path(), "--tenant=yolov8n:fp16:4"],
        )
        .unwrap();
        let sc = cli.scenario().unwrap();
        assert_eq!(
            specs(&sc),
            ["yolov8n:fp16:4"],
            "--tenant replaces the scenario's tenants"
        );
        assert_eq!(sc.device.as_deref(), Some("jetson-nano"));

        let cli = try_parse(
            Tool::Trtexec,
            &["--scenario", file.path(), "--model=resnet18", "--int8"],
        )
        .unwrap();
        let sc = cli.scenario().unwrap();
        assert!(specs(&sc).is_empty(), "--model swaps the workload");
        assert_eq!(
            (sc.device.as_deref(), sc.seed),
            (Some("jetson-nano"), Some(3)),
            "and keeps the rest"
        );
        let engine = cli.engine.unwrap();
        assert_eq!(
            (engine.model.as_deref(), engine.precision),
            (Some("resnet18"), Some(Precision::Int8))
        );

        let err = try_parse(
            Tool::Trtexec,
            &["--tenant=resnet50:int8:1", "--model=resnet50"],
        )
        .unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
        let err = try_parse(Tool::Trtexec, &[]).unwrap_err();
        assert!(
            err.starts_with("--model, --tenant or --scenario is required\nusage: "),
            "{err}"
        );
    }

    #[test]
    fn trtexec_duration_takes_the_shared_grammar() {
        for duration in ["2", "2s", "2000ms"] {
            let cli = try_parse(
                Tool::Trtexec,
                &["--model=resnet18", &format!("--duration={duration}")],
            )
            .unwrap();
            let sc = cli.scenario().unwrap();
            assert_eq!(
                parse_duration(sc.duration.as_deref().unwrap()),
                Ok(jetsim_des::SimDuration::from_secs(2))
            );
        }
        assert!(try_parse(Tool::Trtexec, &["--model=resnet18", "--duration=fast"]).is_err());
    }
}
