//! A `trtexec`-style command-line front-end for the simulator: the
//! paper's flags in, a trtexec-like performance summary plus the
//! `jetson-stats` view out.
//!
//! ```sh
//! jetsim-trtexec --model=resnet50 --int8 --batch=8 --processes=2 --duration=2s
//! jetsim-trtexec --tenant=resnet50:int8:1:2 --tenant=yolov8n:fp16:4 --duration=500ms
//! ```
//!
//! The flags come from the table in [`jetsim::cli`]; `--help` lists them.
//! A `--scenario` file supplies its closed-loop subset (device, seed,
//! duration, GPU policy, fault seed, tenants); flags override it, and
//! `--model` swaps out its tenants.

use std::process::ExitCode;

use jetsim::cli::{self, Cli, Tool};
use jetsim::deployment::Tenant;
use jetsim::prelude::*;
use jetsim::scenario::{parse_duration, ScenarioSpec};
use jetsim_des::DEFAULT_SEED;
use jetsim_profile::chrome_trace;
use jetsim_sim::{FaultKind, FaultPlan, GpuPolicy};

fn run(cli: &Cli, sc: ScenarioSpec) -> Result<(), String> {
    let device = sc.device.as_deref().unwrap_or("orin-nano");
    let platform = Platform::by_name(device).ok_or_else(|| format!("unknown device `{device}`"))?;
    let seed = sc.seed.unwrap_or(DEFAULT_SEED);
    let gpu_policy = match &sc.gpu_policy {
        Some(policy) => policy
            .parse()
            .map_err(|e| format!("bad gpu_policy `{policy}`: {e}"))?,
        None => GpuPolicy::TimesliceRR,
    };
    let deployment = if cli.engine.is_some() {
        None
    } else {
        let mut d = Deployment::new();
        for spec in sc
            .tenants
            .iter()
            .flatten()
            .filter_map(|t| t.spec.as_deref())
        {
            d = d.tenant(Tenant::parse(spec).map_err(|e| e.to_string())?);
        }
        if d.is_empty() {
            return Err("--model, --tenant or --scenario is required".to_string());
        }
        Some(d)
    };

    let warmup = SimDuration::from_millis(500);
    let measure = parse_duration(sc.duration.as_deref().unwrap_or("2"))?;
    let mut builder = SimConfig::builder(platform.device().clone())
        .warmup(warmup)
        .measure(measure)
        .seed(seed)
        .gpu_policy(gpu_policy)
        .profiler(if cli.nsight {
            ProfilerMode::Nsight
        } else {
            ProfilerMode::Lightweight
        });

    if let Some(d) = &deployment {
        println!("=== Deployment ===");
        println!(
            "{} tenant(s), {} process(es): {}",
            d.len(),
            d.total_processes(),
            d.label()
        );
        for tenant in d.tenants() {
            let engine = platform
                .build_engine(tenant.model(), tenant.precision(), tenant.batch())
                .map_err(|e| e.to_string())?;
            println!(
                "  {} x{}: {} | {} kernels | engine {:.1} MiB + workspace {:.1} MiB",
                tenant.label(),
                tenant.instances(),
                tenant.model().stats(),
                engine.kernel_count(),
                engine.engine_bytes() as f64 / (1024.0 * 1024.0),
                engine.workspace_bytes() as f64 / (1024.0 * 1024.0),
            );
        }
        builder = d
            .add_to_config(&platform, builder)
            .map_err(|e| e.to_string())?;
    } else if let Some(flags) = &cli.engine {
        let name = flags
            .model
            .as_deref()
            .ok_or("--model, --tenant or --scenario is required")?;
        let precision = flags.precision.unwrap_or(Precision::Fp32);
        let batch = flags.batch.unwrap_or(1);
        let model = if name.ends_with(".json") {
            jetsim::plan::load_model(name)
                .map_err(|e| format!("cannot load model file `{name}`: {e}"))?
        } else {
            zoo::by_name(name).ok_or_else(|| format!("unknown model `{name}`"))?
        };
        let cache = jetsim_trt::EngineCache::global();
        let misses_before = cache.stats().misses;
        let build_start = std::time::Instant::now();
        let engine = platform
            .build_engine(&model, precision, batch)
            .map_err(|e| e.to_string())?;
        let build_secs = build_start.elapsed().as_secs_f64();
        let cache_state = if cache.stats().misses > misses_before {
            "compiled"
        } else {
            "cache hit"
        };

        println!("=== Model Options ===");
        println!("Model: {} ({})", model.name(), model.stats());
        println!("=== Build Options ===");
        println!(
            "Precision: {} (engine runs {:.0}% of FLOPs at the requested format)",
            precision,
            engine.requested_precision_flop_fraction() * 100.0
        );
        println!(
            "Batch: {batch} | Kernels after fusion: {}",
            engine.kernel_count()
        );
        println!(
            "Engine size: {:.1} MiB | workspace {:.1} MiB",
            engine.engine_bytes() as f64 / (1024.0 * 1024.0),
            engine.workspace_bytes() as f64 / (1024.0 * 1024.0),
        );
        println!(
            "Engine build: {:.1} ms ({cache_state}; {} engine(s) cached this process)",
            build_secs * 1e3,
            cache.len()
        );
        let streams = flags.streams.unwrap_or(1);
        for _ in 0..flags.processes.unwrap_or(1) {
            builder = builder.add_engine_streams(&engine, streams);
        }
    }
    println!("=== Device ===");
    println!("{platform}");
    if gpu_policy != GpuPolicy::TimesliceRR {
        println!("GPU scheduling policy: {gpu_policy}");
    }

    if let Some(fault_seed) = sc.fault_seed {
        let horizon = SimDuration::from_secs_f64(warmup.as_secs_f64() + measure.as_secs_f64());
        let plan = FaultPlan::seeded(fault_seed, horizon, 2, 1)
            .oom_policy(jetsim_sim::OomPolicy::KillLargest);
        println!("=== Fault Plan (seed {fault_seed}) ===");
        println!(
            "{} memory spike(s), {} throttle lock(s), OOM policy: kill-largest",
            plan.memory_spikes.len(),
            plan.throttle_locks.len()
        );
        builder = builder.faults(plan);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let trace = Simulation::new(config).map_err(|e| e.to_string())?.run();

    println!("\n=== Performance Summary ===");
    println!(
        "Throughput: {:.2} qps (total), {:.2} qps/process",
        trace.total_throughput(),
        trace.throughput_per_process()
    );
    for p in &trace.processes {
        println!(
            "{}: EC mean {} | median {} | p95 {} | p99 {} (launch {}, sync {}, blocking {})",
            p.name,
            p.mean_ec_time,
            p.p50_ec_time,
            p.p95_ec_time,
            p.p99_ec_time,
            p.mean_launch_time,
            p.mean_sync_time,
            p.mean_blocking_time,
        );
    }
    if !trace.preemptions.is_empty() {
        println!("Kernel preemptions: {}", trace.preemptions.len());
    }
    println!("\n=== jetson-stats ===");
    println!("{}", jetsim_profile::JetsonStatsReport::from_trace(&trace));

    if let Some(d) = &deployment {
        println!("\n=== Per-Tenant Summary ===");
        for tenant in TenantMetrics::from_trace(&trace, d) {
            println!("{tenant}");
        }
    }

    if sc.fault_seed.is_some() {
        println!("\n=== Fault Events ===");
        if trace.fault_events.is_empty() {
            println!("(none fired inside the simulated window)");
        }
        for event in &trace.fault_events {
            let t_ms = event.time.as_micros_f64() / 1e3;
            match &event.kind {
                FaultKind::MemorySpikeStart { bytes } => println!(
                    "[{t_ms:9.3} ms] memory spike +{:.0} MiB",
                    *bytes as f64 / (1024.0 * 1024.0)
                ),
                FaultKind::MemorySpikeEnd { bytes } => println!(
                    "[{t_ms:9.3} ms] memory spike released -{:.0} MiB",
                    *bytes as f64 / (1024.0 * 1024.0)
                ),
                FaultKind::ThrottleLockStart { step, mhz } => {
                    println!("[{t_ms:9.3} ms] throttle lock: GPU pinned to step {step} ({mhz} MHz)")
                }
                FaultKind::ThrottleLockEnd => {
                    println!("[{t_ms:9.3} ms] throttle lock released; governor resumes")
                }
                FaultKind::ProcessKilled {
                    pid,
                    name,
                    freed_bytes,
                } => println!(
                    "[{t_ms:9.3} ms] OOM killer: {name} (pid {pid}) killed, {:.0} MiB freed",
                    *freed_bytes as f64 / (1024.0 * 1024.0)
                ),
                _ => println!("[{t_ms:9.3} ms] fault: {:?}", event.kind),
            }
        }
        if trace.killed_processes() > 0 {
            println!(
                "{} of {} processes killed; surviving throughput {:.2} qps",
                trace.killed_processes(),
                trace.processes.len(),
                trace.surviving_throughput()
            );
        }
    }

    if cli.nsight {
        if let Some(report) = NsightReport::from_trace(&trace) {
            println!("\n=== Nsight Systems ===");
            println!("{report}");
        }
    }

    if let Some(path) = &cli.chrome_trace {
        std::fs::write(path, chrome_trace::to_chrome_trace(&trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nchrome trace written to {path} (open in ui.perfetto.dev)");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main(Tool::Trtexec, &[], run)
}
