//! `sweep`: the paper's closed-loop concurrency grids on both boards at
//! the figures' windows, plus the dual-phase profiler on the anchor
//! cells.
//!
//! One pass is the twelve `SweepSpec::run` grids behind figures 3–12
//! (Orin int8 and Nano fp16 batch × process grids per model, and each
//! board's precision sweep) and `DualPhaseProfiler::run` on the eleven
//! anchor cells. Loads engine builds, the GPU and scheduler components
//! and the profile reports; ingress, `serve` and `fleet` do no work.

use std::sync::Arc;

use jetsim::prelude::*;
use jetsim::{BottleneckReport, CellMetrics, CellOutcome, TenantMetrics};
use jetsim_sim::{ArrivalModel, GpuPolicy, ProcessStats, SimError};

use crate::anchors::{self, AnchorCell};
use crate::common::{
    add, count_trace, digest_json, fnv1a, par_map, program_seed, splitmix64, Counters, WORKERS,
};
use crate::trace::{SpanId, Tracer};
use crate::workload::{spanned, OpResult, TraceAt, Workload};

const WARMUP_MS: u64 = 300;
const MEASURE_MS: u64 = 1500;

/// One `SweepSpec::run` call.
#[derive(Debug, Clone)]
pub struct Grid {
    pub platform: Platform,
    pub model: ModelGraph,
    pub precisions: Vec<Precision>,
    pub batches: Vec<u32>,
    pub procs: Vec<u32>,
}

impl Grid {
    fn spec(&self, seed: u64) -> SweepSpec {
        SweepSpec::new()
            .warmup(SimDuration::from_millis(WARMUP_MS))
            .measure(SimDuration::from_millis(MEASURE_MS))
            .seed(seed)
            .precisions(self.precisions.iter().copied())
            .batches(self.batches.iter().copied())
            .process_counts(self.procs.iter().copied())
            .workers(WORKERS)
    }

    /// The grid's cells in `SweepSpec` order.
    fn cells(&self) -> Vec<(Precision, u32, u32)> {
        let mut cells = Vec::new();
        for &p in &self.precisions {
            for &b in &self.batches {
                for &n in &self.procs {
                    cells.push((p, b, n));
                }
            }
        }
        cells
    }
}

/// The figures' grids: per model, the Orin int8 and Nano fp16
/// concurrency grids, then each board's precision sweep at b1 × 1.
pub fn paper_grids() -> Vec<Grid> {
    let orin = Platform::orin_nano();
    let nano = Platform::jetson_nano();
    let mut grids = Vec::new();
    for model in zoo::all() {
        let procs = if model.name() == "yolov8n" {
            vec![1, 2, 4, 8, 16]
        } else {
            vec![1, 2, 4, 8]
        };
        grids.push(Grid {
            platform: orin.clone(),
            model: model.clone(),
            precisions: vec![Precision::Int8],
            batches: vec![1, 2, 4, 8, 16],
            procs,
        });
        grids.push(Grid {
            platform: nano.clone(),
            model,
            precisions: vec![Precision::Fp16],
            batches: vec![1, 2, 4, 8],
            procs: vec![1, 2, 4, 8],
        });
    }
    for platform in [&orin, &nano] {
        for model in zoo::all() {
            grids.push(Grid {
                platform: platform.clone(),
                model,
                precisions: Precision::ALL.to_vec(),
                batches: vec![1],
                procs: vec![1],
            });
        }
    }
    grids
}

pub struct Sweep {
    /// The program seed every grid derives its cell seeds from.
    seed: u64,
    grids: Vec<Grid>,
    anchors: Vec<AnchorCell>,
}

impl Workload for Sweep {
    fn setup(seed: u64, at: TraceAt<'_>) -> Self {
        let grids = paper_grids();
        let anchors = anchors::cells();
        let mut engines = Vec::new();
        for grid in &grids {
            for (precision, batch, _) in grid.cells() {
                engines.push((&grid.platform, &grid.model, precision, batch));
            }
        }
        for cell in &anchors {
            engines.push((&cell.platform, &cell.model, cell.precision, cell.batch));
        }
        for (platform, model, precision, batch) in engines {
            // A failed build is reported by the cell that needs it.
            let _ = spanned(at, "trt.build_engine", |_| {
                platform.build_engine(model, precision, batch)
            });
        }
        Sweep {
            seed: program_seed(seed),
            grids,
            anchors,
        }
    }

    fn kinds(&self) -> usize {
        self.grids.len() + self.anchors.len()
    }

    fn run(&self, kind: usize) -> OpResult {
        match kind.checked_sub(self.grids.len()) {
            None => {
                let grid = &self.grids[kind];
                grid_result(&grid.spec(self.seed).run(&grid.platform, &grid.model))
            }
            Some(i) => {
                let profile = self.anchors[i].profiler().and_then(|p| p.run());
                profile_result(
                    profile
                        .as_ref()
                        .map(|p| (p, p.analyze()))
                        .map_err(|e| e.to_string()),
                )
            }
        }
    }

    fn run_traced(
        &self,
        kind: usize,
        tracer: &Tracer,
        parent: SpanId,
        counters: &mut Counters,
    ) -> u64 {
        match kind.checked_sub(self.grids.len()) {
            None => {
                let grid = &self.grids[kind];
                let traced = par_map(&grid.cells(), WORKERS, |&(precision, batch, procs)| {
                    let mut local = Counters::new();
                    let cell = traced_cell(
                        self.seed, grid, precision, batch, procs, tracer, parent, &mut local,
                    );
                    (cell, local)
                });
                let mut cells = Vec::with_capacity(traced.len());
                for (cell, local) in traced {
                    cells.push(cell);
                    for (name, value) in local {
                        add(counters, name, value);
                    }
                }
                cells.sort_by_key(|c| (c.precision, c.batch, c.processes));
                digest_json(&cells)
            }
            Some(i) => {
                let profile = traced_profile(&self.anchors[i], tracer, parent, counters);
                profile_result(
                    profile
                        .as_ref()
                        .map(|(p, a)| (p, a.clone()))
                        .map_err(Clone::clone),
                )
                .parity
            }
        }
    }
}

fn grid_result(cells: &[SweepCell]) -> OpResult {
    let measure = SimDuration::from_millis(MEASURE_MS).as_secs_f64();
    let mut problems = Vec::new();
    let mut inferences = 0.0;
    let mut throughputs = Vec::new();
    for cell in cells {
        match &cell.outcome {
            CellOutcome::Ok(m) => {
                inferences += m.throughput * measure;
                throughputs.push(m.throughput);
            }
            // Over-deployed cells are the paper's expected outcome.
            CellOutcome::OutOfMemory { .. } => {}
            other => problems.push(format!("{cell}: {other:?}")),
        }
    }
    let digest = digest_json(cells);
    let mean = throughputs.iter().sum::<f64>() / throughputs.len().max(1) as f64;
    OpResult {
        digest,
        parity: digest,
        units: cells.len() as u64,
        requests: inferences.round() as u64,
        problems,
        headline: match cells.first() {
            Some(c) => format!(
                "{} {} grid: {} cells, {} ok, mean throughput {mean:.3} img/s",
                c.device,
                c.model,
                cells.len(),
                throughputs.len()
            ),
            None => "empty grid".to_string(),
        },
    }
}

fn profile_result(profile: Result<(&WorkloadProfile, BottleneckReport), String>) -> OpResult {
    match profile {
        Ok((p, analysis)) => {
            let text = format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                p.soc, p.kernel, p.tenants, p.intrusion, analysis
            );
            let digest = fnv1a(text.as_bytes());
            let measure = SimDuration::from_millis(MEASURE_MS).as_secs_f64();
            OpResult {
                digest,
                parity: digest,
                units: 1,
                requests: (p.soc.throughput * measure).round() as u64,
                problems: Vec::new(),
                headline: format!(
                    "{} × {} profile: throughput {:.3} img/s, intrusion {:.3}, {:?}",
                    p.device_name, p.processes, p.soc.throughput, p.intrusion, analysis.primary
                ),
            }
        }
        Err(e) => OpResult {
            digest: fnv1a(e.as_bytes()),
            parity: fnv1a(e.as_bytes()),
            units: 1,
            problems: vec![e],
            ..OpResult::default()
        },
    }
}

/// The per-cell seed `SweepSpec` derives: a splitmix64 fold over the
/// tenant's precision, batch and instance count.
fn cell_seed(seed: u64, precision: Precision, batch: u32, procs: u32) -> u64 {
    splitmix64(
        seed ^ ((precision as u64) << 40) ^ (u64::from(batch) << 8) ^ (u64::from(procs) << 20),
    )
}

fn mean_ms(trace: &RunTrace, f: fn(&ProcessStats) -> SimDuration) -> f64 {
    if trace.processes.is_empty() {
        return 0.0;
    }
    trace
        .processes
        .iter()
        .map(|p| f(p).as_millis_f64())
        .sum::<f64>()
        / trace.processes.len() as f64
}

/// One grid cell through its constituent calls: engine, config,
/// simulation, phase-1 report and tenant breakdown.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    seed: u64,
    grid: &Grid,
    precision: Precision,
    batch: u32,
    procs: u32,
    tracer: &Tracer,
    parent: SpanId,
    counters: &mut Counters,
) -> SweepCell {
    let at = Some((tracer, parent));
    let deployment = Deployment::homogeneous(&grid.model, precision, batch, procs);
    let outcome = (|| {
        let engine = match spanned(at, "trt.build_engine", |_| {
            grid.platform.build_engine(&grid.model, precision, batch)
        }) {
            Ok(engine) => engine,
            Err(e) => return CellOutcome::BuildFailed(e.to_string()),
        };
        let config = spanned(at, "sim.config", |_| {
            let tenant = &deployment.tenants()[0];
            let label = tenant.label();
            let mut builder = SimConfig::builder(grid.platform.device().clone())
                .warmup(SimDuration::from_millis(WARMUP_MS))
                .measure(SimDuration::from_millis(MEASURE_MS))
                .seed(cell_seed(seed, precision, batch, procs))
                .gpu_policy(GpuPolicy::TimesliceRR)
                .record_kernel_events(false)
                .profiler(ProfilerMode::Lightweight);
            for instance in 0..tenant.instances() {
                builder = builder
                    .add_engine_named_with_arrivals(
                        format!("{label}/{instance}"),
                        Arc::clone(&engine),
                        ArrivalModel::Saturated,
                    )
                    .process_priority(tenant.gpu_priority())
                    .process_sm_share(tenant.gpu_sm_share());
            }
            builder.build()
        });
        let config = match config {
            Ok(config) => config,
            Err(SimError::OutOfMemory {
                required_bytes,
                usable_bytes,
            }) => {
                return CellOutcome::OutOfMemory {
                    required_mib: required_bytes / (1024 * 1024),
                    usable_mib: usable_bytes / (1024 * 1024),
                }
            }
            Err(e) => return CellOutcome::SimFailed(e.to_string()),
        };
        let sim = spanned(at, "sim.new", |_| Simulation::new(config)).expect("validated config");
        let trace = spanned(at, "sim.run", |_| sim.run());
        count_trace(&trace, counters);
        let report = spanned(at, "profile.jetson_stats", |_| {
            JetsonStatsReport::from_trace(&trace)
        });
        let tenants = spanned(at, "core.tenant_metrics", |_| {
            TenantMetrics::from_trace(&trace, &deployment)
        });
        CellOutcome::Ok(CellMetrics {
            throughput: report.throughput,
            throughput_per_process: report.throughput_per_process,
            mean_power_w: report.mean_power_w,
            gpu_memory_percent: report.gpu_memory_percent,
            gpu_utilization_percent: report.gpu_utilization_percent,
            power_per_image: report.power_per_image,
            mean_ec_ms: trace.mean_ec_time().as_millis_f64(),
            mean_launch_ms: mean_ms(&trace, |p| p.mean_launch_time),
            mean_blocking_ms: mean_ms(&trace, |p| p.mean_blocking_time),
            mean_sync_ms: mean_ms(&trace, |p| p.mean_sync_time),
            final_gpu_freq_mhz: report.final_gpu_freq_mhz,
            tenants,
        })
    })();
    SweepCell {
        model: grid.model.name().to_string(),
        device: grid.platform.name().to_string(),
        precision,
        batch,
        processes: procs,
        offered_load: None,
        gpu_policy: GpuPolicy::TimesliceRR.to_string(),
        outcome,
    }
}

/// `DualPhaseProfiler::run` through its constituent calls: both phases'
/// configs and simulations, the jetson-stats and Nsight reports, the
/// tenant breakdown and the bottleneck analysis.
fn traced_profile(
    cell: &AnchorCell,
    tracer: &Tracer,
    parent: SpanId,
    counters: &mut Counters,
) -> Result<(WorkloadProfile, BottleneckReport), String> {
    let at = Some((tracer, parent));
    let deployment = cell.deployment();
    // `DualPhaseProfiler::deployment` builds the tenants' engines eagerly.
    spanned(at, "trt.build_engine", |_| cell.profiler()).map_err(|e| e.to_string())?;
    let phase = |mode: ProfilerMode, counters: &mut Counters| -> Result<RunTrace, String> {
        let config = spanned(at, "sim.config", |_| {
            let builder = SimConfig::builder(cell.platform.device().clone())
                .warmup(SimDuration::from_millis(WARMUP_MS))
                .measure(SimDuration::from_millis(MEASURE_MS))
                .seed(program_seed(0))
                .profiler(mode);
            deployment
                .add_to_config(&cell.platform, builder)
                .map_err(|e| e.to_string())?
                .build()
                .map_err(|e| e.to_string())
        })?;
        let sim = spanned(at, "sim.new", |_| Simulation::new(config)).map_err(|e| e.to_string())?;
        let trace = spanned(at, "sim.run", |_| sim.run());
        count_trace(&trace, counters);
        Ok(trace)
    };
    let phase1 = phase(ProfilerMode::Lightweight, counters)?;
    let soc = spanned(at, "profile.jetson_stats", |_| {
        JetsonStatsReport::from_trace(&phase1)
    });
    let phase2 = phase(ProfilerMode::Nsight, counters)?;
    let kernel = spanned(at, "profile.nsight", |_| NsightReport::from_trace(&phase2))
        .ok_or("the measured window traced no kernel")?;
    let intrusion = if soc.throughput > 0.0 {
        1.0 - phase2.total_throughput() / soc.throughput
    } else {
        0.0
    };
    let tenants = spanned(at, "core.tenant_metrics", |_| {
        TenantMetrics::from_trace(&phase1, &deployment)
    });
    let profile = WorkloadProfile {
        device_name: cell.platform.name().to_string(),
        processes: deployment.total_processes(),
        tenants,
        soc,
        kernel,
        phase1_trace: phase1,
        phase2_trace: phase2,
        intrusion,
    };
    let analysis = spanned(at, "core.analysis", |_| {
        BottleneckReport::diagnose(&profile)
    });
    Ok((profile, analysis))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grids_cover_the_figures() {
        let grids = paper_grids();
        assert_eq!(grids.len(), 12);
        let cells: usize = grids.iter().map(|g| g.cells().len()).sum();
        // Orin int8: 5 batches × (4 + 4 + 5) process counts; Nano fp16:
        // 3 models × 4 × 4; precision sweeps: 2 boards × 3 models × 4.
        assert_eq!(cells, 65 + 48 + 24);
        assert_eq!(grids[0].spec(1).cells(), grids[0].cells().len());
    }

    #[test]
    fn cell_seed_matches_the_sweep_for_one_cell() {
        // The traced decomposition re-derives SweepSpec's per-cell seed;
        // a one-cell sweep run both ways must agree byte for byte.
        let grid = Grid {
            platform: Platform::orin_nano(),
            model: zoo::resnet50(),
            precisions: vec![Precision::Int8],
            batches: vec![2],
            procs: vec![2],
        };
        let seed = 99;
        let direct = grid.spec(seed).run(&grid.platform, &grid.model);
        let tracer = Tracer::new("sweep");
        let traced = tracer.span("bench.pass", None, |root| {
            traced_cell(
                seed,
                &grid,
                Precision::Int8,
                2,
                2,
                &tracer,
                root,
                &mut Counters::new(),
            )
        });
        assert_eq!(digest_json(&direct), digest_json(&[traced]));
    }
}
