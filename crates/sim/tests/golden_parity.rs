//! Golden-trace parity suite for the component refactor.
//!
//! ISSUE 3 requires the `Runner` decomposition to be *bit-identical*:
//! the same seed must produce the same [`RunTrace`] — every event time,
//! every float, every fault record — before and after the split. This
//! suite pins a grid of seeds × process counts × precisions × devices
//! (plus cells that exercise the run-queue scheduler, MPS packing,
//! open-loop arrivals, Nsight instrumentation, and fault injection,
//! since each walks a distinct RNG path) and asserts an FNV-1a hash of
//! the full trace against values captured on the pre-refactor tree.
//!
//! To re-capture (only legitimate when the simulation *model* changes,
//! never for a pure refactor):
//!
//! ```text
//! JETSIM_GOLDEN_CAPTURE=1 cargo test -p jetsim-sim --test golden_parity -- --nocapture
//! ```

use jetsim_des::{SimDuration, SimTime};
use jetsim_device::presets;
use jetsim_dnn::{zoo, Precision};
use jetsim_sim::{
    ArrivalModel, CpuModel, FaultKind, FaultPlan, GpuSharing, ProfilerMode, RunTrace, SimConfig,
    Simulation,
};

// --- deterministic trace hashing -----------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }
    fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }
    fn bool(&mut self, b: bool) {
        self.u64(u64::from(b));
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn opt_time(&mut self, t: Option<SimTime>) {
        match t {
            None => self.u64(0),
            Some(t) => {
                self.u64(1);
                self.time(t);
            }
        }
    }
}

/// Hashes every observable field of a [`RunTrace`] — floats by bit
/// pattern, times/durations as nanoseconds — so any behavioral drift
/// in the refactor flips the digest.
fn trace_hash(t: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.str(&t.device_name);
    h.dur(t.measured);
    h.u64(t.processes.len() as u64);
    for p in &t.processes {
        h.str(&p.name);
        h.str(&p.engine_name);
        h.u64(u64::from(p.batch));
        h.u64(p.completed_ecs);
        h.u64(p.images);
        h.f64(p.throughput);
        h.dur(p.mean_ec_time);
        h.dur(p.p50_ec_time);
        h.dur(p.p95_ec_time);
        h.dur(p.p99_ec_time);
        h.dur(p.mean_launch_time);
        h.dur(p.mean_blocking_time);
        h.dur(p.mean_sync_time);
        h.dur(p.mean_gpu_time);
        h.dur(p.mean_queue_delay);
        h.opt_time(p.killed_at);
    }
    h.u64(t.kernel_names.len() as u64);
    for names in &t.kernel_names {
        h.u64(names.len() as u64);
        for name in names.iter() {
            h.str(name);
        }
    }
    h.u64(t.ec_records.len() as u64);
    for records in &t.ec_records {
        h.u64(records.len() as u64);
        for r in records {
            h.time(r.start);
            h.time(r.end);
            h.dur(r.launch_time);
            h.dur(r.blocking_time);
            h.dur(r.sync_time);
            h.dur(r.gpu_time);
            h.dur(r.queue_delay);
        }
    }
    h.u64(t.kernel_events.len() as u64);
    for e in &t.kernel_events {
        h.u64(e.pid as u64);
        h.u64(e.ec_seq);
        h.u64(e.kernel_index as u64);
        h.time(e.start);
        h.time(e.end);
        h.u64(e.precision as u64);
        h.f64(e.sm_active);
        h.f64(e.issue_slot);
        h.f64(e.tc_activity);
        h.u64(e.bytes);
    }
    h.u64(t.power_samples.len() as u64);
    for s in &t.power_samples {
        h.time(s.time);
        h.f64(s.watts);
        h.f64(s.gpu_utilization);
        h.u64(u64::from(s.gpu_freq_mhz));
        h.u64(s.gpu_memory_bytes);
        h.f64(s.cpu_busy_cores);
        h.f64(s.temp_c);
    }
    h.u64(t.fault_events.len() as u64);
    for f in &t.fault_events {
        h.time(f.time);
        match &f.kind {
            FaultKind::MemorySpikeStart { bytes } => {
                h.u64(1);
                h.u64(*bytes);
            }
            FaultKind::MemorySpikeEnd { bytes } => {
                h.u64(2);
                h.u64(*bytes);
            }
            FaultKind::ThrottleLockStart { step, mhz } => {
                h.u64(3);
                h.u64(*step as u64);
                h.u64(u64::from(*mhz));
            }
            FaultKind::ThrottleLockEnd => h.u64(4),
            FaultKind::ProcessKilled {
                pid,
                name,
                freed_bytes,
            } => {
                h.u64(5);
                h.u64(*pid as u64);
                h.str(name);
                h.u64(*freed_bytes);
            }
            // `FaultKind` is non_exhaustive; new variants must extend
            // this hash (and re-capture) deliberately.
            _ => h.u64(u64::MAX),
        }
    }
    h.bool(t.budget_exceeded);
    h.u64(t.sim_events);
    h.dur(t.gpu_busy);
    h.u64(t.gpu_memory_bytes);
    h.f64(t.gpu_memory_percent);
    h.u64(u64::from(t.final_freq_mhz));
    h.u64(u64::from(t.top_freq_mhz));
    h.f64(t.mem_bandwidth_bytes_per_sec);
    h.0
}

// --- the pinned grid ------------------------------------------------------

#[derive(Clone, Copy)]
enum Dev {
    Orin,
    Nano,
}

impl Dev {
    fn spec(self) -> jetsim_device::DeviceSpec {
        match self {
            Dev::Orin => presets::orin_nano(),
            Dev::Nano => presets::jetson_nano(),
        }
    }
    fn tag(self) -> &'static str {
        match self {
            Dev::Orin => "orin",
            Dev::Nano => "nano",
        }
    }
    /// Grid model per device: ResNet50 on Orin; YoloV8n on the 4 GB
    /// Nano, where 4 × ResNet50 genuinely does not fit (§6.2.1).
    fn model(self) -> jetsim_dnn::ModelGraph {
        match self {
            Dev::Orin => zoo::resnet50(),
            Dev::Nano => zoo::yolov8n(),
        }
    }
}

/// One parity cell: a fully pinned configuration and its captured hash.
struct Cell {
    id: String,
    trace: RunTrace,
}

fn base_cell(dev: Dev, precision: Precision, procs: u32, seed: u64) -> Cell {
    let config = SimConfig::builder(dev.spec())
        .add_model_processes(&dev.model(), precision, 2, procs)
        .expect("engine builds")
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(seed)
        .build()
        .expect("fits");
    Cell {
        id: format!("{}_{:?}_{}p_s{}", dev.tag(), precision, procs, seed),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// The full pinned grid, covering every subsystem the refactor touches.
fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    // Core grid: seeds × {1,2,4} procs × 2 precisions × both devices.
    for &seed in &[11u64, 42u64] {
        for dev in [Dev::Orin, Dev::Nano] {
            for precision in [Precision::Int8, Precision::Fp16] {
                for procs in [1u32, 2, 4] {
                    cells.push(base_cell(dev, precision, procs, seed));
                }
            }
        }
    }
    // Run-queue CPU scheduler (quantum time-sharing + spin-wait path).
    let config = SimConfig::builder(presets::orin_nano())
        .add_model_processes(&zoo::resnet50(), Precision::Fp16, 2, 6)
        .expect("engine builds")
        .cpu_model(CpuModel::RunQueue)
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(7)
        .build()
        .expect("fits");
    cells.push(Cell {
        id: "runqueue_orin_6p_s7".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // MPS spatial packing.
    let config = SimConfig::builder(presets::orin_nano())
        .add_model_processes(&zoo::yolov8n(), Precision::Fp16, 1, 3)
        .expect("engine builds")
        .gpu_sharing(GpuSharing::SpatialMps {
            overlap_efficiency: 0.3,
        })
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(13)
        .build()
        .expect("fits");
    cells.push(Cell {
        id: "mps_orin_3p_s13".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // Open-loop Poisson arrivals (queue-delay accounting + arrival RNG).
    let engine = {
        let config = SimConfig::builder(presets::orin_nano())
            .add_model(&zoo::resnet50(), Precision::Fp16, 1)
            .expect("engine builds")
            .build()
            .expect("fits");
        config.processes[0].engine.clone()
    };
    let config = SimConfig::builder(presets::orin_nano())
        .add_engine_with_arrivals(engine.clone(), ArrivalModel::Poisson { fps: 60.0 })
        .add_engine_with_arrivals(engine, ArrivalModel::Periodic { fps: 30.0 })
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(23)
        .build()
        .expect("fits");
    cells.push(Cell {
        id: "arrivals_orin_2p_s23".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // Nsight profiler mode (overhead factors + kernel-event trace RNG).
    let config = SimConfig::builder(presets::jetson_nano())
        .add_model_processes(&zoo::resnet50(), Precision::Fp16, 1, 2)
        .expect("engine builds")
        .profiler(ProfilerMode::Nsight)
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(31)
        .build()
        .expect("fits");
    cells.push(Cell {
        id: "nsight_nano_2p_s31".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    // Fault plan: seeded spikes + throttle locks + OOM killer over an
    // over-committed deployment (memory guard + governor lock paths).
    let config = SimConfig::builder(presets::jetson_nano())
        .add_model_processes(&zoo::fcn_resnet50(), Precision::Fp32, 1, 4)
        .expect("engine builds")
        .faults(
            FaultPlan::seeded(99, SimDuration::from_millis(750), 2, 1)
                .oom_policy(jetsim_sim::OomPolicy::KillLargest),
        )
        .warmup(SimDuration::from_millis(150))
        .measure(SimDuration::from_millis(600))
        .seed(99)
        .build()
        .expect("fits under KillLargest");
    cells.push(Cell {
        id: "faults_nano_4p_s99".into(),
        trace: Simulation::new(config).expect("valid").run(),
    });
    cells
}

// --- golden hashes (captured pre-refactor) --------------------------------

/// Captured on the pre-refactor tree (`simulation.rs` god-object) with
/// `JETSIM_GOLDEN_CAPTURE=1`. The component split must reproduce every
/// one of these bit-for-bit.
const GOLDEN: &[(&str, u64)] = &[
    ("orin_Int8_1p_s11", 0x1d56a6bb2afe986b),
    ("orin_Int8_2p_s11", 0xddc0d0dd81b2bf24),
    ("orin_Int8_4p_s11", 0x66c26de431f2193e),
    ("orin_Fp16_1p_s11", 0x2f2f91b9ce8e9957),
    ("orin_Fp16_2p_s11", 0x1b031e2b030ed0ad),
    ("orin_Fp16_4p_s11", 0xb08f0fc4aba08e7c),
    ("nano_Int8_1p_s11", 0xa04e50568555ea7e),
    ("nano_Int8_2p_s11", 0x4f0ee62d163103e3),
    ("nano_Int8_4p_s11", 0xf928fb91bf2c96aa),
    ("nano_Fp16_1p_s11", 0x7d50f117c771a596),
    ("nano_Fp16_2p_s11", 0xefed57e2fa15e82d),
    ("nano_Fp16_4p_s11", 0xf969d7064ffb944c),
    ("orin_Int8_1p_s42", 0x27f6555944e90bfe),
    ("orin_Int8_2p_s42", 0x39d260e100b412ca),
    ("orin_Int8_4p_s42", 0xdfa2f4b0f1e95736),
    ("orin_Fp16_1p_s42", 0x90eec6bc5053c332),
    ("orin_Fp16_2p_s42", 0xc8005dbe339dd724),
    ("orin_Fp16_4p_s42", 0x211eb14761bb79ae),
    ("nano_Int8_1p_s42", 0x148c5203b5b2bb31),
    ("nano_Int8_2p_s42", 0xba7339e0218c8b83),
    ("nano_Int8_4p_s42", 0x36be4d4405285119),
    ("nano_Fp16_1p_s42", 0x73f58c7ab2f59002),
    ("nano_Fp16_2p_s42", 0xd1ed7fe94e90b383),
    ("nano_Fp16_4p_s42", 0xec909bcae46689d1),
    ("runqueue_orin_6p_s7", 0x92c2e19fd425d329),
    ("mps_orin_3p_s13", 0x086a958327a436c6),
    ("arrivals_orin_2p_s23", 0x3d7e3fe5f702973d),
    ("nsight_nano_2p_s31", 0x43f118ddefbebec9),
    ("faults_nano_4p_s99", 0xa325dc76b28556f6),
];

#[test]
fn golden_trace_parity() {
    let cells = all_cells();
    if std::env::var("JETSIM_GOLDEN_CAPTURE").is_ok() {
        println!("const GOLDEN: &[(&str, u64)] = &[");
        for cell in &cells {
            println!("    (\"{}\", 0x{:016x}),", cell.id, trace_hash(&cell.trace));
        }
        println!("];");
        return;
    }
    assert_eq!(
        cells.len(),
        GOLDEN.len(),
        "grid drifted from the captured table — re-capture deliberately"
    );
    let mut failures = Vec::new();
    for (cell, &(id, expected)) in cells.iter().zip(GOLDEN) {
        assert_eq!(cell.id, id, "cell order drifted");
        let got = trace_hash(&cell.trace);
        if got != expected {
            failures.push(format!(
                "{id}: expected 0x{expected:016x}, got 0x{got:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden-trace parity broken:\n{}",
        failures.join("\n")
    );
}

/// The hash itself must be deterministic run-to-run (hardens the suite
/// against accidental iteration-order or HashMap nondeterminism in the
/// trace itself).
#[test]
fn trace_hash_is_reproducible() {
    let a = base_cell(Dev::Orin, Precision::Fp16, 2, 5);
    let b = base_cell(Dev::Orin, Precision::Fp16, 2, 5);
    assert_eq!(trace_hash(&a.trace), trace_hash(&b.trace));
    let c = base_cell(Dev::Orin, Precision::Fp16, 2, 6);
    assert_ne!(
        trace_hash(&a.trace),
        trace_hash(&c.trace),
        "different seeds should differ"
    );
}

// --- request-level golden cells --------------------------------------------
//
// The 29 cells above hash processes, EC records, kernel events, power
// samples and faults, but never the serving side of a run. The cells
// below pin the request lifecycle itself: every request record, serve
// event, preemption and group label, on top of the full trace hash. They
// cover each admission policy, the resilience stack under seeded faults,
// scale-to-zero with a kill mid-provision, and the non-rr GPU policies.
//
// To re-capture (only legitimate when the serving *model* changes):
//
// ```text
// JETSIM_GOLDEN_CAPTURE=1 cargo test -p jetsim-sim --test golden_parity -- --nocapture
// ```

use std::sync::Arc;

use jetsim_des::ArrivalProcess;
use jetsim_sim::serving::{
    AutoscalerPolicy, BreakerMode, BreakerPolicy, DropKind, HedgePolicy, RecoveryPolicy,
    RetryPolicy, ServeEventKind,
};
use jetsim_sim::{AdmissionPolicy, GpuPolicy, OomPolicy, ServeGroup, ServePlan};
use jetsim_trt::{Engine, EngineBuilder};

impl Fnv {
    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v as u64);
            }
        }
    }
}

/// [`trace_hash`] extended with every field of the serving records:
/// `requests`, `serve_events`, `preemptions` and `serve_group_labels`.
fn request_hash(t: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace_hash(t));
    h.u64(t.requests.len() as u64);
    for r in &t.requests {
        h.u64(r.group as u64);
        h.u64(r.seq);
        h.time(r.arrival);
        h.opt_time(r.dispatched);
        h.opt_time(r.completed);
        match r.dropped {
            None => h.u64(0),
            Some(d) => {
                h.u64(1);
                h.time(d.at);
                h.u64(match d.kind {
                    DropKind::Rejected => 1,
                    DropKind::Shed => 2,
                    DropKind::DeadlineExpired => 3,
                    DropKind::Killed => 4,
                    DropKind::HedgeLoser => 5,
                    DropKind::BreakerOpen => 6,
                    // `DropKind` is non_exhaustive; new variants must
                    // extend this hash (and re-capture) deliberately.
                    _ => u64::MAX,
                });
            }
        }
        h.opt_usize(r.pid);
        h.u64(u64::from(r.batch_size));
        h.bool(r.degraded);
        h.u64(u64::from(r.attempt));
        h.opt_usize(r.retry_of);
        h.opt_usize(r.hedge_of);
    }
    h.u64(t.serve_events.len() as u64);
    for e in &t.serve_events {
        h.time(e.time);
        h.u64(e.group as u64);
        match &e.kind {
            ServeEventKind::BatchFormed {
                pid,
                size,
                oldest_wait,
                queue_depth,
                degraded,
            } => {
                h.u64(1);
                h.u64(*pid as u64);
                h.u64(u64::from(*size));
                h.dur(*oldest_wait);
                h.u64(*queue_depth as u64);
                h.bool(*degraded);
            }
            ServeEventKind::DegradeEnter { queue_depth } => {
                h.u64(2);
                h.u64(*queue_depth as u64);
            }
            ServeEventKind::DegradeExit { queue_depth } => {
                h.u64(3);
                h.u64(*queue_depth as u64);
            }
            ServeEventKind::BreakerTrip { error_rate } => {
                h.u64(4);
                h.f64(*error_rate);
            }
            ServeEventKind::BreakerHalfOpen => h.u64(5),
            ServeEventKind::BreakerClose => h.u64(6),
            ServeEventKind::ReplicaDown {
                pid,
                failed_inflight,
            } => {
                h.u64(7);
                h.u64(*pid as u64);
                h.u64(*failed_inflight as u64);
            }
            ServeEventKind::ReplicaUp { pid } => {
                h.u64(8);
                h.u64(*pid as u64);
            }
            ServeEventKind::ReplicaEjected { pid } => {
                h.u64(9);
                h.u64(*pid as u64);
            }
            ServeEventKind::ReplicaProvisioned { pid, cold } => {
                h.u64(10);
                h.u64(*pid as u64);
                h.bool(*cold);
            }
            ServeEventKind::ReplicaWarmed { pid } => {
                h.u64(11);
                h.u64(*pid as u64);
            }
            ServeEventKind::ReplicaReaped { pid } => {
                h.u64(12);
                h.u64(*pid as u64);
            }
            ServeEventKind::ParkedToZero => h.u64(13),
            // `ServeEventKind` is non_exhaustive; new variants must
            // extend this hash (and re-capture) deliberately.
            _ => h.u64(u64::MAX),
        }
    }
    h.u64(t.preemptions.len() as u64);
    for p in &t.preemptions {
        h.u64(p.pid as u64);
        h.u64(p.ec_seq);
        h.u64(p.kernel_index as u64);
        h.time(p.start);
        h.time(p.preempted_at);
        h.u64(p.by_pid as u64);
    }
    h.u64(t.serve_group_labels.len() as u64);
    for label in &t.serve_group_labels {
        h.str(label);
    }
    h.0
}

fn serve_engine(
    device: &jetsim_device::DeviceSpec,
    model: &jetsim_dnn::ModelGraph,
    precision: Precision,
) -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new(device)
            .precision(precision)
            .batch(1)
            .build(model)
            .expect("engine builds"),
    )
}

/// One serve group of `replicas` copies of `engine`, shaped by `group`,
/// run for 600 ms after a 100 ms warmup unless `config` says otherwise.
#[allow(clippy::too_many_arguments)]
fn serve_cell(
    id: &str,
    device: jetsim_device::DeviceSpec,
    engine: Arc<Engine>,
    replicas: usize,
    arrivals: ArrivalProcess,
    seed: u64,
    group: impl FnOnce(ServeGroup) -> ServeGroup,
    config: impl FnOnce(jetsim_sim::SimConfigBuilder) -> jetsim_sim::SimConfigBuilder,
) -> Cell {
    let mut builder = SimConfig::builder(device);
    for i in 0..replicas {
        builder = builder.add_engine_named(format!("serve/{i}"), Arc::clone(&engine));
    }
    let g = group(ServeGroup::new("serve", arrivals).members(0..replicas));
    let builder = builder
        .serve(ServePlan::new().group(g))
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(600))
        .seed(seed);
    let config = config(builder).build().expect("fits");
    Cell {
        id: id.into(),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// Deadline + retry + auto hedge + recovery behind a breaker in `mode`,
/// under a seeded fault plan whose spikes make the OOM killer take
/// replicas of a board packed with 20 of them.
fn resilient_cell(id: &str, mode: BreakerMode, rate: f64, deadline_ms: u64) -> Cell {
    let device = presets::orin_nano();
    let engine = serve_engine(&device, &zoo::resnet50(), Precision::Fp16);
    let degraded = serve_engine(&device, &zoo::resnet50(), Precision::Int8);
    serve_cell(
        id,
        device,
        engine,
        20,
        ArrivalProcess::poisson(rate),
        17,
        |g| {
            g.queue_cap(16)
                .degraded_engine(degraded)
                .deadline(SimDuration::from_millis(deadline_ms))
                .retry(RetryPolicy::new(3, SimDuration::from_millis(5)))
                .hedge(HedgePolicy::auto())
                .breaker(
                    BreakerPolicy::new(32, 0.5)
                        .cooldown(SimDuration::from_millis(30))
                        .mode(mode),
                )
                .recovery(RecoveryPolicy::new(SimDuration::from_millis(60), 3))
        },
        |b| {
            b.faults(
                FaultPlan::seeded(2, SimDuration::from_millis(700), 4, 1)
                    .oom_policy(OomPolicy::KillLargest),
            )
        },
    )
}

/// Two serve groups at different GPU priorities under `policy`; the
/// high-priority group is light enough that the low-priority one keeps
/// reaching the GPU, so a preemptive policy has kernels to cut.
fn policy_cell(id: &str, policy: GpuPolicy) -> Cell {
    let device = presets::orin_nano();
    let resnet = serve_engine(&device, &zoo::resnet50(), Precision::Int8);
    let yolo = serve_engine(&device, &zoo::yolov8n(), Precision::Fp16);
    let config = SimConfig::builder(device)
        .add_engine_named("resnet50/0", Arc::clone(&resnet))
        .add_engine_named("resnet50/1", resnet)
        .add_engine_named("yolov8n/0", yolo)
        .serve(
            ServePlan::new()
                .group(
                    ServeGroup::new("resnet50", ArrivalProcess::poisson(50.0))
                        .members([0, 1])
                        .priority(5)
                        .sm_share(2.0),
                )
                .group(ServeGroup::new("yolov8n", ArrivalProcess::poisson(200.0)).members([2])),
        )
        .gpu_policy(policy)
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(600))
        .seed(29)
        .build()
        .expect("fits");
    Cell {
        id: id.into(),
        trace: Simulation::new(config).expect("valid").run(),
    }
}

/// The request-level grid.
fn request_cells() -> Vec<Cell> {
    let orin = presets::orin_nano;
    let resnet_int8 = || serve_engine(&orin(), &zoo::resnet50(), Precision::Int8);
    let mut cells = Vec::new();
    // Admission under overload: one replica, a small queue.
    for (id, admission) in [
        ("serve_reject_orin_s3", AdmissionPolicy::Reject),
        ("serve_shed_orin_s3", AdmissionPolicy::Shed),
    ] {
        cells.push(serve_cell(
            id,
            orin(),
            resnet_int8(),
            1,
            ArrivalProcess::poisson(3000.0),
            3,
            |g| g.queue_cap(8).admission(admission),
            |b| b,
        ));
    }
    // Degrade: bursts overflow the queue onto the int8 fallback, calm
    // periods drain it back onto the fp16 engine.
    let degraded = resnet_int8();
    cells.push(serve_cell(
        "serve_degrade_orin_s3",
        orin(),
        serve_engine(&orin(), &zoo::resnet50(), Precision::Fp16),
        1,
        ArrivalProcess::mmpp(
            100.0,
            3000.0,
            SimDuration::from_millis(80),
            SimDuration::from_millis(60),
        ),
        3,
        |g| {
            g.queue_cap(16)
                .admission(AdmissionPolicy::Degrade)
                .degraded_engine(degraded)
        },
        |b| b,
    ));
    // The shed breaker closes again after its probe; the brownout run
    // is pushed harder so queued requests also expire.
    cells.push(resilient_cell(
        "resilient_shed_orin_s17",
        BreakerMode::Shed,
        150.0,
        100,
    ));
    cells.push(resilient_cell(
        "resilient_brownout_orin_s17",
        BreakerMode::Brownout,
        200.0,
        60,
    ));
    // Scale-to-zero with an OOM kill mid-provision: the deployment of
    // `oom_kill_plus_recovery_never_double_provisions` (autoscale.rs)
    // with the floor at zero, bursty traffic that lets the group park,
    // and a shorter spike timed to land while replicas provision, so
    // the restarted replicas come back parked.
    cells.push(serve_cell(
        "autoscale_zero_oom_orin_s5",
        orin(),
        resnet_int8(),
        3,
        ArrivalProcess::mmpp(
            5.0,
            800.0,
            SimDuration::from_millis(150),
            SimDuration::from_millis(60),
        ),
        5,
        |g| {
            g.queue_cap(256)
                .autoscaler(
                    AutoscalerPolicy::new(0, 3)
                        .target_queue_per_replica(2.0)
                        .evaluate_every(SimDuration::from_millis(10))
                        .keep_alive(SimDuration::from_millis(80))
                        .start_costs(SimDuration::from_millis(60), SimDuration::from_millis(12)),
                )
                .recovery(RecoveryPolicy::new(SimDuration::from_millis(40), 2))
        },
        |b| {
            b.measure(SimDuration::from_millis(1200)).faults(
                FaultPlan::new()
                    .memory_spike(
                        SimTime::from_nanos(440_000_000),
                        SimDuration::from_millis(30),
                        7 << 30,
                    )
                    .oom_policy(OomPolicy::KillLargest),
            )
        },
    ));
    cells.push(policy_cell("policy_fifo_orin_s29", GpuPolicy::Fifo));
    cells.push(policy_cell(
        "policy_priority_orin_s29",
        GpuPolicy::Priority {
            preempt_penalty: GpuPolicy::DEFAULT_PREEMPT_PENALTY,
        },
    ));
    cells.push(policy_cell(
        "policy_mps_orin_s29",
        GpuPolicy::FractionalMps {
            overlap_efficiency: GpuPolicy::DEFAULT_MPS_OVERLAP,
        },
    ));
    cells
}

/// Captured with `JETSIM_GOLDEN_CAPTURE=1` before the `Ingress`
/// state-machine refactor; every later change to the serving path must
/// reproduce these bit for bit.
const GOLDEN_REQUEST: &[(&str, u64)] = &[
    ("serve_reject_orin_s3", 0x5eb48d5f6a01e802),
    ("serve_shed_orin_s3", 0xa5b1486dd6293a8e),
    ("serve_degrade_orin_s3", 0x97f523c80766b3bb),
    ("resilient_shed_orin_s17", 0x749be3b8cb6707f1),
    ("resilient_brownout_orin_s17", 0xfba66f757111db25),
    ("autoscale_zero_oom_orin_s5", 0xb30610d65e362ba2),
    ("policy_fifo_orin_s29", 0x2f69a7b2cb16a46a),
    ("policy_priority_orin_s29", 0x315c5dac44ea1d9a),
    ("policy_mps_orin_s29", 0x672a85d7400886db),
];

/// A census of what a request cell exercised: drop kinds, retries,
/// hedges, degraded dispatches, serve-event kinds, preemptions, and
/// kills that landed on a replica mid-provision.
fn census(t: &RunTrace) -> std::collections::BTreeMap<String, usize> {
    let mut c = std::collections::BTreeMap::new();
    let mut bump = |key: String| *c.entry(key).or_insert(0usize) += 1;
    for r in &t.requests {
        if let Some(d) = r.dropped {
            bump(format!("drop:{:?}", d.kind));
        }
        if r.retry_of.is_some() {
            bump("retry".into());
        }
        if r.hedge_of.is_some() {
            bump("hedge".into());
        }
        if r.degraded {
            bump("degraded".into());
        }
    }
    let mut provisioning = std::collections::HashSet::new();
    for e in &t.serve_events {
        match e.kind {
            ServeEventKind::ReplicaProvisioned { pid, .. } => {
                provisioning.insert(pid);
            }
            ServeEventKind::ReplicaWarmed { pid } => {
                provisioning.remove(&pid);
            }
            ServeEventKind::ReplicaDown { pid, .. } if provisioning.remove(&pid) => {
                bump("kill_mid_provision".into());
            }
            _ => {}
        }
        let name = format!("{:?}", e.kind);
        let name = name.split([' ', '{']).next().unwrap_or_default();
        if name != "BatchFormed" {
            bump(format!("event:{name}"));
        }
    }
    for _ in &t.preemptions {
        bump("preemption".into());
    }
    c
}

/// What each request cell must reach, so a cell that silently stops
/// exercising its path fails loudly instead of pinning a quiet trace.
const REACHES: &[(&str, &[&str])] = &[
    ("serve_reject_orin_s3", &["drop:Rejected"]),
    ("serve_shed_orin_s3", &["drop:Shed"]),
    (
        "serve_degrade_orin_s3",
        &["degraded", "event:DegradeEnter", "event:DegradeExit"],
    ),
    (
        "resilient_shed_orin_s17",
        &[
            "drop:BreakerOpen",
            "drop:HedgeLoser",
            "drop:Killed",
            "retry",
            "hedge",
            "event:BreakerTrip",
            "event:BreakerHalfOpen",
            "event:BreakerClose",
            "event:ReplicaUp",
            "event:ReplicaEjected",
        ],
    ),
    (
        "resilient_brownout_orin_s17",
        &[
            "degraded",
            "drop:DeadlineExpired",
            "drop:HedgeLoser",
            "drop:Killed",
            "retry",
            "hedge",
            "event:BreakerTrip",
            "event:BreakerHalfOpen",
            "event:ReplicaUp",
            "event:ReplicaEjected",
        ],
    ),
    (
        "autoscale_zero_oom_orin_s5",
        &[
            "kill_mid_provision",
            "event:ParkedToZero",
            "event:ReplicaReaped",
            "event:ReplicaUp",
        ],
    ),
    ("policy_fifo_orin_s29", &[]),
    ("policy_priority_orin_s29", &["preemption"]),
    ("policy_mps_orin_s29", &[]),
];

#[test]
fn golden_request_parity() {
    let cells = request_cells();
    if std::env::var("JETSIM_GOLDEN_CAPTURE").is_ok() {
        for cell in &cells {
            println!("{}: {:?}", cell.id, census(&cell.trace));
        }
        println!("const GOLDEN_REQUEST: &[(&str, u64)] = &[");
        for cell in &cells {
            println!(
                "    (\"{}\", 0x{:016x}),",
                cell.id,
                request_hash(&cell.trace)
            );
        }
        println!("];");
        return;
    }
    assert_eq!(
        cells.len(),
        GOLDEN_REQUEST.len(),
        "grid drifted from the captured table — re-capture deliberately"
    );
    let mut failures = Vec::new();
    for ((cell, &(id, expected)), &(reach_id, reaches)) in
        cells.iter().zip(GOLDEN_REQUEST).zip(REACHES)
    {
        assert_eq!(cell.id, id, "cell order drifted");
        assert_eq!(cell.id, reach_id, "REACHES order drifted");
        let census = census(&cell.trace);
        for key in reaches {
            if !census.contains_key(*key) {
                failures.push(format!("{id}: never reached `{key}`"));
            }
        }
        let got = request_hash(&cell.trace);
        if got != expected {
            failures.push(format!(
                "{id}: expected 0x{expected:016x}, got 0x{got:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "request-level golden parity broken:\n{}",
        failures.join("\n")
    );
}
