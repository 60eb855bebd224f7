//! The two serving workloads, each one `ServeSpec::run` per operation.
//!
//! * `serve_overload` — one ResNet50 int8 tenant on the Orin under
//!   Poisson load far above capacity with the default reject admission:
//!   per-offered-request bookkeeping (ingress admission, request
//!   records, finalize, `ServeReport`) dominates, and memory grows with
//!   the offered load. GPU kernels and engine builds are nearly idle.
//! * `serve_resilient` — two tenants with their own MMPP arrivals near
//!   capacity, the priority GPU policy, seeded faults, deadline, retry,
//!   hedging, breaker and replica recovery, and autoscaling with
//!   scale-to-zero: most requests are served, and the work goes to the
//!   resilience and autoscaling paths and the fault components.

use jetsim::scenario::{AutoscaleScenario, ScenarioSpec, TenantScenario};
use jetsim_serve::{build_serve_spec, ServeReport, ServeSpec};
use jetsim_sim::Simulation;

use crate::common::{add, count_trace, digest_json, program_seed, Counters};
use crate::trace::{SpanId, Tracer};
use crate::workload::{spanned, OpResult, TraceAt, Workload};

fn s(v: &str) -> Option<String> {
    Some(v.to_string())
}

/// The overload scenario for program seed `seed`: 5e5 requests/s offered to a tenant that
/// serves a few hundred.
pub fn overload_scenario(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        device: s("orin-nano"),
        seed: Some(seed),
        duration: s("1s"),
        warmup: s("100ms"),
        slo: s("50ms"),
        tenants: Some(vec![TenantScenario {
            spec: s("resnet50:int8:1:2"),
            arrival: s("poisson:500000"),
            ..TenantScenario::default()
        }]),
        ..ScenarioSpec::default()
    }
}

/// The resilient scenario for program seed `seed`: bursty load near what two co-located tenants
/// sustain, with the second tenant scaling to zero between bursts. Each
/// tenant names its own arrival process, and fixed start costs keep the
/// autoscaler independent of the engine cache's state.
pub fn resilient_scenario(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        device: s("orin-nano"),
        seed: Some(seed),
        duration: s("4s"),
        warmup: s("500ms"),
        slo: s("50ms"),
        gpu_policy: s("priority"),
        fault_seed: Some(seed ^ 0xFA17),
        deadline: s("100ms"),
        retry: Some(2),
        hedge: s("auto"),
        breaker: s("shed"),
        recovery: Some(2),
        tenants: Some(vec![
            TenantScenario {
                spec: s("resnet50:int8:1:2:1"),
                arrival: s("mmpp:60:160:200:50"),
                autoscale: Some(AutoscaleScenario {
                    min_replicas: Some(1),
                    max_replicas: Some(2),
                    keep_alive: s("300ms"),
                    start_cost: s("100ms"),
                    ..AutoscaleScenario::default()
                }),
                ..TenantScenario::default()
            },
            TenantScenario {
                spec: s("yolov8n:fp16:1:1"),
                arrival: s("mmpp:3:50:200:50"),
                autoscale: Some(AutoscaleScenario {
                    min_replicas: Some(0),
                    max_replicas: Some(1),
                    keep_alive: s("150ms"),
                    start_cost: s("60ms"),
                    ..AutoscaleScenario::default()
                }),
                ..TenantScenario::default()
            },
        ]),
        ..ScenarioSpec::default()
    }
}

/// A resolved serve spec with its engines built.
pub struct Serve {
    spec: ServeSpec,
}

impl Serve {
    fn setup_with(scenario: ScenarioSpec, at: TraceAt<'_>) -> Self {
        let spec = spanned(at, "core.scenario", |_| build_serve_spec(&scenario))
            .expect("benchmark scenario resolves");
        for st in spec.tenants() {
            let t = &st.tenant;
            spanned(at, "trt.build_engine", |_| {
                spec.platform()
                    .build_engine(t.model(), t.precision(), t.batch())
            })
            .expect("benchmark engines build");
        }
        spanned(at, "sim.config", |_| spec.build_config()).expect("benchmark config is valid");
        Serve { spec }
    }

    fn result(&self, report: Result<ServeReport, String>) -> OpResult {
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                return OpResult {
                    units: 1,
                    problems: vec![e],
                    ..OpResult::default()
                }
            }
        };
        let mut problems = Vec::new();
        let mut headline = Vec::new();
        let mut offered = 0;
        for g in &report.groups {
            offered += g.offered;
            if g.offered == 0 {
                problems.push(format!("{}: nothing offered", g.label));
            }
            if g.served + g.failed + g.unfinished != g.offered {
                problems.push(format!(
                    "{}: served {} + failed {} + unfinished {} != offered {}",
                    g.label, g.served, g.failed, g.unfinished, g.offered
                ));
            }
            headline.push(format!(
                "{}: offered {}, served {:.3}/s, p99 {:.3} ms, SLO attainment {:.4}",
                g.label, g.offered, g.served_qps, g.p99_ms, g.slo_attainment
            ));
        }
        let digest = digest_json(&report);
        OpResult {
            digest,
            parity: digest,
            units: 1,
            requests: offered as u64,
            problems,
            headline: headline.join("; "),
        }
    }

    fn run(&self) -> OpResult {
        self.result(self.spec.run().map_err(|e| e.to_string()))
    }

    fn run_traced(&self, tracer: &Tracer, parent: SpanId, counters: &mut Counters) -> u64 {
        let at = Some((tracer, parent));
        let report = (|| {
            let config = spanned(at, "sim.config", |_| self.spec.build_config())
                .map_err(|e| e.to_string())?;
            let sim =
                spanned(at, "sim.new", |_| Simulation::new(config)).map_err(|e| e.to_string())?;
            let trace = spanned(at, "sim.run", |_| sim.run());
            count_trace(&trace, counters);
            Ok(spanned(at, "serve.report", |_| {
                ServeReport::from_trace_with_deadline(
                    &trace,
                    self.spec.slo_target(),
                    self.spec.warmup_interval(),
                    self.spec.resilience_policies().deadline,
                )
            }))
        })();
        if let Ok(report) = &report {
            count_report(report, counters);
        }
        self.result(report).parity
    }
}

/// Adds a serve report's request accounting to `counters`.
pub fn count_report(report: &ServeReport, counters: &mut Counters) {
    for g in &report.groups {
        add(counters, "serve.offered", g.offered as f64);
        add(counters, "serve.served", g.served as f64);
        // Refused at admission: queue full, shed, or an open breaker.
        add(
            counters,
            "serve.rejected",
            (g.rejected + g.shed + g.breaker_rejected) as f64,
        );
        add(counters, "serve.failed", g.failed as f64);
        add(counters, "serve.attempts", g.attempts as f64);
        add(
            counters,
            "serve.in_slo",
            (g.goodput_qps * report.measured_secs).round(),
        );
    }
}

macro_rules! serve_workload {
    ($name:ident, $scenario:ident, $runs:expr) => {
        /// One pass serves the scenario under this many program seeds,
        /// derived from the benchmark seed, so a run's figures average
        /// over their bursts and faults.
        pub struct $name(Vec<Serve>);

        impl Workload for $name {
            fn setup(seed: u64, at: TraceAt<'_>) -> Self {
                let runs: u64 = $runs;
                $name(
                    (0..runs)
                        .map(|k| {
                            Serve::setup_with(
                                $scenario(program_seed(seed.wrapping_mul(runs).wrapping_add(k))),
                                at,
                            )
                        })
                        .collect(),
                )
            }

            fn kinds(&self) -> usize {
                self.0.len()
            }

            fn run(&self, kind: usize) -> OpResult {
                self.0[kind].run()
            }

            fn run_traced(
                &self,
                kind: usize,
                tracer: &Tracer,
                parent: SpanId,
                counters: &mut Counters,
            ) -> u64 {
                self.0[kind].run_traced(tracer, parent, counters)
            }
        }
    };
}

serve_workload!(ServeOverload, overload_scenario, 1);
serve_workload!(ServeResilient, resilient_scenario, 16);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilient_tenants_keep_their_own_arrivals() {
        let spec = build_serve_spec(&resilient_scenario(program_seed(3))).unwrap();
        let tenants = spec.tenants();
        assert_eq!(tenants.len(), 2);
        assert_ne!(tenants[0].arrivals, tenants[1].arrivals);
        let report = spec
            .duration(jetsim_des::SimDuration::from_millis(800))
            .run()
            .unwrap();
        assert_ne!(report.groups[0].offered, report.groups[1].offered);
        assert!(report.groups.iter().all(|g| g.offered > 0));
    }

    #[test]
    fn scenarios_follow_the_seed() {
        assert_eq!(overload_scenario(5), overload_scenario(5));
        assert_ne!(overload_scenario(5).seed, overload_scenario(6).seed);
        let a = resilient_scenario(5);
        let b = resilient_scenario(6);
        assert_ne!((a.seed, a.fault_seed), (b.seed, b.fault_seed));
    }

    #[test]
    fn overload_offers_far_more_than_it_serves() {
        let spec = build_serve_spec(&overload_scenario(program_seed(0)))
            .unwrap()
            .duration(jetsim_des::SimDuration::from_millis(100));
        let report = spec.run().unwrap();
        let g = &report.groups[0];
        assert!(g.offered > 10 * g.served.max(1), "{g:?}");
    }
}
