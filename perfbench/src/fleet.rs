//! `fleet`: 256 Orin Nano edge sites plus the A40 cloud tier behind the
//! `offload` router, each site loaded below its capacity.
//!
//! One operation is one `FleetSpec::run`. The fleet planner, router,
//! network legs, merge and thread fan-out do the work, and every site's
//! retained `RunTrace` drives memory. The other workloads bypass this
//! layer.
//!
//! The traced run drives the same inputs through the fleet's public
//! pieces — `ArrivalStream::times_until`, `estimate_capacity`,
//! `FleetRouter::route` over a public `FleetView`, `NetworkModel::one_way`
//! and one `ServeSpec`/`Simulation` per site — and checks that every
//! site's `ServeReport` equals the one inside the untraced `FleetReport`.

use jetsim::scenario::{ScenarioSpec, TenantScenario};
use jetsim_des::{gaps_from_times, ArrivalProcess, ArrivalStream, SimDuration};
use jetsim_fleet::{
    Direction, FleetReport, FleetSpec, FleetView, NetworkModel, RouteRequest, RouterPolicy,
    DEFAULT_TELEMETRY_EVERY,
};
use jetsim_serve::{build_serve_spec, estimate_capacity, ServeReport, ServeSpec};
use jetsim_sim::Simulation;

use crate::common::{
    add, count_trace, fnv1a, par_map, program_seed, splitmix64, Counters, WORKERS,
};
use crate::serve::count_report;
use crate::trace::{SpanId, Tracer};
use crate::workload::{spanned, OpResult, TraceAt, Workload};

pub const EDGE_SITES: u32 = 256;
const PER_SITE_QPS: f64 = 250.0;
const CLOUD_DEVICE: &str = "cloud-a40";

/// The per-site scenario; its arrival rate is the fleet's aggregate.
pub fn scenario(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        device: Some("orin-nano".to_string()),
        seed: Some(program_seed(seed)),
        duration: Some("1s".to_string()),
        warmup: Some("150ms".to_string()),
        slo: Some("50ms".to_string()),
        tenants: Some(vec![TenantScenario {
            spec: Some("resnet50:int8:1:1".to_string()),
            arrival: Some(format!("poisson:{}", PER_SITE_QPS * f64::from(EDGE_SITES))),
            ..TenantScenario::default()
        }]),
        ..ScenarioSpec::default()
    }
}

pub struct Fleet {
    scenario: ScenarioSpec,
    cloud_scenario: ScenarioSpec,
    network: NetworkModel,
    spec: FleetSpec,
}

impl Workload for Fleet {
    fn setup(seed: u64, at: TraceAt<'_>) -> Self {
        let (scenario, cloud_scenario, specs) = spanned(at, "core.scenario", |_| {
            let scenario = scenario(seed);
            let mut cloud_scenario = scenario.clone();
            cloud_scenario.device = Some(CLOUD_DEVICE.to_string());
            let specs = [&scenario, &cloud_scenario]
                .map(|sc| build_serve_spec(sc).expect("benchmark scenario resolves"));
            (scenario, cloud_scenario, specs)
        });
        for spec in &specs {
            for st in spec.tenants() {
                let t = &st.tenant;
                spanned(at, "trt.build_engine", |_| {
                    spec.platform()
                        .build_engine(t.model(), t.precision(), t.batch())
                })
                .expect("benchmark engines build");
            }
        }
        let network = NetworkModel::default();
        let spec = FleetSpec::new(scenario.clone())
            .sites(EDGE_SITES)
            .cloud(true)
            .cloud_device(CLOUD_DEVICE)
            .router(RouterPolicy::Offload)
            .network(network.clone())
            .telemetry_every(DEFAULT_TELEMETRY_EVERY)
            .workers(Some(WORKERS));
        Fleet {
            scenario,
            cloud_scenario,
            network,
            spec,
        }
    }

    fn kinds(&self) -> usize {
        1
    }

    fn run(&self, _kind: usize) -> OpResult {
        match self.spec.run() {
            Ok(report) => report_result(&report),
            Err(e) => OpResult {
                units: u64::from(EDGE_SITES) + 1,
                problems: vec![e],
                ..OpResult::default()
            },
        }
    }

    fn run_traced(
        &self,
        _kind: usize,
        tracer: &Tracer,
        parent: SpanId,
        counters: &mut Counters,
    ) -> u64 {
        tracer.span("fleet.run", Some(parent), |run| {
            self.decomposed(Some((tracer, run)), counters)
                .unwrap_or_else(|e| fnv1a(e.as_bytes()))
        })
    }
}

/// Digest of what the decomposition reproduces: per site, its routed
/// count, event count and serve report.
fn site_digest<'a>(sites: impl Iterator<Item = (usize, u64, &'a ServeReport)>) -> u64 {
    let mut text = String::new();
    for (routed, events, report) in sites {
        text.push_str(&format!(
            "{routed}|{events}|{}\n",
            serde_json::to_string(report).expect("serve reports serialise")
        ));
    }
    fnv1a(text.as_bytes())
}

fn report_result(report: &FleetReport) -> OpResult {
    let mut problems = Vec::new();
    let sites = EDGE_SITES as usize + 1;
    if report.sites.len() != sites {
        problems.push(format!("{} site reports, want {sites}", report.sites.len()));
    }
    if report.requests == 0 || report.served > report.requests {
        problems.push(format!(
            "served {} of {} requests",
            report.served, report.requests
        ));
    }
    OpResult {
        digest: fnv1a(report.to_json().as_bytes()),
        parity: site_digest(report.sites.iter().map(|s| (s.routed, s.sim_events, &s.report))),
        units: report.sites.len() as u64,
        requests: report.requests as u64,
        problems,
        headline: format!(
            "{} sites + cloud: {} requests, goodput {:.3}/s, p99 {:.3} ms, SLO attainment {:.4}, offloaded {:.4}",
            report.edge_sites,
            report.requests,
            report.goodput_qps,
            report.p99_ms,
            report.slo_attainment,
            report.offload_fraction
        ),
    }
}

/// Per-class arrival seed fold of the single-device ingress.
fn class_seed(master: u64, class: usize) -> u64 {
    master.wrapping_add((class as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Fleet {
    /// `FleetSpec::run`'s plan → route → simulate pipeline through the
    /// public pieces, one span per stage. Returns the site digest.
    fn decomposed(&self, at: TraceAt<'_>, counters: &mut Counters) -> Result<u64, String> {
        let edge_sites = EDGE_SITES as usize;
        let total_sites = edge_sites + 1;
        let cloud = edge_sites;
        let (edge_spec, cloud_spec) = spanned(at, "core.scenario", |_| {
            Ok::<_, String>((
                build_serve_spec(&self.scenario)?,
                build_serve_spec(&self.cloud_scenario)?,
            ))
        })?;
        let n_classes = edge_spec.tenants().len();
        let seed = edge_spec.master_seed();
        let horizon = edge_spec.horizon();

        // Emission: each class's aggregate timeline, merged.
        let emissions = spanned(at, "des.arrivals", |_| {
            let mut emissions: Vec<(SimDuration, usize)> = Vec::new();
            for (g, tenant) in edge_spec.tenants().iter().enumerate() {
                let mut stream = ArrivalStream::new(tenant.arrivals.clone(), class_seed(seed, g));
                emissions.extend(stream.times_until(horizon).into_iter().map(|t| (t, g)));
            }
            emissions.sort_unstable();
            emissions
        });

        let est_rate = spanned(at, "serve.estimate_capacity", |_| {
            let edge = estimate_capacity(&edge_spec).map_err(|e| e.to_string())?;
            let cloud_caps = estimate_capacity(&cloud_spec).map_err(|e| e.to_string())?;
            Ok::<_, String>(
                (0..total_sites)
                    .map(|s| {
                        let caps = if s == cloud { &cloud_caps } else { &edge };
                        caps.iter()
                            .map(|c| {
                                if c.est_rate.is_finite() && c.est_rate > 0.0 {
                                    c.est_rate
                                } else {
                                    1e-6
                                }
                            })
                            .collect::<Vec<f64>>()
                    })
                    .collect::<Vec<_>>(),
            )
        })?;

        let round_trip = |net: &NetworkModel| {
            net.one_way(seed, u64::MAX, 0, edge_sites, true, Direction::Uplink)
                + net.one_way(seed, u64::MAX, 0, edge_sites, true, Direction::Downlink)
        };
        // Routing over a drain-model planner behind periodic snapshots.
        let routes: Vec<(usize, usize)> = spanned(at, "fleet.route", |_| {
            let mut router = RouterPolicy::Offload.build();
            let mut view = FleetView {
                edge_sites,
                cloud: Some(cloud),
                slo: edge_spec.slo_target(),
                cloud_round_trip: round_trip(&self.network),
                snapshot_at: SimDuration::ZERO,
                outstanding: vec![vec![0.0; n_classes]; total_sites],
                est_rate: est_rate.clone(),
            };
            let mut live = vec![vec![0.0; n_classes]; total_sites];
            let mut last = SimDuration::ZERO;
            let mut next_snapshot = DEFAULT_TELEMETRY_EVERY;
            let mut routes = Vec::with_capacity(emissions.len());
            for (id, &(t, class)) in emissions.iter().enumerate() {
                let dt = (t - last).as_secs_f64();
                if dt > 0.0 {
                    for (site, rates) in live.iter_mut().zip(&est_rate) {
                        for (q, r) in site.iter_mut().zip(rates) {
                            *q = (*q - r * dt).max(0.0);
                        }
                    }
                }
                last = t;
                if t >= next_snapshot {
                    view.outstanding.clone_from(&live);
                    view.snapshot_at = t;
                    while next_snapshot <= t {
                        next_snapshot += DEFAULT_TELEMETRY_EVERY;
                    }
                }
                let id = id as u64;
                let home = (splitmix64(seed ^ 0x686F_6D65 ^ id) % edge_sites as u64) as usize;
                let request = RouteRequest {
                    id,
                    class,
                    home,
                    at: t,
                };
                let site = router.route(&request, &view).min(total_sites - 1);
                live[site][class] += 1.0;
                routes.push((home, site));
            }
            routes
        });
        add(counters, "fleet.routed", routes.len() as f64);

        // Network legs: uplink delays become per-request ingress offsets.
        let mut site_times = vec![vec![Vec::new(); n_classes]; total_sites];
        let mut site_offsets = vec![vec![Vec::new(); n_classes]; total_sites];
        spanned(at, "fleet.network", |_| {
            for (id, (&(t, class), &(home, site))) in emissions.iter().zip(&routes).enumerate() {
                let id = id as u64;
                let is_cloud = site == cloud;
                let uplink =
                    self.network
                        .one_way(seed, id, home, site, is_cloud, Direction::Uplink);
                // FleetSpec::run draws the downlink leg here too; only its
                // report aggregation reads it.
                std::hint::black_box(self.network.one_way(
                    seed,
                    id,
                    home,
                    site,
                    is_cloud,
                    Direction::Downlink,
                ));
                site_times[site][class].push(t);
                site_offsets[site][class].push(uplink);
            }
        });

        // One serve spec and config per site, built in site order.
        let mut configs = Vec::with_capacity(total_sites);
        for s in 0..total_sites {
            let config = spanned(at, "sim.config", |_| {
                let mut spec: ServeSpec = build_serve_spec(if s == cloud {
                    &self.cloud_scenario
                } else {
                    &self.scenario
                })?;
                for g in 0..n_classes {
                    spec.set_arrivals(
                        g,
                        ArrivalProcess::trace(gaps_from_times(&site_times[s][g]), false),
                    );
                    spec.set_ingress_offsets(g, std::mem::take(&mut site_offsets[s][g]));
                }
                spec.build_config().map_err(|e| e.to_string())
            })?;
            let routed: usize = site_times[s].iter().map(Vec::len).sum();
            configs.push((routed, std::sync::Mutex::new(Some(config))));
        }

        // Independent site simulations on the worker pool.
        let (slo, warmup) = (edge_spec.slo_target(), edge_spec.warmup_interval());
        let deadline = edge_spec.resilience_policies().deadline;
        let sites = par_map(&configs, WORKERS, |(routed, config)| {
            let config = config
                .lock()
                .expect("site config lock")
                .take()
                .expect("each site runs once");
            let sim =
                spanned(at, "sim.new", |_| Simulation::new(config)).map_err(|e| e.to_string())?;
            let trace = spanned(at, "sim.run", |_| sim.run());
            let mut local = Counters::new();
            count_trace(&trace, &mut local);
            let report = spanned(at, "serve.report", |_| {
                ServeReport::from_trace_with_deadline(&trace, slo, warmup, deadline)
            });
            Ok::<_, String>((*routed, trace.sim_events, report, local))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        for (_, _, report, local) in &sites {
            count_report(report, counters);
            for (name, value) in local {
                add(counters, name, *value);
            }
        }
        Ok(site_digest(sites.iter().map(
            |(routed, events, report, _)| (*routed, *events, report),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_load_stays_below_site_capacity() {
        let spec = build_serve_spec(&scenario(0)).unwrap();
        let caps = estimate_capacity(&spec).unwrap();
        let rate = spec.tenants()[0].arrivals.mean_rate().unwrap();
        assert!(rate / f64::from(EDGE_SITES) < caps[0].est_rate, "{caps:?}");
    }

    #[test]
    fn decomposition_matches_a_small_fleet() {
        // The same pipeline on a 4-site fleet: the decomposed site
        // reports must equal the ones inside FleetSpec::run's report.
        let mut fleet = Fleet::setup(1, None);
        let mut small = scenario(1);
        small.duration = Some("200ms".to_string());
        small.tenants.as_mut().unwrap()[0].arrival = Some("poisson:1000".to_string());
        fleet.cloud_scenario = small.clone();
        fleet.cloud_scenario.device = Some(CLOUD_DEVICE.to_string());
        fleet.scenario = small.clone();
        fleet.spec = FleetSpec::new(small)
            .sites(EDGE_SITES)
            .cloud(true)
            .router(RouterPolicy::Offload)
            .workers(Some(WORKERS));
        let direct = fleet.run(0);
        assert!(direct.problems.is_empty(), "{:?}", direct.problems);
        let tracer = Tracer::new("fleet");
        let parity = tracer.span("bench.pass", None, |root| {
            fleet.run_traced(0, &tracer, root, &mut Counters::new())
        });
        assert_eq!(parity, direct.parity);
    }
}
