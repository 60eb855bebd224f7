//! Property-based tests for the serving primitives: arrival-stream
//! replay determinism, batcher-policy safety bounds, and the resilience
//! machinery's three core guarantees (bit-replayable retry timelines,
//! hedges that never double-count goodput, breakers that admit nothing
//! while open), plus the serving report checked against a naive
//! reference roll-up on synthetic traces.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use jetsim::platform::Platform;
use jetsim_des::{nearest_rank, ArrivalProcess, ArrivalStream, SimDuration, SimRng, SimTime};
use jetsim_serve::{
    AutoscaleScenario, BatchDecision, BatcherPolicy, BreakerPolicy, DropKind, FaultPlan,
    FleetScenario, GroupReport, HedgePolicy, OomPolicy, RecoverySpec, RequestRecord,
    ResiliencePolicies, ScenarioSpec, ServeEvent, ServeEventKind, ServeReport, ServeSpec,
    ServeTenant, TenantScenario,
};
use jetsim_sim::serving::DropRecord;
use jetsim_sim::{RunTrace, Simulation};

/// Collects the first `n` gaps of a stream.
fn gaps(process: &ArrivalProcess, seed: u64, n: usize) -> Vec<SimDuration> {
    ArrivalStream::new(process.clone(), seed).take(n).collect()
}

/// Drives the pure batcher policy over an arrival timeline with an
/// always-free server: requests queue as they arrive, the policy is
/// consulted after every arrival and at every flush deadline, and each
/// dispatch is recorded as (dispatch time, batch size, per-request
/// arrival times).
fn drive_batcher(policy: BatcherPolicy, arrival_gaps: &[u32]) -> Vec<(SimTime, u32, Vec<SimTime>)> {
    let mut queued: Vec<SimTime> = Vec::new();
    let mut dispatches = Vec::new();
    let mut now = SimTime::ZERO;
    let mut pending: Vec<SimTime> = arrival_gaps
        .iter()
        .scan(SimTime::ZERO, |t, &gap_us| {
            *t += SimDuration::from_nanos(u64::from(gap_us) * 1_000);
            Some(*t)
        })
        .collect();
    pending.reverse(); // pop() yields arrivals in time order

    loop {
        let decision = policy.decide(now, queued.len(), queued.first().copied());
        match decision {
            BatchDecision::Dispatch(k) => {
                let batch: Vec<SimTime> = queued.drain(..k as usize).collect();
                dispatches.push((now, k, batch));
                // Re-decide at the same instant (the queue may still be
                // over max_batch).
            }
            BatchDecision::WaitUntil(deadline) => {
                // Jump to whichever happens first: the flush deadline or
                // the next arrival.
                match pending.last().copied() {
                    Some(arrival) if arrival <= deadline => {
                        pending.pop();
                        now = arrival;
                        queued.push(arrival);
                    }
                    _ => now = deadline,
                }
            }
            BatchDecision::Idle => match pending.pop() {
                Some(arrival) => {
                    now = arrival;
                    queued.push(arrival);
                }
                None => break,
            },
        }
    }
    dispatches
}

proptest! {
    /// A Poisson stream replays bit-identically for a fixed seed and
    /// diverges for different seeds.
    #[test]
    fn poisson_streams_replay_bit_identically(
        rate in 1.0f64..10_000.0,
        seed in any::<u64>(),
    ) {
        let process = ArrivalProcess::poisson(rate);
        let a = gaps(&process, seed, 64);
        let b = gaps(&process, seed, 64);
        prop_assert_eq!(&a, &b);
        let c = gaps(&process, seed.wrapping_add(1), 64);
        prop_assert!(a != c, "neighbouring seeds draw different streams");
    }

    /// An MMPP stream replays bit-identically for a fixed seed,
    /// including its hidden calm/burst state transitions.
    #[test]
    fn mmpp_streams_replay_bit_identically(
        calm in 1.0f64..500.0,
        burst_mult in 2.0f64..50.0,
        dwell_ms in 1u64..200,
        seed in any::<u64>(),
    ) {
        let process = ArrivalProcess::mmpp(
            calm,
            calm * burst_mult,
            SimDuration::from_millis(dwell_ms),
            SimDuration::from_millis(dwell_ms * 2),
        );
        let a = gaps(&process, seed, 64);
        let b = gaps(&process, seed, 64);
        prop_assert_eq!(a, b);
    }

    /// The batcher never dispatches more than `max_batch` requests at
    /// once and never holds a request past `arrival + max_delay`,
    /// for any arrival timeline.
    #[test]
    fn batcher_respects_size_and_delay_bounds(
        max_batch in 1u32..16,
        max_delay_us in 1u64..20_000,
        arrival_gaps in prop::collection::vec(0u32..30_000, 1..120),
    ) {
        let policy = BatcherPolicy {
            max_batch,
            max_delay: SimDuration::from_nanos(max_delay_us * 1_000),
        };
        let dispatches = drive_batcher(policy, &arrival_gaps);

        let total: u32 = dispatches.iter().map(|(_, k, _)| k).sum();
        prop_assert_eq!(total as usize, arrival_gaps.len(), "every request dispatches");

        for (at, size, batch) in &dispatches {
            prop_assert!(*size >= 1 && *size <= max_batch,
                "batch size {size} outside [1, {max_batch}]");
            prop_assert_eq!(*size as usize, batch.len());
            for &arrival in batch {
                prop_assert!(*at >= arrival, "dispatch precedes arrival");
                prop_assert!(
                    at.since(arrival) <= policy.max_delay,
                    "request waited {:?}, over the {:?} deadline",
                    at.since(arrival),
                    policy.max_delay
                );
            }
        }
    }

    /// Back-to-back arrivals coalesce: when every gap is zero the
    /// batcher fills whole batches instead of trickling singletons.
    #[test]
    fn simultaneous_arrivals_fill_batches(max_batch in 2u32..16, n in 2usize..64) {
        let policy = BatcherPolicy {
            max_batch,
            max_delay: SimDuration::from_millis(1),
        };
        let zero_gaps = vec![0u32; n];
        let dispatches = drive_batcher(policy, &zero_gaps);
        for (i, (_, size, _)) in dispatches.iter().enumerate() {
            if i + 1 < dispatches.len() {
                prop_assert_eq!(*size, max_batch, "only the tail batch may be partial");
            }
        }
    }
}

// ---------------------------------------------------------------------
// ScenarioSpec round-trip and overlay laws
// ---------------------------------------------------------------------

/// Generates `Some` half the time.
fn opt<S: Strategy>(inner: S) -> proptest::option::Weighted<S> {
    proptest::option::weighted(0.5, inner)
}

/// A plausible CLI-grammar string: tenant specs, policies, arrival
/// grammars — plus quotes and backslashes to exercise TOML escaping.
/// Round-tripping does not require the grammar to validate.
fn grammar_string() -> impl Strategy<Value = String> {
    "[a-z0-9:=,. \"\\\\-]{0,24}"
}

fn duration_string() -> impl Strategy<Value = String> {
    (1u64..100_000, prop::sample::select(vec!["us", "ms", "s"]))
        .prop_map(|(v, unit)| format!("{v}{unit}"))
}

fn autoscale_strategy() -> impl Strategy<Value = AutoscaleScenario> {
    let costs =
        (0u32..4, duration_string()).prop_map(|(k, d)| if k == 0 { "auto".to_string() } else { d });
    (
        (
            opt(0u32..8),
            opt(1u32..8),
            opt(0.25f64..16.0),
            opt(duration_string()),
        ),
        (opt(duration_string()), opt(any::<bool>()), opt(costs)),
    )
        .prop_map(
            |(
                (min_replicas, max_replicas, target_queue, keep_alive),
                (evaluate_every, slo_burn, start_cost),
            )| AutoscaleScenario {
                min_replicas,
                max_replicas,
                target_queue,
                keep_alive,
                evaluate_every,
                slo_burn,
                start_cost,
            },
        )
}

fn fleet_strategy() -> impl Strategy<Value = FleetScenario> {
    (
        (
            opt(1u32..64),
            opt(grammar_string()),
            opt(any::<bool>()),
            opt(grammar_string()),
        ),
        (
            opt(duration_string()),
            opt(duration_string()),
            opt(0.5f64..1000.0),
            opt(0.25f64..512.0),
        ),
        (
            opt(0.25f64..512.0),
            opt(duration_string()),
            opt(duration_string()),
        ),
    )
        .prop_map(
            |(
                (sites, router, cloud, cloud_device),
                (base_latency, jitter, bandwidth_mbps, request_kb),
                (response_kb, cloud_rtt, telemetry_every),
            )| FleetScenario {
                sites,
                router,
                cloud,
                cloud_device,
                base_latency,
                jitter,
                bandwidth_mbps,
                request_kb,
                response_kb,
                cloud_rtt,
                telemetry_every,
            },
        )
}

fn tenant_strategy() -> impl Strategy<Value = TenantScenario> {
    (
        opt(grammar_string()),
        opt(grammar_string()),
        opt(duration_string()),
        opt(0u64..4096),
        opt(grammar_string()),
        opt(autoscale_strategy()),
    )
        .prop_map(
            |(spec, arrival, max_delay, queue_cap, admission, autoscale)| TenantScenario {
                spec,
                arrival,
                max_delay,
                queue_cap,
                admission,
                autoscale,
            },
        )
}

/// An arbitrary sparse scenario. The tenant list, when present, is
/// non-empty: TOML has no spelling for an empty array-of-tables, so
/// `Some(vec![])` is not expressible in the document format.
fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let head = (
        opt(grammar_string()),
        opt(any::<u64>()),
        opt(duration_string()),
        opt(duration_string()),
        opt(duration_string()),
        opt(grammar_string()),
    );
    let mid = (
        opt(any::<u64>()),
        opt(duration_string()),
        opt(0u32..16),
        opt(grammar_string()),
        opt(grammar_string()),
        opt(0u32..16),
    );
    let tail = (
        opt(duration_string()),
        opt(0u64..4096),
        opt(grammar_string()),
        opt(autoscale_strategy()),
        opt(fleet_strategy()),
        opt(prop::collection::vec(tenant_strategy(), 1..3)),
    );
    (head, mid, tail).prop_map(
        |(
            (device, seed, duration, warmup, slo, gpu_policy),
            (fault_seed, deadline, retry, hedge, breaker, recovery),
            (max_delay, queue_cap, admission, autoscale, fleet, tenants),
        )| ScenarioSpec {
            device,
            seed,
            duration,
            warmup,
            slo,
            gpu_policy,
            fault_seed,
            deadline,
            retry,
            hedge,
            breaker,
            recovery,
            max_delay,
            queue_cap,
            admission,
            autoscale,
            fleet,
            tenants,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any scenario the API can express round-trips losslessly through
    /// both document formats: parse(to_toml(s)) == s == parse(json(s)).
    #[test]
    fn scenarios_round_trip_through_toml_and_json(sc in scenario_strategy()) {
        let toml = sc.to_toml();
        let back: ScenarioSpec = toml
            .parse()
            .map_err(|e| TestCaseError::fail(format!("TOML reparse: {e}\n---\n{toml}")))?;
        prop_assert_eq!(&back, &sc, "TOML round-trip:\n{}", toml);

        let json = serde_json::to_string(&sc).expect("scenario serializes");
        let back: ScenarioSpec = json
            .parse()
            .map_err(|e| TestCaseError::fail(format!("JSON reparse: {e}")))?;
        prop_assert_eq!(&back, &sc, "JSON round-trip:\n{}", json);
    }

    /// Overlay laws: the empty scenario is an identity on both sides,
    /// and for every field the merged value is the overlay's when set,
    /// the base's otherwise.
    #[test]
    fn merge_is_lawful(base in scenario_strategy(), overlay in scenario_strategy()) {
        let empty = ScenarioSpec::default();
        prop_assert_eq!(base.merge(&empty), base.clone(), "right identity");
        prop_assert_eq!(empty.merge(&base), base.clone(), "left identity");
        prop_assert_eq!(
            base.merge(&base), base.clone(),
            "merging a scenario over itself changes nothing"
        );

        let merged = base.merge(&overlay);
        macro_rules! check {
            ($($field:ident),+ $(,)?) => {$(
                let want = overlay.$field.clone().or_else(|| base.$field.clone());
                prop_assert_eq!(
                    &merged.$field, &want,
                    "field {}: overlay wins, base fills", stringify!($field)
                );
            )+};
        }
        check!(
            device, seed, duration, warmup, slo, gpu_policy, fault_seed,
            deadline, retry, hedge, breaker, recovery, max_delay,
            queue_cap, admission, autoscale, fleet, tenants,
        );
    }
}

/// A resilient two-replica fp16 deployment on the Jetson Nano under a
/// seeded fault plan (OOM killer armed) — the chaos shape the replay
/// property runs twice. Recovery uses a *fixed* restart cost so the
/// config is independent of global engine-cache state (test order).
fn resilient_spec(seed: u64, fault_seed: u64, rate: f64) -> ServeSpec {
    let slo = SimDuration::from_millis(100);
    let policies = ResiliencePolicies::standard(slo)
        .hedge(HedgePolicy::fixed(SimDuration::from_millis(20)))
        .recovery(RecoverySpec::fixed(SimDuration::from_millis(80), 2));
    let base = ServeSpec::new(Platform::jetson_nano())
        .tenant(
            ServeTenant::parse("resnet50:fp16:1:2", ArrivalProcess::poisson(rate))
                .unwrap()
                .queue_cap(16),
        )
        .slo(slo)
        .warmup(SimDuration::from_millis(100))
        .duration(SimDuration::from_millis(500))
        .seed(seed)
        .resilience(policies);
    let plan =
        FaultPlan::seeded(fault_seed, base.horizon(), 2, 1).oom_policy(OomPolicy::KillLargest);
    base.faults(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Retry, hedge and recovery timelines are bit-replayable: the same
    /// seed and fault plan reproduce the exact request timeline — every
    /// backoff draw, hedge firing and restart included.
    #[test]
    fn resilient_timelines_replay_bit_identically(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 20.0f64..120.0,
    ) {
        let spec = resilient_spec(seed, fault_seed, rate);
        let a = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let b = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        prop_assert_eq!(&a.requests, &b.requests);
        prop_assert_eq!(&a.serve_events, &b.serve_events);
        prop_assert_eq!(&a.fault_events, &b.fault_events);
        prop_assert_eq!(a.sim_events, b.sim_events);
    }

    /// Hedged pairs never double-count goodput: the report counts chain
    /// roots, so served can never exceed offered even when both physical
    /// twins complete.
    #[test]
    fn hedged_pairs_never_double_count_goodput(
        seed in any::<u64>(),
        rate in 50.0f64..250.0,
        hedge_ms in 1u64..10,
    ) {
        let warmup = SimDuration::from_millis(100);
        let spec = ServeSpec::new(Platform::orin_nano())
            .tenant(
                ServeTenant::parse(
                    "resnet50:int8:1:2",
                    ArrivalProcess::poisson(rate),
                )
                .unwrap(),
            )
            .slo(SimDuration::from_millis(50))
            .warmup(warmup)
            .duration(SimDuration::from_millis(500))
            .seed(seed)
            .resilience(
                ResiliencePolicies::none()
                    .hedge(HedgePolicy::fixed(SimDuration::from_millis(hedge_ms))),
            );
        let trace = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let report = spec.run().unwrap();
        let g = &report.groups[0];
        prop_assert_eq!(g.served + g.failed + g.unfinished, g.offered);
        prop_assert!(g.served <= g.offered);
        prop_assert!(g.goodput_qps <= g.served_qps + 1e-9);
        // Offered is exactly the in-window chain roots …
        let window_start = SimTime::ZERO + warmup;
        let roots = trace
            .requests
            .iter()
            .filter(|r| r.is_root() && r.arrival >= window_start)
            .count();
        prop_assert_eq!(g.offered, roots);
        // … while physical completions may exceed it (both twins ran).
        let completions = trace.requests.iter().filter(|r| r.served()).count();
        prop_assert!(completions >= g.served, "a served root has a completed attempt");
        prop_assert!(g.attempts >= g.offered, "hedges only add attempts");
    }

    /// A tripped breaker admits zero requests until its half-open probe:
    /// every arrival strictly between a BreakerTrip and the next
    /// BreakerHalfOpen (retries and hedges included) is turned away with
    /// [`DropKind::BreakerOpen`].
    #[test]
    fn tripped_breaker_admits_zero_until_half_open(
        seed in any::<u64>(),
        window in 8usize..32,
        cooldown_ms in 10u64..40,
    ) {
        let spec = ServeSpec::new(Platform::orin_nano())
            .tenant(
                ServeTenant::parse(
                    "resnet50:int8:1",
                    ArrivalProcess::poisson(4000.0),
                )
                .unwrap()
                .queue_cap(8),
            )
            .slo(SimDuration::from_millis(50))
            .warmup(SimDuration::from_millis(100))
            .duration(SimDuration::from_millis(500))
            .seed(seed)
            .resilience(ResiliencePolicies::none().breaker(
                BreakerPolicy::new(window, 0.5)
                    .cooldown(SimDuration::from_millis(cooldown_ms)),
            ));
        let end = SimTime::ZERO + spec.horizon();
        let trace = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let trips: Vec<SimTime> = trace
            .serve_events
            .iter()
            .filter(|e| matches!(e.kind, ServeEventKind::BreakerTrip { .. }))
            .map(|e| e.time)
            .collect();
        prop_assert!(!trips.is_empty(), "a 4000 qps flood on queue_cap 8 must trip");
        for &trip in &trips {
            let until = trace
                .serve_events
                .iter()
                .find(|e| e.time > trip && matches!(e.kind, ServeEventKind::BreakerHalfOpen))
                .map_or(end, |e| e.time);
            for r in &trace.requests {
                if r.arrival > trip && r.arrival < until {
                    prop_assert_eq!(
                        r.dropped.map(|d| d.kind),
                        Some(DropKind::BreakerOpen),
                        "request at {:?} slipped through an open breaker",
                        r.arrival
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// ServeReport against a naive reference model.
// ---------------------------------------------------------------------

/// The straightforward roll-up the report is checked against: resolve
/// every record to its chain root, roll chains up in a `HashMap`, then
/// scan all chains and all serve events once per group. Slow, but
/// obviously right.
fn reference_report(
    trace: &RunTrace,
    slo: SimDuration,
    warmup: SimDuration,
    deadline: Option<SimDuration>,
) -> ServeReport {
    struct Chain {
        group: usize,
        arrival: SimTime,
        in_window: bool,
        completion: Option<SimTime>,
        pending: bool,
        attempts: usize,
    }
    let window_start = SimTime::ZERO + warmup;
    let measured_secs = trace.measured.as_secs_f64();
    let n = trace.requests.len();
    let mut root = vec![0usize; n];
    let mut chains: HashMap<usize, Chain> = HashMap::new();
    let n_groups = trace.serve_group_labels.len();
    let mut rejected = vec![0usize; n_groups];
    let mut shed = vec![0usize; n_groups];
    let mut deadline_expired = vec![0usize; n_groups];
    let mut killed_inflight = vec![0usize; n_groups];
    let mut hedge_losers = vec![0usize; n_groups];
    let mut breaker_rejected = vec![0usize; n_groups];
    let mut wait_total = vec![SimDuration::ZERO; n_groups];
    let mut wait_count = vec![0usize; n_groups];
    for (i, r) in trace.requests.iter().enumerate() {
        root[i] = match r.retry_of.or(r.hedge_of) {
            Some(parent) => root[parent],
            None => i,
        };
        let chain = chains.entry(root[i]).or_insert_with(|| Chain {
            group: r.group,
            arrival: r.arrival,
            in_window: r.arrival >= window_start,
            completion: None,
            pending: false,
            attempts: 0,
        });
        chain.attempts += 1;
        let in_window = chain.in_window;
        if let Some(at) = r.completed {
            chain.completion = Some(chain.completion.map_or(at, |best| best.min(at)));
        } else if r.dropped.is_none() {
            chain.pending = true;
        }
        if !in_window {
            continue;
        }
        if let Some(drop) = &r.dropped {
            match drop.kind {
                DropKind::Rejected => rejected[r.group] += 1,
                DropKind::Shed => shed[r.group] += 1,
                DropKind::DeadlineExpired => deadline_expired[r.group] += 1,
                DropKind::Killed => killed_inflight[r.group] += 1,
                DropKind::HedgeLoser => hedge_losers[r.group] += 1,
                DropKind::BreakerOpen => breaker_rejected[r.group] += 1,
                _ => {}
            }
        }
        if r.completed.is_some() {
            if let Some(wait) = r.queue_wait() {
                wait_total[r.group] += wait;
                wait_count[r.group] += 1;
            }
        }
    }

    let groups = trace
        .serve_group_labels
        .iter()
        .enumerate()
        .map(|(g, label)| {
            let (mut offered, mut served, mut failed, mut unfinished) = (0, 0, 0, 0);
            let (mut attempts, mut within_slo, mut within_deadline) = (0, 0, 0);
            let mut latencies: Vec<SimDuration> = Vec::new();
            let promise = deadline.unwrap_or(slo);
            for chain in chains.values() {
                if chain.group != g || !chain.in_window {
                    continue;
                }
                offered += 1;
                attempts += chain.attempts;
                match chain.completion {
                    Some(at) => {
                        served += 1;
                        let latency = at.saturating_since(chain.arrival);
                        within_slo += usize::from(latency <= slo);
                        within_deadline += usize::from(latency <= promise);
                        latencies.push(latency);
                    }
                    None if chain.pending => unfinished += 1,
                    None => failed += 1,
                }
            }
            latencies.sort_unstable();

            let (mut batches, mut batched_requests) = (0usize, 0u64);
            let (mut degraded_batches, mut max_queue_depth, mut breaker_trips) = (0, 0, 0);
            let (mut replica_restarts, mut replica_ejected) = (0usize, 0);
            let mut down_at: HashMap<usize, SimTime> = HashMap::new();
            let mut recovery_total = SimDuration::ZERO;
            for e in trace
                .serve_events
                .iter()
                .filter(|e| e.group == g && e.time >= window_start)
            {
                match e.kind {
                    ServeEventKind::BatchFormed {
                        size,
                        queue_depth,
                        degraded,
                        ..
                    } => {
                        batches += 1;
                        batched_requests += u64::from(size);
                        degraded_batches += usize::from(degraded);
                        max_queue_depth = max_queue_depth.max(queue_depth + size as usize);
                    }
                    ServeEventKind::BreakerTrip { .. } => breaker_trips += 1,
                    ServeEventKind::ReplicaDown { pid, .. } => {
                        down_at.insert(pid, e.time);
                    }
                    ServeEventKind::ReplicaUp { pid } => {
                        replica_restarts += 1;
                        if let Some(down) = down_at.remove(&pid) {
                            recovery_total += e.time.saturating_since(down);
                        }
                    }
                    ServeEventKind::ReplicaEjected { .. } => replica_ejected += 1,
                    _ => {}
                }
            }

            let window_end = window_start + trace.measured;
            let mut up_set: HashSet<usize> = HashSet::new();
            let mut serving_at_down: HashMap<usize, bool> = HashMap::new();
            let mut provisioned_at: HashMap<usize, (SimTime, bool)> = HashMap::new();
            let (mut cold_starts, mut warm_starts, mut cold_tax_count) = (0, 0, 0);
            let mut cold_tax_total = SimDuration::ZERO;
            let (mut reaps, mut scale_to_zero_parks) = (0, 0);
            let mut replica_seconds = 0.0f64;
            let mut last_t = SimTime::ZERO;
            let advance = |to: SimTime, up: usize, last_t: &mut SimTime, acc: &mut f64| {
                let from = (*last_t).max(window_start);
                let until = to.min(window_end);
                if until > from {
                    *acc += up as f64 * until.saturating_since(from).as_secs_f64();
                }
                *last_t = to;
            };
            for e in trace.serve_events.iter().filter(|e| e.group == g) {
                match e.kind {
                    ServeEventKind::ReplicaProvisioned { pid, cold } => {
                        provisioned_at.insert(pid, (e.time, cold));
                        if cold {
                            cold_starts += 1;
                        } else {
                            warm_starts += 1;
                        }
                    }
                    ServeEventKind::ReplicaWarmed { pid } => {
                        advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                        up_set.insert(pid);
                        if let Some((at, true)) = provisioned_at.remove(&pid) {
                            cold_tax_total += e.time.saturating_since(at);
                            cold_tax_count += 1;
                        }
                    }
                    ServeEventKind::ReplicaReaped { pid } => {
                        advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                        up_set.remove(&pid);
                        reaps += 1;
                    }
                    ServeEventKind::ReplicaDown { pid, .. } => {
                        advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                        provisioned_at.remove(&pid);
                        serving_at_down.insert(pid, up_set.remove(&pid));
                    }
                    ServeEventKind::ReplicaUp { pid }
                        if serving_at_down.remove(&pid).unwrap_or(false) =>
                    {
                        advance(e.time, up_set.len(), &mut last_t, &mut replica_seconds);
                        up_set.insert(pid);
                    }
                    ServeEventKind::ParkedToZero => scale_to_zero_parks += 1,
                    _ => {}
                }
            }
            advance(window_end, up_set.len(), &mut last_t, &mut replica_seconds);

            let per_sec = |count: usize| {
                if measured_secs > 0.0 {
                    count as f64 / measured_secs
                } else {
                    0.0
                }
            };
            let over_offered = |count: usize| {
                if offered > 0 {
                    count as f64 / offered as f64
                } else {
                    0.0
                }
            };
            let ratio = |num: f64, den: usize| if den > 0 { num / den as f64 } else { 0.0 };
            let pct = |q: f64| nearest_rank(&latencies, q).map_or(0.0, SimDuration::as_millis_f64);
            GroupReport {
                label: label.clone(),
                offered,
                served,
                failed,
                rejected: rejected[g],
                shed: shed[g],
                deadline_expired: deadline_expired[g],
                killed_inflight: killed_inflight[g],
                hedge_losers: hedge_losers[g],
                breaker_rejected: breaker_rejected[g],
                unfinished,
                attempts,
                retry_amplification: over_offered(attempts),
                offered_qps: per_sec(offered),
                served_qps: per_sec(served),
                goodput_qps: per_sec(within_slo),
                slo_attainment: over_offered(within_slo),
                deadline_hit_rate: over_offered(within_deadline),
                p50_ms: pct(50.0),
                p95_ms: pct(95.0),
                p99_ms: pct(99.0),
                mean_queue_wait_ms: ratio(wait_total[g].as_millis_f64(), wait_count[g]),
                mean_batch: if batches > 0 {
                    batched_requests as f64 / batches as f64
                } else {
                    0.0
                },
                max_queue_depth,
                degraded_batches,
                breaker_trips,
                replica_restarts,
                replica_ejected,
                mttr_ms: ratio(recovery_total.as_millis_f64(), replica_restarts),
                replica_seconds,
                cold_starts,
                warm_starts,
                cold_start_tax_ms: ratio(cold_tax_total.as_millis_f64(), cold_tax_count),
                reaps,
                scale_to_zero_parks,
            }
        })
        .collect();
    ServeReport {
        device: trace.device_name.clone(),
        measured_secs,
        slo_ms: slo.as_millis_f64(),
        groups,
    }
}

const ALL_DROP_KINDS: [DropKind; 6] = [
    DropKind::Rejected,
    DropKind::Shed,
    DropKind::DeadlineExpired,
    DropKind::Killed,
    DropKind::HedgeLoser,
    DropKind::BreakerOpen,
];

/// A synthetic serving trace over `n_groups` groups: `n` records in
/// arrival order, where a record is a fresh root or (with probability
/// `link_p`) a retry or hedge of an earlier record in the same group,
/// and ends served, dropped with any [`DropKind`], or still queued or
/// in flight. Serve events of every kind are scattered over the run,
/// warmup included, on a handful of pids.
fn synthetic_trace(seed: u64, n_groups: usize, n: usize, link_p: f64) -> RunTrace {
    let mut rng = SimRng::seed_from(seed);
    let horizon_us = 1_000_000u64;
    let gap_us = (horizon_us / n.max(1) as u64).max(1);
    let mut requests: Vec<RequestRecord> = Vec::with_capacity(n);
    let mut seqs = vec![0u64; n_groups];
    let mut now = 0u64;
    for i in 0..n {
        now += rng.uniform_u64(0, 2 * gap_us);
        let parent = (i > 0 && rng.chance(link_p)).then(|| rng.uniform_u64(0, i as u64 - 1));
        let parent = parent.map(|p| p as usize);
        let hedge = parent.is_some() && rng.chance(0.5);
        let group = match parent {
            Some(p) => requests[p].group,
            None => rng.uniform_u64(0, n_groups as u64 - 1) as usize,
        };
        let arrival = SimTime::from_nanos(now * 1_000);
        let after = |rng: &mut SimRng, t: SimTime| {
            t + SimDuration::from_nanos(rng.uniform_u64(0, 80_000) * 1_000)
        };
        let mut r = RequestRecord {
            group,
            seq: seqs[group],
            arrival,
            dispatched: None,
            completed: None,
            dropped: None,
            pid: None,
            batch_size: 0,
            degraded: false,
            attempt: 0,
            retry_of: None,
            hedge_of: None,
        };
        seqs[group] += 1;
        match parent {
            Some(p) if hedge => r.hedge_of = Some(p),
            Some(p) => {
                r.retry_of = Some(p);
                r.attempt = requests[p].attempt + 1;
            }
            None => {}
        }
        // 0: served, 1: dropped, 2: queued at the end, 3: in flight at
        // the end.
        let outcome = rng.uniform_u64(0, 3);
        if outcome == 0 || outcome == 3 || (outcome == 1 && rng.chance(0.3)) {
            let at = after(&mut rng, arrival);
            r.dispatched = Some(at);
            r.pid = Some(rng.uniform_u64(0, 3) as usize);
            r.batch_size = rng.uniform_u64(1, 8) as u32;
            r.degraded = rng.chance(0.2);
        }
        match outcome {
            0 => r.completed = Some(after(&mut rng, r.dispatched.unwrap())),
            1 => {
                let kind = ALL_DROP_KINDS[rng.uniform_u64(0, 5) as usize];
                let at = after(&mut rng, r.dispatched.unwrap_or(arrival));
                r.dropped = Some(DropRecord { at, kind });
            }
            _ => {}
        }
        requests.push(r);
    }

    let mut serve_events: Vec<ServeEvent> = (0..n / 2)
        .map(|_| {
            let pid = rng.uniform_u64(0, 3) as usize;
            let kind = match rng.uniform_u64(0, 13) {
                0 => ServeEventKind::BatchFormed {
                    pid,
                    size: rng.uniform_u64(1, 8) as u32,
                    oldest_wait: SimDuration::from_nanos(rng.uniform_u64(0, 5_000_000)),
                    queue_depth: rng.uniform_u64(0, 64) as usize,
                    degraded: rng.chance(0.3),
                },
                1 => ServeEventKind::DegradeEnter { queue_depth: 3 },
                2 => ServeEventKind::BreakerTrip { error_rate: 0.5 },
                3 => ServeEventKind::ReplicaDown {
                    pid,
                    failed_inflight: 1,
                },
                4 => ServeEventKind::ReplicaUp { pid },
                5 => ServeEventKind::ReplicaEjected { pid },
                6 => ServeEventKind::ReplicaProvisioned {
                    pid,
                    cold: rng.chance(0.5),
                },
                7 | 8 => ServeEventKind::ReplicaWarmed { pid },
                9 => ServeEventKind::ReplicaReaped { pid },
                10 => ServeEventKind::DegradeExit { queue_depth: 0 },
                11 => ServeEventKind::BreakerHalfOpen,
                12 => ServeEventKind::BreakerClose,
                _ => ServeEventKind::ParkedToZero,
            };
            ServeEvent {
                time: SimTime::from_nanos(rng.uniform_u64(0, horizon_us) * 1_000),
                group: rng.uniform_u64(0, n_groups as u64 - 1) as usize,
                kind,
            }
        })
        .collect();
    serve_events.sort_by_key(|e| e.time);

    RunTrace {
        device_name: "synthetic".into(),
        measured: SimDuration::from_millis(800),
        processes: vec![],
        kernel_names: vec![],
        ec_records: vec![],
        kernel_events: vec![],
        preemptions: vec![],
        power_samples: vec![],
        fault_events: vec![],
        requests,
        serve_events,
        serve_group_labels: (0..n_groups).map(|g| format!("tenant{g}")).collect(),
        budget_exceeded: false,
        sim_events: 0,
        gpu_busy: SimDuration::ZERO,
        gpu_memory_bytes: 0,
        gpu_memory_percent: 0.0,
        final_freq_mhz: 0,
        top_freq_mhz: 0,
        mem_bandwidth_bytes_per_sec: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The report equals the naive reference roll-up on synthetic traces
    /// with several groups, retry and hedge chains, every drop kind,
    /// chains still pending at the end, roots on both sides of the
    /// warmup boundary, and serve events of every kind.
    #[test]
    fn serve_report_matches_reference_model(
        seed in any::<u64>(),
        n_groups in 1usize..5,
        n in 0usize..600,
        link_p in 0.0f64..0.7,
        slo_ms in 1u64..100,
        deadline_ms in proptest::option::weighted(0.5, 1u64..100),
    ) {
        let trace = synthetic_trace(seed, n_groups, n, link_p);
        let slo = SimDuration::from_millis(slo_ms);
        let warmup = SimDuration::from_millis(200);
        let deadline = deadline_ms.map(SimDuration::from_millis);
        let report = ServeReport::from_trace_with_deadline(&trace, slo, warmup, deadline);
        prop_assert_eq!(report, reference_report(&trace, slo, warmup, deadline));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same reference check on real resilient runs: retries, hedges,
    /// breaker drops and OOM kills under a seeded fault plan.
    #[test]
    fn serve_report_matches_reference_model_on_resilient_runs(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 20.0f64..300.0,
    ) {
        let spec = resilient_spec(seed, fault_seed, rate);
        let trace = Simulation::new(spec.build_config().unwrap()).unwrap().run();
        let slo = SimDuration::from_millis(100);
        let warmup = SimDuration::from_millis(100);
        let deadline = Some(SimDuration::from_millis(40));
        prop_assert_eq!(
            ServeReport::from_trace_with_deadline(&trace, slo, warmup, deadline),
            reference_report(&trace, slo, warmup, deadline)
        );
    }
}
