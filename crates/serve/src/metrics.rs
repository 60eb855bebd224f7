//! SLO-aware request metrics distilled from a serving [`RunTrace`].
//!
//! Accounting is **logical**: a retry or hedge duplicate links back to
//! its parent via [`jetsim_sim::serving::RequestRecord::retry_of`] /
//! `hedge_of`, and the report counts each *chain* once — by its root.
//! A logical request is served when any chain member completes (the
//! earliest completion wins, so a hedge pair can never double-count
//! goodput), failed when every member reached a terminal drop, and
//! unfinished when the run ended with a member still queued or in
//! flight. Without resilience policies every chain is a single record
//! and the numbers reduce to the plain per-request accounting. The
//! chains themselves are [`chain_table`], which fleet aggregation reads
//! too.

use std::collections::{HashMap, HashSet};
use std::fmt;

use jetsim_des::{nearest_rank, SimDuration, SimTime};
use jetsim_sim::serving::{DropKind, RequestRecord, ServeEvent, ServeEventKind};
use jetsim_sim::RunTrace;
use serde::Serialize;

/// Per-tenant (serve group) request accounting over the measured window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GroupReport {
    /// Serve group label (the tenant's `model:precision:bBATCH`).
    pub label: String,
    /// Logical requests that arrived inside the measured window (chain
    /// roots; retries and hedge duplicates attribute to their root).
    pub offered: usize,
    /// Logical requests completed successfully (any chain member).
    pub served: usize,
    /// Logical requests whose every attempt ended in a terminal drop.
    pub failed: usize,
    /// Physical arrivals turned away at admission ([`DropKind::Rejected`]).
    pub rejected: usize,
    /// Physical queued requests evicted to make room ([`DropKind::Shed`]).
    pub shed: usize,
    /// Physical requests dropped because their queueing deadline expired
    /// ([`DropKind::DeadlineExpired`]).
    pub deadline_expired: usize,
    /// Physical requests that died in flight on an OOM-killed replica
    /// ([`DropKind::Killed`]).
    pub killed_inflight: usize,
    /// Hedge duplicates cancelled because their twin won
    /// ([`DropKind::HedgeLoser`]).
    pub hedge_losers: usize,
    /// Physical arrivals shed by an open circuit breaker
    /// ([`DropKind::BreakerOpen`]).
    pub breaker_rejected: usize,
    /// Logical requests still queued or in flight when the run ended.
    pub unfinished: usize,
    /// Physical attempts submitted for the window's logical requests
    /// (roots + retries + hedge duplicates).
    pub attempts: usize,
    /// `attempts / offered` — 1.0 means no retry or hedge amplification.
    pub retry_amplification: f64,
    /// Offered load, logical requests/s.
    pub offered_qps: f64,
    /// Completed logical requests/s (regardless of latency).
    pub served_qps: f64,
    /// Completed logical requests/s that met the SLO — the number that
    /// matters.
    pub goodput_qps: f64,
    /// Fraction of *offered* logical requests that completed within the
    /// SLO.
    pub slo_attainment: f64,
    /// Fraction of offered logical requests that completed within the
    /// group's deadline (the SLO when no deadline is configured).
    pub deadline_hit_rate: f64,
    /// Median end-to-end latency, ms (root arrival → first completion).
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean time spent waiting in the admission queue, ms (completed
    /// physical attempts).
    pub mean_queue_wait_ms: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Deepest queue observed at a batch formation (queued + taken).
    pub max_queue_depth: usize,
    /// Batches dispatched on the degraded fallback engine.
    pub degraded_batches: usize,
    /// Circuit-breaker trips inside the window.
    pub breaker_trips: usize,
    /// Replica restarts completed inside the window.
    pub replica_restarts: usize,
    /// Replicas ejected for good inside the window.
    pub replica_ejected: usize,
    /// Mean time-to-recovery across completed restarts, ms (0 when no
    /// replica recovered).
    pub mttr_ms: f64,
    /// Integral of serving (warmed, un-reaped) replicas over the
    /// measured window, in replica-seconds — the capacity bill an
    /// autoscaled group actually pays. 0.0 for static groups, whose bill
    /// is `instances × measured_secs` by construction.
    pub replica_seconds: f64,
    /// Cold provisions over the whole run (engine build + plan load).
    pub cold_starts: usize,
    /// Warm provisions over the whole run (plan load only).
    pub warm_starts: usize,
    /// Mean provision→serving latency across cold starts, ms — the
    /// cold-start tax a scaled-from-zero arrival eats.
    pub cold_start_tax_ms: f64,
    /// Idle replicas reaped by the keep-alive timer over the whole run.
    pub reaps: usize,
    /// Times the group scaled to zero live replicas.
    pub scale_to_zero_parks: usize,
}

/// The full serving report: one [`GroupReport`] per tenant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Device the run simulated.
    pub device: String,
    /// Measured-window length, seconds (warmup excluded).
    pub measured_secs: f64,
    /// The SLO the latency columns are judged against, ms.
    pub slo_ms: f64,
    /// Per-tenant reports, in serve-group order.
    pub groups: Vec<GroupReport>,
}

/// Rolled-up outcome of one logical request: a root record plus every
/// retry and hedge duplicate descending from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chain {
    /// Serve group of the root record.
    pub group: usize,
    /// The root's arrival; the report attributes the chain to the
    /// measured window by it.
    pub arrival: SimTime,
    /// Earliest completion across members, if any.
    pub completion: Option<SimTime>,
    /// A member is still queued or in flight.
    pub pending: bool,
    /// Physical members.
    pub attempts: usize,
}

/// The chain table of a serving trace's request log: one [`Chain`] per
/// root record, in the roots' arrival order.
pub fn chain_table(requests: &[RequestRecord]) -> Vec<Chain> {
    roll_up_chains(requests, |_, _| {})
}

/// Folds every record into its chain in one forward pass (parents always
/// precede children in arrival order), calling `visit` with each record
/// and its chain as rolled up so far.
fn roll_up_chains(
    requests: &[RequestRecord],
    mut visit: impl FnMut(&RequestRecord, &Chain),
) -> Vec<Chain> {
    let mut chain_of: Vec<u32> = Vec::with_capacity(requests.len());
    let mut chains: Vec<Chain> = Vec::with_capacity(requests.len());
    for r in requests {
        let c = match r.retry_of.or(r.hedge_of) {
            Some(parent) => chain_of[parent] as usize,
            None => {
                chains.push(Chain {
                    group: r.group,
                    arrival: r.arrival,
                    completion: None,
                    pending: false,
                    attempts: 0,
                });
                chains.len() - 1
            }
        };
        chain_of
            .push(u32::try_from(c).expect("request indices fit in u32, as in the DES event slab"));
        let chain = &mut chains[c];
        chain.attempts += 1;
        if let Some(at) = r.completed {
            chain.completion = Some(chain.completion.map_or(at, |best| best.min(at)));
        } else if r.dropped.is_none() {
            chain.pending = true;
        }
        visit(r, chain);
    }
    chains
}

/// One group's running totals while the report walks the request log,
/// the chain table and the serve events.
#[derive(Default)]
struct GroupAcc {
    // Logical requests (in-window chains).
    offered: usize,
    served: usize,
    failed: usize,
    unfinished: usize,
    attempts: usize,
    within_slo: usize,
    within_deadline: usize,
    latencies: Vec<SimDuration>,
    // Physical records of in-window chains.
    rejected: usize,
    shed: usize,
    deadline_expired: usize,
    killed_inflight: usize,
    hedge_losers: usize,
    breaker_rejected: usize,
    wait_total: SimDuration,
    wait_count: usize,
    // In-window serve events.
    batches: usize,
    batched_requests: u64,
    degraded_batches: usize,
    max_queue_depth: usize,
    breaker_trips: usize,
    replica_restarts: usize,
    replica_ejected: usize,
    down_at: HashMap<usize, SimTime>,
    recovery_total: SimDuration,
    // Autoscaling replay over every serve event.
    up_set: HashSet<usize>,
    serving_at_down: HashMap<usize, bool>,
    provisioned_at: HashMap<usize, (SimTime, bool)>,
    cold_starts: usize,
    warm_starts: usize,
    cold_tax_total: SimDuration,
    cold_tax_count: usize,
    reaps: usize,
    scale_to_zero_parks: usize,
    replica_seconds: f64,
    last_t: SimTime,
}

impl GroupAcc {
    /// Counts one physical record of an in-window chain.
    fn record(&mut self, r: &RequestRecord) {
        if let Some(drop) = &r.dropped {
            match drop.kind {
                DropKind::Rejected => self.rejected += 1,
                DropKind::Shed => self.shed += 1,
                DropKind::DeadlineExpired => self.deadline_expired += 1,
                DropKind::Killed => self.killed_inflight += 1,
                DropKind::HedgeLoser => self.hedge_losers += 1,
                DropKind::BreakerOpen => self.breaker_rejected += 1,
                _ => {}
            }
        }
        if r.completed.is_some() {
            if let Some(wait) = r.queue_wait() {
                self.wait_total += wait;
                self.wait_count += 1;
            }
        }
    }

    /// Counts one in-window logical request.
    fn chain(&mut self, chain: &Chain, slo: SimDuration, promise: SimDuration) {
        self.offered += 1;
        self.attempts += chain.attempts;
        match chain.completion {
            Some(at) => {
                self.served += 1;
                let latency = at.saturating_since(chain.arrival);
                self.within_slo += usize::from(latency <= slo);
                self.within_deadline += usize::from(latency <= promise);
                self.latencies.push(latency);
            }
            None if chain.pending => self.unfinished += 1,
            None => self.failed += 1,
        }
    }

    /// Batch and recovery statistics of one in-window serve event.
    fn window_event(&mut self, e: &ServeEvent) {
        match e.kind {
            ServeEventKind::BatchFormed {
                size,
                queue_depth,
                degraded,
                ..
            } => {
                self.batches += 1;
                self.batched_requests += u64::from(size);
                self.degraded_batches += usize::from(degraded);
                self.max_queue_depth = self.max_queue_depth.max(queue_depth + size as usize);
            }
            ServeEventKind::BreakerTrip { .. } => self.breaker_trips += 1,
            ServeEventKind::ReplicaDown { pid, .. } => {
                self.down_at.insert(pid, e.time);
            }
            ServeEventKind::ReplicaUp { pid } => {
                self.replica_restarts += 1;
                if let Some(down) = self.down_at.remove(&pid) {
                    self.recovery_total += e.time.saturating_since(down);
                }
            }
            ServeEventKind::ReplicaEjected { .. } => self.replica_ejected += 1,
            _ => {}
        }
    }

    /// Autoscaling telemetry replays the *full* event history: the
    /// serving set at window start is the product of warmups,
    /// provisions and reaps during warmup, so the replica-seconds
    /// integral cannot start from the in-window events alone. Static
    /// groups emit none of these events and keep zeros.
    fn replay_event(&mut self, e: &ServeEvent, window: (SimTime, SimTime)) {
        match e.kind {
            ServeEventKind::ReplicaProvisioned { pid, cold } => {
                self.provisioned_at.insert(pid, (e.time, cold));
                if cold {
                    self.cold_starts += 1;
                } else {
                    self.warm_starts += 1;
                }
            }
            ServeEventKind::ReplicaWarmed { pid } => {
                self.advance(e.time, window);
                self.up_set.insert(pid);
                if let Some((at, true)) = self.provisioned_at.remove(&pid) {
                    self.cold_tax_total += e.time.saturating_since(at);
                    self.cold_tax_count += 1;
                }
            }
            ServeEventKind::ReplicaReaped { pid } => {
                self.advance(e.time, window);
                self.up_set.remove(&pid);
                self.reaps += 1;
            }
            ServeEventKind::ReplicaDown { pid, .. } => {
                self.advance(e.time, window);
                // A kill mid-provision cancels the start; drop the
                // pending tax entry too.
                self.provisioned_at.remove(&pid);
                let serving = self.up_set.remove(&pid);
                self.serving_at_down.insert(pid, serving);
            }
            // Restarts revive the *process*; it rejoins the serving set
            // only if it was serving when it went down (parked replicas
            // come back parked).
            ServeEventKind::ReplicaUp { pid }
                if self.serving_at_down.remove(&pid).unwrap_or(false) =>
            {
                self.advance(e.time, window);
                self.up_set.insert(pid);
            }
            ServeEventKind::ParkedToZero => self.scale_to_zero_parks += 1,
            _ => {}
        }
    }

    /// Integrates the serving set's size from the last change up to
    /// `to`, clipped to the measured `window`.
    fn advance(&mut self, to: SimTime, (start, end): (SimTime, SimTime)) {
        let from = self.last_t.max(start);
        let until = to.min(end);
        if until > from {
            self.replica_seconds +=
                self.up_set.len() as f64 * until.saturating_since(from).as_secs_f64();
        }
        self.last_t = to;
    }

    fn into_report(mut self, label: &str, measured_secs: f64) -> GroupReport {
        self.latencies.sort_unstable();
        let per_sec = |count: usize| {
            if measured_secs > 0.0 {
                count as f64 / measured_secs
            } else {
                0.0
            }
        };
        let ratio = |num: f64, den: usize| if den > 0 { num / den as f64 } else { 0.0 };
        let over_offered = |count: usize| ratio(count as f64, self.offered);
        let pct = |q: f64| nearest_rank(&self.latencies, q).map_or(0.0, SimDuration::as_millis_f64);
        GroupReport {
            label: label.to_string(),
            offered: self.offered,
            served: self.served,
            failed: self.failed,
            rejected: self.rejected,
            shed: self.shed,
            deadline_expired: self.deadline_expired,
            killed_inflight: self.killed_inflight,
            hedge_losers: self.hedge_losers,
            breaker_rejected: self.breaker_rejected,
            unfinished: self.unfinished,
            attempts: self.attempts,
            retry_amplification: over_offered(self.attempts),
            offered_qps: per_sec(self.offered),
            served_qps: per_sec(self.served),
            goodput_qps: per_sec(self.within_slo),
            slo_attainment: over_offered(self.within_slo),
            deadline_hit_rate: over_offered(self.within_deadline),
            p50_ms: pct(50.0),
            p95_ms: pct(95.0),
            p99_ms: pct(99.0),
            mean_queue_wait_ms: ratio(self.wait_total.as_millis_f64(), self.wait_count),
            mean_batch: ratio(self.batched_requests as f64, self.batches),
            max_queue_depth: self.max_queue_depth,
            degraded_batches: self.degraded_batches,
            breaker_trips: self.breaker_trips,
            replica_restarts: self.replica_restarts,
            replica_ejected: self.replica_ejected,
            mttr_ms: ratio(self.recovery_total.as_millis_f64(), self.replica_restarts),
            replica_seconds: self.replica_seconds,
            cold_starts: self.cold_starts,
            warm_starts: self.warm_starts,
            cold_start_tax_ms: ratio(self.cold_tax_total.as_millis_f64(), self.cold_tax_count),
            reaps: self.reaps,
            scale_to_zero_parks: self.scale_to_zero_parks,
        }
    }
}

impl ServeReport {
    /// Distils per-tenant SLO metrics from a serving trace.
    ///
    /// Logical requests are attributed to the measured window by their
    /// *root's arrival* time (`arrival >= warmup`): a request that
    /// arrives in-window but completes after the configured duration
    /// still counts against attainment as `unfinished`, which is exactly
    /// the bias a real load-test window has. `deadline_hit_rate` is
    /// judged against the SLO; use [`ServeReport::from_trace_with_deadline`]
    /// when the run enforced explicit deadlines.
    pub fn from_trace(trace: &RunTrace, slo: SimDuration, warmup: SimDuration) -> Self {
        Self::from_trace_with_deadline(trace, slo, warmup, None)
    }

    /// [`ServeReport::from_trace`] with the deadline the groups enforced,
    /// so `deadline_hit_rate` is judged against the real promise instead
    /// of the SLO.
    pub fn from_trace_with_deadline(
        trace: &RunTrace,
        slo: SimDuration,
        warmup: SimDuration,
        deadline: Option<SimDuration>,
    ) -> Self {
        let window_start = SimTime::ZERO + warmup;
        let window = (window_start, window_start + trace.measured);
        let measured_secs = trace.measured.as_secs_f64();
        let mut groups: Vec<GroupAcc> = trace
            .serve_group_labels
            .iter()
            .map(|_| GroupAcc::default())
            .collect();

        // Roll records up into chains in one pass; physical drop-cause
        // counters stay per record so the report still shows *why*
        // attempts died. Every total below is order-independent (the
        // latencies are sorted), and each group's serve events keep
        // their time order, so one pass per input suffices.
        let chains = roll_up_chains(&trace.requests, |r, chain| {
            if chain.arrival >= window_start {
                groups[r.group].record(r);
            }
        });
        let promise = deadline.unwrap_or(slo);
        for chain in chains.iter().filter(|c| c.arrival >= window_start) {
            groups[chain.group].chain(chain, slo, promise);
        }
        for e in &trace.serve_events {
            let Some(acc) = groups.get_mut(e.group) else {
                continue;
            };
            if e.time >= window_start {
                acc.window_event(e);
            }
            acc.replay_event(e, window);
        }
        for acc in &mut groups {
            acc.advance(window.1, window);
        }

        ServeReport {
            device: trace.device_name.clone(),
            measured_secs,
            slo_ms: slo.as_millis_f64(),
            groups: groups
                .into_iter()
                .zip(&trace.serve_group_labels)
                .map(|(acc, label)| acc.into_report(label, measured_secs))
                .collect(),
        }
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {:.1}s measured, {:.0}ms SLO",
            self.device, self.measured_secs, self.slo_ms
        )?;
        writeln!(
            f,
            "{:<24} {:>8} {:>8} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>6}",
            "tenant",
            "offered",
            "served",
            "drops",
            "qps",
            "goodput",
            "p50ms",
            "p95ms",
            "p99ms",
            "slo%"
        )?;
        for g in &self.groups {
            writeln!(
                f,
                "{:<24} {:>8} {:>8} {:>7} {:>9.1} {:>9.1} {:>8.2} {:>8.2} {:>8.2} {:>5.1}%",
                g.label,
                g.offered,
                g.served,
                g.rejected + g.shed + g.deadline_expired + g.killed_inflight + g.breaker_rejected,
                g.served_qps,
                g.goodput_qps,
                g.p50_ms,
                g.p95_ms,
                g.p99_ms,
                g.slo_attainment * 100.0,
            )?;
        }
        Ok(())
    }
}
