//! Trace buffers for the DES hot loop: columnar (structure-of-arrays)
//! buffers for the append-only streams, and one row-wise request log.
//!
//! Trace recording happens millions of times per run — once per kernel,
//! once per EC, once per request-lifecycle step. Pushing whole AoS
//! structs (`Vec<KernelEvent>` entries are 96 bytes, `EcRecord` 56)
//! moves every field through the store buffer on each append and drags
//! cold fields (jitter samples, drop records) through cache lines the
//! hot loop never reads back. The columns here keep each append to a
//! handful of word-sized stores on independently growing vectors, and
//! defer struct materialisation to `finalize`, where the public
//! [`crate::RunTrace`] shape (plain `Vec<struct>`) is rebuilt exactly
//! once per run.
//!
//! Every column type has an `into_vec` compatibility view producing the
//! same AoS vector the pre-SoA code built, so `finalize`, the chrome
//! tracer and the golden-parity hashes are byte-identical.
//!
//! Requests are the exception: [`RequestLog`] keeps whole records (see
//! its docs for why).

use jetsim_des::{SimDuration, SimTime};
use jetsim_dnn::Precision;

use crate::faults::{FaultEvent, FaultKind};
use crate::serving::{DropRecord, RequestRecord, ServeEvent, ServeEventKind};
use crate::trace::{EcRecord, KernelEvent, KernelPreempted};

/// Columnar [`KernelEvent`] storage — the highest-volume trace stream
/// (one push per GPU kernel).
#[derive(Debug, Default)]
pub(crate) struct KernelEventColumns {
    pid: Vec<u32>,
    ec_seq: Vec<u64>,
    kernel_index: Vec<u32>,
    start: Vec<SimTime>,
    end: Vec<SimTime>,
    precision: Vec<Precision>,
    sm_active: Vec<f64>,
    issue_slot: Vec<f64>,
    tc_activity: Vec<f64>,
    bytes: Vec<u64>,
}

impl KernelEventColumns {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        KernelEventColumns {
            pid: Vec::with_capacity(capacity),
            ec_seq: Vec::with_capacity(capacity),
            kernel_index: Vec::with_capacity(capacity),
            start: Vec::with_capacity(capacity),
            end: Vec::with_capacity(capacity),
            precision: Vec::with_capacity(capacity),
            sm_active: Vec::with_capacity(capacity),
            issue_slot: Vec::with_capacity(capacity),
            tc_activity: Vec::with_capacity(capacity),
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Records one kernel execution.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn push(
        &mut self,
        pid: usize,
        ec_seq: u64,
        kernel_index: usize,
        start: SimTime,
        end: SimTime,
        precision: Precision,
        sm_active: f64,
        issue_slot: f64,
        tc_activity: f64,
        bytes: u64,
    ) {
        self.pid.push(pid as u32);
        self.ec_seq.push(ec_seq);
        self.kernel_index.push(kernel_index as u32);
        self.start.push(start);
        self.end.push(end);
        self.precision.push(precision);
        self.sm_active.push(sm_active);
        self.issue_slot.push(issue_slot);
        self.tc_activity.push(tc_activity);
        self.bytes.push(bytes);
    }

    /// Materialises the AoS view consumed by [`crate::RunTrace`].
    pub(crate) fn into_vec(self) -> Vec<KernelEvent> {
        let mut out = Vec::with_capacity(self.pid.len());
        for i in 0..self.pid.len() {
            out.push(KernelEvent {
                pid: self.pid[i] as usize,
                ec_seq: self.ec_seq[i],
                kernel_index: self.kernel_index[i] as usize,
                start: self.start[i],
                end: self.end[i],
                precision: self.precision[i],
                sm_active: self.sm_active[i],
                issue_slot: self.issue_slot[i],
                tc_activity: self.tc_activity[i],
                bytes: self.bytes[i],
            });
        }
        out
    }
}

/// Columnar [`EcRecord`] storage: one column per timing component, one
/// push per completed execution context.
#[derive(Debug, Default)]
pub(crate) struct EcColumns {
    start: Vec<SimTime>,
    end: Vec<SimTime>,
    launch_time: Vec<SimDuration>,
    blocking_time: Vec<SimDuration>,
    sync_time: Vec<SimDuration>,
    gpu_time: Vec<SimDuration>,
    queue_delay: Vec<SimDuration>,
}

impl EcColumns {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EcColumns {
            start: Vec::with_capacity(capacity),
            end: Vec::with_capacity(capacity),
            launch_time: Vec::with_capacity(capacity),
            blocking_time: Vec::with_capacity(capacity),
            sync_time: Vec::with_capacity(capacity),
            gpu_time: Vec::with_capacity(capacity),
            queue_delay: Vec::with_capacity(capacity),
        }
    }

    /// Scatters one record across the columns.
    #[inline]
    pub(crate) fn push(&mut self, r: EcRecord) {
        self.start.push(r.start);
        self.end.push(r.end);
        self.launch_time.push(r.launch_time);
        self.blocking_time.push(r.blocking_time);
        self.sync_time.push(r.sync_time);
        self.gpu_time.push(r.gpu_time);
        self.queue_delay.push(r.queue_delay);
    }

    /// Gathers records back, in push order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = EcRecord> + '_ {
        (0..self.start.len()).map(move |i| EcRecord {
            start: self.start[i],
            end: self.end[i],
            launch_time: self.launch_time[i],
            blocking_time: self.blocking_time[i],
            sync_time: self.sync_time[i],
            gpu_time: self.gpu_time[i],
            queue_delay: self.queue_delay[i],
        })
    }
}

/// Columnar [`FaultEvent`] storage (rare events, but the `String` in
/// [`FaultKind::ProcessKilled`] made the AoS struct non-`Copy`, which
/// poisoned the hot-path push with clone machinery).
#[derive(Debug, Default)]
pub(crate) struct FaultColumns {
    time: Vec<SimTime>,
    kind: Vec<FaultKind>,
}

impl FaultColumns {
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, kind: FaultKind) {
        self.time.push(time);
        self.kind.push(kind);
    }

    pub(crate) fn into_vec(self) -> Vec<FaultEvent> {
        self.time
            .into_iter()
            .zip(self.kind)
            .map(|(time, kind)| FaultEvent { time, kind })
            .collect()
    }
}

/// Columnar [`KernelPreempted`] storage (one push per cancelled
/// kernel; only preemptive policies ever append).
#[derive(Debug, Default)]
pub(crate) struct PreemptionColumns {
    pid: Vec<u32>,
    ec_seq: Vec<u64>,
    kernel_index: Vec<u32>,
    start: Vec<SimTime>,
    preempted_at: Vec<SimTime>,
    by_pid: Vec<u32>,
}

impl PreemptionColumns {
    /// Records one cancelled kernel.
    #[inline]
    pub(crate) fn push(
        &mut self,
        pid: usize,
        ec_seq: u64,
        kernel_index: usize,
        start: SimTime,
        preempted_at: SimTime,
        by_pid: usize,
    ) {
        self.pid.push(pid as u32);
        self.ec_seq.push(ec_seq);
        self.kernel_index.push(kernel_index as u32);
        self.start.push(start);
        self.preempted_at.push(preempted_at);
        self.by_pid.push(by_pid as u32);
    }

    /// Materialises the AoS view consumed by [`crate::RunTrace`].
    pub(crate) fn into_vec(self) -> Vec<KernelPreempted> {
        let mut out = Vec::with_capacity(self.pid.len());
        for i in 0..self.pid.len() {
            out.push(KernelPreempted {
                pid: self.pid[i] as usize,
                ec_seq: self.ec_seq[i],
                kernel_index: self.kernel_index[i] as usize,
                start: self.start[i],
                preempted_at: self.preempted_at[i],
                by_pid: self.by_pid[i] as usize,
            });
        }
        out
    }
}

/// Columnar [`ServeEvent`] storage (one push per batch formation or
/// degradation flip).
#[derive(Debug, Default)]
pub(crate) struct ServeEventColumns {
    time: Vec<SimTime>,
    group: Vec<u32>,
    kind: Vec<ServeEventKind>,
}

impl ServeEventColumns {
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, group: usize, kind: ServeEventKind) {
        self.time.push(time);
        self.group.push(group as u32);
        self.kind.push(kind);
    }

    pub(crate) fn into_vec(self) -> Vec<ServeEvent> {
        self.time
            .into_iter()
            .zip(self.group)
            .zip(self.kind)
            .map(|((time, group), kind)| ServeEvent {
                time,
                group: group as usize,
                kind,
            })
            .collect()
    }
}

/// The request log: one [`RequestRecord`] per request, in arrival
/// order. Requests mutate in place as they move through their lifecycle
/// (arrive → dispatch → complete, or drop) through indexed setters, and
/// [`RequestLog::finish`] hands the same vector to the
/// [`crate::RunTrace`].
///
/// Row-wise on purpose, unlike the append-only columns above: every
/// lifecycle step rewrites a record long after it was pushed, and the
/// public trace is row-wise, so the log moves into the trace as is.
/// Gathering columns into rows would hold two copies of the log live at
/// once, and in an overloaded serve run nearly every offered request is
/// a record.
#[derive(Debug, Default)]
pub(crate) struct RequestLog {
    records: Vec<RequestRecord>,
}

impl RequestLog {
    /// Appends a freshly arrived request and returns its index.
    #[inline]
    pub(crate) fn push_arrival(&mut self, group: usize, seq: u64, arrival: SimTime) -> usize {
        let ri = self.records.len();
        self.records.push(RequestRecord {
            group,
            seq,
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
        });
        ri
    }

    #[inline]
    pub(crate) fn arrival(&self, ri: usize) -> SimTime {
        self.records[ri].arrival
    }

    #[inline]
    pub(crate) fn group(&self, ri: usize) -> usize {
        self.records[ri].group
    }

    #[inline]
    pub(crate) fn attempt(&self, ri: usize) -> u32 {
        self.records[ri].attempt
    }

    /// `true` while the request is still waiting in its admission queue.
    #[inline]
    pub(crate) fn is_queued(&self, ri: usize) -> bool {
        let r = &self.records[ri];
        r.dispatched.is_none() && r.unfinished()
    }

    /// `true` while the request is dispatched but not yet terminal.
    #[inline]
    pub(crate) fn is_in_flight(&self, ri: usize) -> bool {
        let r = &self.records[ri];
        r.dispatched.is_some() && r.unfinished()
    }

    /// Marks `ri` as attempt `attempt` retrying the earlier record
    /// `parent`.
    #[inline]
    pub(crate) fn mark_retry(&mut self, ri: usize, attempt: u32, parent: usize) {
        let r = &mut self.records[ri];
        r.attempt = attempt;
        r.retry_of = Some(parent);
    }

    /// Marks `ri` as the hedge duplicate of the in-flight `primary`.
    #[inline]
    pub(crate) fn mark_hedge(&mut self, ri: usize, primary: usize) {
        self.records[ri].hedge_of = Some(primary);
    }

    /// `true` when `ri` is a hedge duplicate.
    #[inline]
    pub(crate) fn is_hedge(&self, ri: usize) -> bool {
        self.records[ri].hedge_of.is_some()
    }

    #[inline]
    pub(crate) fn mark_dropped(&mut self, ri: usize, record: DropRecord) {
        self.records[ri].dropped = Some(record);
    }

    #[inline]
    pub(crate) fn mark_completed(&mut self, ri: usize, at: SimTime) {
        self.records[ri].completed = Some(at);
    }

    /// Records a batch dispatch for one member request.
    #[inline]
    pub(crate) fn mark_dispatched(
        &mut self,
        ri: usize,
        at: SimTime,
        pid: usize,
        batch_size: u32,
        degraded: bool,
    ) {
        let r = &mut self.records[ri];
        r.dispatched = Some(at);
        r.pid = Some(pid);
        r.batch_size = batch_size;
        r.degraded = degraded;
    }

    /// Hands the log over as the [`crate::RunTrace::requests`] vector,
    /// trimmed so its capacity equals its length.
    pub(crate) fn finish(mut self) -> Vec<RequestRecord> {
        self.records.shrink_to_fit();
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::DropKind;

    #[test]
    fn kernel_columns_round_trip() {
        let mut cols = KernelEventColumns::with_capacity(2);
        cols.push(
            3,
            7,
            1,
            SimTime::from_nanos(10),
            SimTime::from_nanos(30),
            Precision::Int8,
            0.9,
            0.3,
            0.5,
            4096,
        );
        let v = cols.into_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pid, 3);
        assert_eq!(v[0].ec_seq, 7);
        assert_eq!(v[0].kernel_index, 1);
        assert_eq!(v[0].duration(), SimDuration::from_nanos(20));
        assert_eq!(v[0].bytes, 4096);
    }

    #[test]
    fn ec_columns_round_trip_in_push_order() {
        let mut cols = EcColumns::with_capacity(4);
        let rec = |n: u64| EcRecord {
            start: SimTime::from_nanos(n),
            end: SimTime::from_nanos(n + 5),
            launch_time: SimDuration::from_nanos(1),
            blocking_time: SimDuration::from_nanos(2),
            sync_time: SimDuration::from_nanos(3),
            gpu_time: SimDuration::from_nanos(4),
            queue_delay: SimDuration::ZERO,
        };
        cols.push(rec(100));
        cols.push(rec(50));
        let back: Vec<EcRecord> = cols.iter().collect();
        assert_eq!(back, vec![rec(100), rec(50)], "push order preserved");
    }

    #[test]
    fn request_columns_lifecycle() {
        let mut cols = RequestLog::default();
        let a = cols.push_arrival(0, 0, SimTime::from_nanos(5));
        let b = cols.push_arrival(1, 1, SimTime::from_nanos(6));
        assert_eq!((a, b), (0, 1));
        assert_eq!(cols.arrival(b), SimTime::from_nanos(6));
        cols.mark_dispatched(a, SimTime::from_nanos(9), 2, 4, true);
        cols.mark_completed(a, SimTime::from_nanos(20));
        cols.mark_dropped(
            b,
            DropRecord {
                at: SimTime::from_nanos(7),
                kind: DropKind::Shed,
            },
        );
        let v = cols.finish();
        assert_eq!(v[0].pid, Some(2));
        assert_eq!(v[0].batch_size, 4);
        assert!(v[0].degraded);
        assert!(v[0].is_root());
        assert_eq!(v[0].latency(), Some(SimDuration::from_nanos(15)));
        assert_eq!(
            v[1].dropped.as_ref().map(|d| d.at),
            Some(SimTime::from_nanos(7))
        );
        assert_eq!(v[1].pid, None);
    }

    #[test]
    fn request_columns_track_retry_and_hedge_links() {
        let mut cols = RequestLog::default();
        let root = cols.push_arrival(0, 0, SimTime::from_nanos(1));
        let retry = cols.push_arrival(0, 1, SimTime::from_nanos(10));
        cols.mark_retry(retry, 1, root);
        let hedge = cols.push_arrival(0, 2, SimTime::from_nanos(20));
        cols.mark_hedge(hedge, retry);
        assert_eq!(cols.group(hedge), 0);
        assert_eq!(cols.attempt(retry), 1);
        assert!(cols.is_queued(root));
        cols.mark_dispatched(root, SimTime::from_nanos(5), 0, 1, false);
        assert!(!cols.is_queued(root));
        assert!(cols.is_in_flight(root));
        cols.mark_completed(root, SimTime::from_nanos(9));
        assert!(!cols.is_in_flight(root));
        let v = cols.finish();
        assert_eq!(v[retry].retry_of, Some(root));
        assert_eq!(v[retry].attempt, 1);
        assert_eq!(v[hedge].hedge_of, Some(retry));
        assert!(v[root].is_root() && !v[retry].is_root() && !v[hedge].is_root());
    }

    /// The log grows by doubling, so a run's trace would otherwise keep
    /// up to twice the bytes its records need.
    #[test]
    fn request_columns_hand_over_a_trimmed_log() {
        use std::sync::Arc;

        use jetsim_des::ArrivalProcess;
        use jetsim_dnn::zoo;
        use jetsim_trt::EngineBuilder;

        use crate::serving::{AdmissionPolicy, ServeGroup, ServePlan};
        use crate::{SimConfig, Simulation};

        let device = jetsim_device::presets::orin_nano();
        let engine = Arc::new(
            EngineBuilder::new(&device)
                .precision(Precision::Int8)
                .batch(1)
                .build(&zoo::resnet50())
                .unwrap(),
        );
        let config = SimConfig::builder(device)
            .add_engine_named("resnet50/0", engine)
            .serve(
                ServePlan::new().group(
                    ServeGroup::new("resnet50", ArrivalProcess::poisson(20_000.0))
                        .members([0])
                        .queue_cap(16)
                        .admission(AdmissionPolicy::Reject),
                ),
            )
            .warmup(SimDuration::from_millis(10))
            .measure(SimDuration::from_millis(90))
            .seed(7)
            .build()
            .unwrap();
        let trace = Simulation::new(config).unwrap().run();
        assert!(trace.requests.len() > 1_000, "an overloaded run");
        assert_eq!(trace.requests.capacity(), trace.requests.len());
    }

    #[test]
    fn preemption_columns_round_trip() {
        let mut cols = PreemptionColumns::default();
        cols.push(
            2,
            11,
            4,
            SimTime::from_nanos(100),
            SimTime::from_nanos(160),
            0,
        );
        let v = cols.into_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pid, 2);
        assert_eq!(v[0].ec_seq, 11);
        assert_eq!(v[0].kernel_index, 4);
        assert_eq!(v[0].by_pid, 0);
        assert_eq!(v[0].wasted(), SimDuration::from_nanos(60));
    }

    #[test]
    fn serve_and_fault_columns_round_trip() {
        let mut serve = ServeEventColumns::default();
        serve.push(
            SimTime::from_nanos(1),
            3,
            ServeEventKind::DegradeEnter { queue_depth: 9 },
        );
        let v = serve.into_vec();
        assert_eq!(v[0].group, 3);
        assert_eq!(v[0].kind, ServeEventKind::DegradeEnter { queue_depth: 9 });

        let mut faults = FaultColumns::default();
        faults.push(
            SimTime::from_nanos(2),
            FaultKind::MemorySpikeStart { bytes: 64 },
        );
        let v = faults.into_vec();
        assert_eq!(v[0].time, SimTime::from_nanos(2));
        assert_eq!(v[0].kind, FaultKind::MemorySpikeStart { bytes: 64 });
    }
}
