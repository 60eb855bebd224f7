//! Shared pieces of the workloads: output digests, per-pass counters,
//! the trace-size accounting and a small worker pool.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use jetsim_sim::RunTrace;

/// Worker threads for sweeps, fleets and the traced run's site and cell
/// fan-out. Fixed rather than read from the host, so a run does the same
/// work on any machine.
pub const WORKERS: usize = 2;

/// The program seed for benchmark seed `seed`: the workspace's default
/// seed for 0, offset by the benchmark seed otherwise.
pub fn program_seed(seed: u64) -> u64 {
    jetsim_serve::scenario::DEFAULT_SEED.wrapping_add(seed)
}

/// Counts taken at layer boundaries during one pass, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Adds `value` to counter `name`.
pub fn add(counters: &mut Counters, name: &'static str, value: f64) {
    *counters.entry(name).or_insert(0.0) += value;
}

/// FNV-1a: a stable, dependency-free digest of simulated outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of any serialisable simulated output.
pub fn digest_json<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("simulated outputs serialise")
            .as_bytes(),
    )
}

/// Sebastiano Vigna's splitmix64 finalizer.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Records a finished simulation's event count, its trace record counts
/// and the bytes its `RunTrace` vectors hold (capacity × element size).
pub fn count_trace(trace: &RunTrace, counters: &mut Counters) {
    let ec_records: usize = trace.ec_records.iter().map(Vec::len).sum();
    let trace_bytes = vec_bytes(&trace.processes)
        + vec_bytes(&trace.kernel_names)
        + vec_bytes(&trace.ec_records)
        + trace.ec_records.iter().map(vec_bytes).sum::<usize>()
        + vec_bytes(&trace.kernel_events)
        + vec_bytes(&trace.preemptions)
        + vec_bytes(&trace.power_samples)
        + vec_bytes(&trace.fault_events)
        + vec_bytes(&trace.requests)
        + vec_bytes(&trace.serve_events)
        + vec_bytes(&trace.serve_group_labels);
    add(counters, "sim.events", trace.sim_events as f64);
    add(
        counters,
        "sim.records.requests",
        trace.requests.len() as f64,
    );
    add(
        counters,
        "sim.records.kernel_events",
        trace.kernel_events.len() as f64,
    );
    add(counters, "sim.records.ec_records", ec_records as f64);
    add(
        counters,
        "sim.records.serve_events",
        trace.serve_events.len() as f64,
    );
    add(
        counters,
        "sim.records.power_samples",
        trace.power_samples.len() as f64,
    );
    add(counters, "sim.trace_bytes", trace_bytes as f64);
}

/// Maps `f` over `items` on `workers` scoped threads, claiming items by
/// an atomic index; results come back in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break;
                        };
                        done.push((index, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("benchmark worker panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item mapped once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u32> = (0..50).collect();
        assert_eq!(
            par_map(&items, 3, |x| x * 2),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
        assert!(par_map(&[] as &[u32], 2, |x| *x).is_empty());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
