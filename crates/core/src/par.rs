//! An ordered parallel map over scoped worker threads.

use std::sync::Mutex;

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in item order, whatever the worker count.
///
/// Workers pull the next item from a shared queue, so uneven items
/// balance themselves. `workers` is clamped to `[1, items.len()]`. A
/// panic in `f` propagates to the caller once every worker has stopped.
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("work queue lock").next();
                        let Some((index, item)) = next else {
                            break;
                        };
                        done.push((index, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (index, result) in done {
                        slots[index] = Some(result);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is mapped exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [0, 1, 8] {
            assert_eq!(
                par_map(items.clone(), workers, |x| x * x),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn more_workers_than_items_and_no_items() {
        assert_eq!(par_map(vec![3, 1, 2], 8, |x: i32| -x), vec![-3, -1, -2]);
        assert!(par_map(Vec::<u8>::new(), 0, |x| x).is_empty());
    }
}
