//! Host-thread parallelism for sweep binaries.
//!
//! Simulation config points are independent, so ablation and scaling
//! sweeps run them on a pool of worker threads, one per available host
//! core. Workers claim the next unclaimed point until none are left, and
//! results come back in input order. Each point is timed on the worker
//! that runs it, from claim to finish, so time spent waiting for a free
//! worker never counts as work and the reported speedup can never exceed
//! the worker count.

use std::num::NonZero;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timing of a parallel sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTiming {
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Sum of per-point runtimes, each measured on its worker — what a
    /// serial sweep would have cost.
    pub serial_estimate: Duration,
    /// Worker threads the sweep ran on.
    pub workers: usize,
}

impl SweepTiming {
    /// Wall-clock speedup of the pool over the serial estimate. At most
    /// [`SweepTiming::workers`], up to timer noise.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.serial_estimate.as_secs_f64() / wall
        } else {
            1.0
        }
    }

    /// Sweep throughput: config points per wall-clock second.
    #[must_use]
    pub fn points_per_s(&self, points: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            points as f64 / wall
        } else {
            0.0
        }
    }

    /// One-line human-readable summary for a binary's output.
    #[must_use]
    pub fn report(&self, points: usize) -> String {
        format!(
            "{points} config points in {:.2?} wall ({:.2} points/s) on {} host workers \
             ({:.2?} serial estimate, {:.2}x speedup)",
            self.wall,
            self.points_per_s(points),
            self.workers,
            self.serial_estimate,
            self.speedup()
        )
    }
}

/// Runs `f` over every item on a pool of
/// [`std::thread::available_parallelism`] worker threads (never more
/// than there are items), returning results in input order plus the
/// sweep timing.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn parallel_sweep<T, R, F>(items: Vec<T>, f: F) -> (Vec<R>, SweepTiming)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZero::get)
        .min(items.len())
        .max(1);
    let points = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let finished: Vec<Vec<(usize, R, Duration)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // `Relaxed`: the counter only hands out indexes;
                        // each item travels behind its own mutex.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else {
                            return done;
                        };
                        let item = slot
                            .lock()
                            .expect("sweep slot lock")
                            .take()
                            .expect("each point is claimed once");
                        let t0 = Instant::now();
                        let out = f(item);
                        done.push((i, out, t0.elapsed()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut results: Vec<Option<R>> = (0..points).map(|_| None).collect();
    let mut serial_estimate = Duration::ZERO;
    for (i, out, took) in finished.into_iter().flatten() {
        serial_estimate += took;
        results[i] = Some(out);
    }
    let ordered = results
        .into_iter()
        .map(|r| r.expect("every point ran"))
        .collect();
    (
        ordered,
        SweepTiming {
            wall,
            serial_estimate,
            workers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let (results, timing) = parallel_sweep((0..16).collect(), |i: i32| i * i);
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert!(timing.serial_estimate >= Duration::ZERO);
        assert!(timing.speedup() > 0.0);
    }

    #[test]
    fn actually_overlaps_work() {
        let (results, timing) = parallel_sweep(vec![10u64; 8], |ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        assert_eq!(results.len(), 8);
        // Eight 10 ms sleeps in parallel must take well under 80 ms.
        assert!(
            timing.wall < timing.serial_estimate,
            "wall {:?} vs serial {:?}",
            timing.wall,
            timing.serial_estimate
        );
    }

    #[test]
    fn speedup_never_exceeds_the_worker_count() {
        // More sleep-bound points than workers: points queue for a free
        // worker, and that wait must not count as work.
        let points = 4 * std::thread::available_parallelism().map_or(1, NonZero::get);
        let (results, timing) = parallel_sweep(vec![15u64; points], |ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        assert_eq!(results.len(), points);
        assert!(timing.workers >= 1 && timing.workers <= points);
        assert!(
            timing.speedup() <= timing.workers as f64 * 1.05,
            "{}",
            timing.report(points)
        );
        assert!(
            timing.serial_estimate >= Duration::from_millis(15) * points as u32,
            "every point's own runtime is counted once"
        );
    }

    #[test]
    fn report_mentions_speedup() {
        let timing = SweepTiming {
            wall: Duration::from_millis(100),
            serial_estimate: Duration::from_millis(400),
            workers: 4,
        };
        let line = timing.report(4);
        assert!(line.contains("4 config points"));
        assert!(line.contains("4.00x"));
        assert!(line.contains("40.00 points/s"));
        assert!(line.contains("on 4 host workers"));
    }
}
