//! The pass loop of an untraced run: repeat the workload body until both a
//! pass floor and a time floor are met, timing each pass in wall and CPU
//! seconds.

use std::time::Instant;

use crate::procfs;

/// When the pass loop may stop, and which first pass is a warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassPolicy {
    /// Fewest timed passes.
    pub min_passes: usize,
    /// Fewest seconds the timed passes must add up to.
    pub min_seconds: f64,
    /// A first pass shorter than this is an untimed warm-up: it is cheap
    /// to repeat, and short passes are the ones a cold cache distorts. A
    /// longer first pass is kept, so the long workloads do not spend a
    /// third of their run on a pass that is thrown away.
    pub warmup_below_seconds: f64,
}

/// Where the loop reads time from; tests substitute a scripted clock.
pub trait Clock {
    /// Monotonic wall seconds.
    fn wall_seconds(&mut self) -> f64;
    /// CPU seconds (user + system, all threads) of this process.
    fn cpu_seconds(&mut self) -> f64;
}

/// The real clock: `Instant` and `/proc/self/stat`.
pub struct ProcessClock {
    origin: Instant,
}

impl ProcessClock {
    /// A clock starting now.
    pub fn new() -> Self {
        ProcessClock { origin: Instant::now() }
    }
}

impl Default for ProcessClock {
    fn default() -> Self {
        ProcessClock::new()
    }
}

impl Clock for ProcessClock {
    fn wall_seconds(&mut self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn cpu_seconds(&mut self) -> f64 {
        procfs::cpu_seconds().expect("/proc/self/stat is readable on Linux")
    }
}

/// One timed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass<T> {
    /// Wall seconds the pass took.
    pub wall_seconds: f64,
    /// CPU seconds the process consumed during the pass.
    pub cpu_seconds: f64,
    /// What the body returned.
    pub output: T,
}

/// Run `body` until `policy` is satisfied; returns the timed passes (the
/// warm-up, if one was taken, is not among them). `gap` runs untimed in
/// every gap: before each timed pass and after the last one.
pub fn run_passes<T>(
    policy: &PassPolicy,
    clock: &mut impl Clock,
    mut gap: impl FnMut(),
    mut body: impl FnMut() -> T,
) -> Vec<Pass<T>> {
    let mut passes = Vec::new();
    let first = timed(clock, &mut body);
    if first.wall_seconds >= policy.warmup_below_seconds {
        passes.push(first);
    } else {
        gap();
    }
    while passes.len() < policy.min_passes.max(1)
        || passes.iter().map(|p| p.wall_seconds).sum::<f64>() < policy.min_seconds
    {
        if !passes.is_empty() {
            gap();
        }
        passes.push(timed(clock, &mut body));
    }
    gap();
    passes
}

fn timed<T>(clock: &mut impl Clock, body: &mut impl FnMut() -> T) -> Pass<T> {
    let (wall, cpu) = (clock.wall_seconds(), clock.cpu_seconds());
    let output = body();
    Pass { wall_seconds: clock.wall_seconds() - wall, cpu_seconds: clock.cpu_seconds() - cpu, output }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that advances by a fixed step per body call: wall time is
    /// `calls × step`, CPU time half of that.
    struct Scripted {
        step: f64,
        calls: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl Clock for Scripted {
        fn wall_seconds(&mut self) -> f64 {
            self.calls.get() as f64 * self.step
        }
        fn cpu_seconds(&mut self) -> f64 {
            self.calls.get() as f64 * self.step / 2.0
        }
    }

    fn run_counting_gaps(step: f64, policy: PassPolicy) -> (usize, usize, Vec<Pass<usize>>) {
        let calls = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let mut clock = Scripted { step, calls: calls.clone() };
        let mut gaps = 0usize;
        let passes = run_passes(
            &policy,
            &mut clock,
            || gaps += 1,
            || {
                calls.set(calls.get() + 1);
                calls.get()
            },
        );
        (calls.get(), gaps, passes)
    }

    fn run(step: f64, policy: PassPolicy) -> (usize, Vec<Pass<usize>>) {
        let (calls, _, passes) = run_counting_gaps(step, policy);
        (calls, passes)
    }

    #[test]
    fn gaps_surround_the_timed_passes_only() {
        let policy = PassPolicy { min_passes: 3, min_seconds: 0.0, warmup_below_seconds: 2.0 };
        // Warm-up taken: one gap before each of three passes, one after.
        let (_, gaps, passes) = run_counting_gaps(1.0, policy);
        assert_eq!((passes.len(), gaps), (3, 4));
        // First pass kept: it had no gap before it.
        let (_, gaps, passes) = run_counting_gaps(5.0, policy);
        assert_eq!((passes.len(), gaps), (3, 3));
    }

    #[test]
    fn short_passes_stop_at_the_time_floor_after_a_warm_up() {
        let policy = PassPolicy { min_passes: 3, min_seconds: 10.0, warmup_below_seconds: 2.0 };
        let (calls, passes) = run(1.0, policy);
        // One discarded warm-up, then ten 1 s passes reach the 10 s floor.
        assert_eq!((calls, passes.len()), (11, 10));
        assert_eq!(passes[0].output, 2, "the warm-up's output is not among the timed passes");
        assert!(passes.iter().all(|p| p.wall_seconds == 1.0 && p.cpu_seconds == 0.5));
    }

    #[test]
    fn long_passes_stop_at_the_pass_floor_and_keep_the_first_pass() {
        let policy = PassPolicy { min_passes: 3, min_seconds: 10.0, warmup_below_seconds: 2.0 };
        let (calls, passes) = run(6.0, policy);
        // 12 s after two passes already clears the time floor; the pass
        // floor asks for a third. No warm-up: the first pass is kept.
        assert_eq!((calls, passes.len()), (3, 3));
        assert_eq!(passes[0].output, 1);
    }

    #[test]
    fn time_floor_binds_when_the_pass_floor_is_already_met() {
        let policy = PassPolicy { min_passes: 2, min_seconds: 10.0, warmup_below_seconds: 2.0 };
        let (_, passes) = run(4.0, policy);
        assert_eq!(passes.len(), 3, "8 s after two passes is under the 10 s floor");
    }

    #[test]
    fn a_zero_pass_floor_still_measures_one_pass() {
        let policy = PassPolicy { min_passes: 0, min_seconds: 0.0, warmup_below_seconds: 0.0 };
        let (calls, passes) = run(1.0, policy);
        assert_eq!((calls, passes.len()), (1, 1));
    }
}
