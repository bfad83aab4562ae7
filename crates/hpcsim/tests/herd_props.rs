//! Property tests for the shared model-load bandwidth resource
//! ([`LustreModel::model_load_channels`]).
//!
//! * **Conservation**: the report's `herd_queue_seconds` equals the sum of
//!   per-task [`ScheduledTask::herd_wait_seconds`] — bitwise, folded in
//!   schedule order;
//! * **No early compute**: a task's slot occupancy always covers its herd
//!   wait, its paid model load, and its compute — weights must finish
//!   streaming before compute begins;
//! * **Channel cap**: at most k paid loads are ever in flight at once, and
//!   the report's `concurrent_cold_starts_peak` is exactly the sweep peak
//!   of the schedule's load intervals;
//! * **Monotonicity**: on a symmetric herd (identical tasks, one node),
//!   makespan is monotone non-increasing in the channel count k, and once
//!   k reaches the unlimited-channel peak the schedule is bitwise the
//!   unlimited one;
//! * **Legacy default**: zero channels (the default) pays no herd wait.

use hpcsim::{
    CampaignReport, ClusterConfig, ExecutorConfig, LustreModel, ScheduledTask, SlotKind, SubmitOptions, Task,
    WorkflowExecutor,
};
use proptest::prelude::*;

const MAX_TASKS: usize = 24;

/// Random GPU-heavy workloads with positive cold starts — the herd regime.
fn herd_workload() -> impl Strategy<Value = Vec<Task>> {
    (
        3usize..MAX_TASKS,
        prop::collection::vec(1u32..30, MAX_TASKS..MAX_TASKS + 1),
        prop::collection::vec(0u8..12, MAX_TASKS..MAX_TASKS + 1),
    )
        .prop_map(|(n, durations, shape)| {
            (0..n)
                .map(|i| {
                    let gpu = shape[i] % 4 != 0;
                    let kind = if gpu { SlotKind::Gpu } else { SlotKind::Cpu };
                    let mut task = Task::new(i as u64, kind, durations[i] as f64 * 0.2)
                        .with_input_mb(shape[i] as f64 * 2.0);
                    if gpu {
                        task = task
                            .with_label(match shape[i] % 3 {
                                0 => "Nougat",
                                1 => "Marker",
                                _ => "GOT",
                            })
                            .with_cold_start(5.0 + (shape[i] % 4) as f64 * 3.0);
                    }
                    task
                })
                .collect()
        })
}

fn run(
    tasks: &[Task],
    channels: usize,
    warm_start: bool,
    cluster: &ClusterConfig,
) -> (CampaignReport, Vec<ScheduledTask>) {
    let fs = LustreModel { model_load_channels: channels, ..Default::default() };
    let executor = WorkflowExecutor::new(ExecutorConfig { warm_start, ..Default::default() });
    let mut session = executor.session(cluster);
    session.submit_owned(tasks.to_vec(), SubmitOptions::default());
    let report = session.advance_to_frontier(&fs);
    (report, session.schedule().to_vec())
}

fn cluster() -> ClusterConfig {
    ClusterConfig { nodes: 2, cpu_slots_per_node: 2, gpu_slots_per_node: 3 }
}

/// Exact sweep peak over the schedule's paid-load intervals
/// `[start + herd_wait, start + herd_wait + cold)`.
fn sweep_peak(schedule: &[ScheduledTask]) -> usize {
    let intervals: Vec<(f64, f64)> = schedule
        .iter()
        .filter(|row| row.cold_start_paid_seconds > 0.0)
        .map(|row| {
            let load_start = row.start_seconds + row.herd_wait_seconds;
            (load_start, load_start + row.cold_start_paid_seconds)
        })
        .collect();
    let mut starts: Vec<f64> = intervals.iter().map(|&(s, _)| s).collect();
    let mut ends: Vec<f64> = intervals.iter().map(|&(_, e)| e).collect();
    starts.sort_by(f64::total_cmp);
    ends.sort_by(f64::total_cmp);
    let (mut peak, mut open, mut closed) = (0usize, 0usize, 0usize);
    for &s in &starts {
        while closed < ends.len() && ends[closed] <= s {
            closed += 1;
        }
        open += 1;
        peak = peak.max(open - closed);
    }
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn herd_waits_are_conserved_bitwise(
        tasks in herd_workload(),
        channels in 1usize..5,
        warm_flag in 0u8..2,
    ) {
        let warm = warm_flag == 1;
        let (report, schedule) = run(&tasks, channels, warm, &cluster());
        let mut folded = 0.0f64;
        for row in &schedule {
            folded += row.herd_wait_seconds;
        }
        prop_assert_eq!(
            folded.to_bits(),
            report.herd_queue_seconds.to_bits(),
            "sum of per-task herd waits ({}) must equal the report's total queue time ({}) bitwise",
            folded,
            report.herd_queue_seconds
        );
    }

    #[test]
    fn compute_never_starts_before_the_model_finishes_loading(
        tasks in herd_workload(),
        channels in 1usize..5,
        warm_flag in 0u8..2,
    ) {
        let warm = warm_flag == 1;
        let (_, schedule) = run(&tasks, channels, warm, &cluster());
        for row in &schedule {
            let compute = tasks[row.id as usize].compute_seconds;
            let occupancy = row.finish_seconds - row.start_seconds;
            let floor = row.herd_wait_seconds + row.cold_start_paid_seconds + compute;
            prop_assert!(
                occupancy >= floor - 1e-9,
                "task {}: occupancy {} cannot cover wait {} + load {} + compute {}",
                row.id,
                occupancy,
                row.herd_wait_seconds,
                row.cold_start_paid_seconds,
                compute
            );
        }
    }

    #[test]
    fn at_most_k_loads_are_ever_in_flight(
        tasks in herd_workload(),
        channels in 1usize..5,
        warm_flag in 0u8..2,
    ) {
        let warm = warm_flag == 1;
        let (report, schedule) = run(&tasks, channels, warm, &cluster());
        let peak = sweep_peak(&schedule);
        prop_assert!(
            peak <= channels,
            "{} concurrent loads exceed the {} configured channels",
            peak,
            channels
        );
        prop_assert_eq!(
            report.concurrent_cold_starts_peak, peak,
            "the report's peak must be exactly the sweep peak of the schedule's load intervals"
        );
        if report.cold_starts > 0 {
            prop_assert!(report.concurrent_cold_starts_peak >= 1);
        }
    }

    #[test]
    fn unlimited_channels_pay_no_herd_wait(tasks in herd_workload(), warm_flag in 0u8..2) {
        let warm = warm_flag == 1;
        let (report, schedule) = run(&tasks, 0, warm, &cluster());
        prop_assert_eq!(report.herd_queue_seconds.to_bits(), 0.0f64.to_bits());
        for row in &schedule {
            prop_assert_eq!(row.herd_wait_seconds.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn enough_channels_reproduce_the_unlimited_schedule_bitwise(
        tasks in herd_workload(),
        warm_flag in 0u8..2,
    ) {
        let warm = warm_flag == 1;
        // With k at least the unlimited run's concurrency peak no load ever
        // queues, so herd waits are identically zero and every float op
        // reduces to the legacy arithmetic.
        let unlimited = run(&tasks, 0, warm, &cluster());
        let k = unlimited.0.concurrent_cold_starts_peak.max(1);
        let capped = run(&tasks, k, warm, &cluster());
        prop_assert_eq!(unlimited, capped);
    }

    #[test]
    fn symmetric_herd_makespan_is_monotone_non_increasing_in_channels(
        gpu_slots in 2usize..7,
        herd_size in 4usize..20,
        cold_deciseconds in 10u32..200,
        compute_deciseconds in 1u32..100,
    ) {
        // The symmetric family: one node, identical dependency-free GPU
        // tasks all ready at t = 0, warm starts off so every task pays its
        // load. Each task's herd wait is then determined by load-channel
        // availability alone, and adding a channel can only relax every
        // wait — the regime where greedy list scheduling has no Graham
        // anomaly. (Monotonicity in k is *not* claimed for arbitrary
        // DAG-shaped workloads.)
        let cold = cold_deciseconds as f64 * 0.1;
        let compute = compute_deciseconds as f64 * 0.1;
        let tasks: Vec<Task> = (0..herd_size as u64)
            .map(|i| Task::new(i, SlotKind::Gpu, compute).with_label("Nougat").with_cold_start(cold))
            .collect();
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 0, gpu_slots_per_node: gpu_slots };
        let mut previous = f64::INFINITY;
        // k = 0 is unlimited: the loosest schedule, checked last.
        for k in [1usize, 2, 3, 4, 6, 8, 0] {
            let (report, _) = run(&tasks, k, false, &cluster);
            prop_assert!(
                report.makespan_seconds <= previous + 1e-9,
                "k = {} lengthened the symmetric herd: {} after {}",
                k,
                report.makespan_seconds,
                previous
            );
            previous = report.makespan_seconds;
            // At least two slots start loading at t = 0: one channel must
            // queue the second load, unlimited channels must overlap them.
            if k == 1 {
                prop_assert!(report.herd_queue_seconds > 0.0, "one channel under a forced herd queues loads");
            }
            if k == 0 {
                prop_assert!(report.concurrent_cold_starts_peak > 1, "the unserialized herd overlaps loads");
            }
        }
    }
}
