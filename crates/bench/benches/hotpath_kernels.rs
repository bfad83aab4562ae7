//! Benchmarks of the simulator-side hot path, kernel by kernel and once end
//! to end: the executor's [`ReadyQueue`] (every task passes through it
//! twice — once as an event, once as a dispatch; collision-heavy and
//! in-order inputs), the budget selector's
//! `select_global` (a bounded-heap top-k), the [`LatencyLedger`] (one
//! `record` per completed document in the serve loop and per scheduled task
//! in the closed loop, one selection per `summary()`), [`IdMap`] on strided
//! task ids (several probes per task under the executor's
//! completed/anchor/pending maps and the serve loop's awaiting map), and a
//! whole [`run_closed_loop`] campaign through the public API
//! (`closed_loop/run_closed_loop/20000`: selection, task emission, executor
//! session, harvest, deferred observations and retirement together — the
//! row that moves when the loop's own bookkeeping does). Deterministic
//! seeded inputs, so runs are comparable across commits alongside
//! `BENCH_hotpath.json`.

use adaparse::{
    run_closed_loop, select_global, AdaParseConfig, ControllerConfig, LatencyLedger, SimLoopConfig,
    WorkloadSpec,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hpcsim::{IdMap, ReadyQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 2] = [1_000, 100_000];

/// Deterministic `(time, id)` pairs with heavy time collisions so the
/// id/sequence tiebreaks are exercised, not just the float compare.
fn arrivals(n: usize) -> Vec<(f64, u64)> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n).map(|i| ((rng.gen_range(0.0f64..64.0)).floor(), i as u64)).collect()
}

fn scores(n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n).map(|_| rng.gen_range(0.0f64..1.0)).collect()
}

fn bench_ready_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("ready_queue");
    for &n in &SIZES {
        // `push_pop` collides on time and arrives out of order (mostly the
        // heap); `push_pop_in_order` is a drain's seeding shape — one
        // release floor, ascending ids — which the run takes whole.
        let in_order = (0..n as u64).map(|id| (0.0, id)).collect();
        for (name, input) in [("push_pop", arrivals(n)), ("push_pop_in_order", in_order)] {
            group.bench_with_input(BenchmarkId::new(name, n), &input, |b, input| {
                b.iter(|| {
                    let mut queue = ReadyQueue::new();
                    for &(time, id) in black_box(input) {
                        queue.push(time, id, id as usize);
                    }
                    let mut last = 0u64;
                    while let Some((_, id, _)) = queue.pop() {
                        last = id;
                    }
                    last
                })
            });
        }
    }
    group.finish();
}

fn bench_select_global(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_global");
    for &n in &SIZES {
        let input = scores(n);
        // alpha = 0.1 keeps k = n/10: large enough to stress the heap's
        // replace path, small enough that the bound over a full sort shows.
        group.bench_with_input(BenchmarkId::new("alpha_0_1", n), &input, |b, input| {
            b.iter(|| select_global(black_box(input), 0.1))
        });
    }
    group.finish();
}

fn bench_ledger(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    // All-distinct latencies, as continuous arrival times make them.
    let n = 100_000;
    let input: Vec<f64> = scores(n).iter().enumerate().map(|(i, u)| i as f64 * 1e-3 + u).collect();
    group.bench_with_input(BenchmarkId::new("ledger_record_summary", n), &input, |b, input| {
        b.iter(|| {
            let mut ledger = LatencyLedger::new();
            for &latency in black_box(input) {
                ledger.record(latency);
            }
            ledger.summary()
        })
    });
    group.finish();
}

fn bench_id_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    for &n in &SIZES {
        // Task ids as `tasks_for_choices` strides whole-document choices
        // (`task_id_stride(0)` = 2): `doc · 2` and, for every fifth
        // document, `doc · 2 + 1`.
        let ids: Vec<u64> = (0..n as u64)
            .flat_map(|doc| [Some(doc * 2), (doc % 5 == 0).then_some(doc * 2 + 1)])
            .flatten()
            .collect();
        group.bench_with_input(BenchmarkId::new("id_map_insert_get", n), &ids, |b, ids| {
            b.iter(|| {
                let mut map: IdMap<f64> = IdMap::default();
                for &id in black_box(ids) {
                    map.insert(id, id as f64);
                }
                ids.iter().filter_map(|id| map.get(id)).sum::<f64>()
            })
        });
    }
    group.finish();
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("closed_loop");
    // `bench_million`'s shape at a size a criterion sample affords: 79
    // windows of 256 on 4 nodes, long enough that almost every window is
    // retired before the close.
    let n = 20_000;
    let input = scores(n);
    let config = AdaParseConfig::default();
    let workload = WorkloadSpec { documents: n, pages_per_doc: 8, mb_per_doc: 20.0 };
    let sim = SimLoopConfig {
        window: 256,
        nodes: 4,
        controller: ControllerConfig { total_workers: 8, patience: 1, ..Default::default() },
        ..Default::default()
    };
    group.bench_with_input(BenchmarkId::new("run_closed_loop", n), &input, |b, input| {
        b.iter(|| run_closed_loop(&config, black_box(input), &workload, &sim).makespan_seconds)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ready_queue,
    bench_select_global,
    bench_ledger,
    bench_id_map,
    bench_closed_loop
);
criterion_main!(benches);
