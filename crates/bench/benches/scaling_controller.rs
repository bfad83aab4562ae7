//! Kernels of the resource-scaling engine: the controller's per-wave
//! decision and the windowed selector's per-window selection. Both sit on
//! the streaming pipeline's sequential path (between waves), so their cost
//! bounds how small a window can be before routing overhead shows up.

use adaparse::{ControllerConfig, ScalingController, StageSample, WaveStats, WindowedSelector};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scores(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn bench_controller_observe(c: &mut Criterion) {
    c.bench_function("scaling_controller/observe_1k_waves", |b| {
        b.iter(|| {
            let mut controller = ScalingController::new(ControllerConfig { total_workers: 16, patience: 2 });
            for wave in 0..1000usize {
                let parse_seconds = 1.0 + ((wave % 13) as f64) * 0.3;
                controller.observe_at(
                    black_box(2.0 * wave as f64),
                    black_box(&WaveStats {
                        wave_index: wave,
                        extract: StageSample { busy_seconds: 1.5, items: 256 },
                        parse: StageSample { busy_seconds: parse_seconds, items: 256 },
                        queue_depth: 256_000 - wave * 256,
                    }),
                );
            }
            controller.history().len()
        })
    });
}

fn bench_windowed_selection(c: &mut Criterion) {
    let corpus = scores(65_536, 7);
    let mut group = c.benchmark_group("windowed_selector");
    for &window in &[64usize, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("select_all", window), &window, |b, &window| {
            b.iter(|| WindowedSelector::new(window, 0.05).select_all(black_box(&corpus)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_controller_observe, bench_windowed_selection);
criterion_main!(benches);
