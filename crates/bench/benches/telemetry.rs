//! Telemetry-layer costs: the registry primitives a Hogwild worker would
//! hammer (counter/histogram updates) and the end-to-end observer overhead
//! on a real CLAPF fit (noop vs. disabled vs. enabled-full-stats).
//!
//! The `overhead` binary's `observer` leg reports the same fit triad as
//! JSON (`results/BENCH_overhead.json`).

use clapf_core::{Clapf, ClapfConfig};
use clapf_data::synthetic::{generate, WorldConfig};
use clapf_data::Interactions;
use clapf_sampling::{DssMode, DssSampler};
use clapf_telemetry::{Control, EpochStats, NoopObserver, Registry, TrainObserver};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn world() -> Interactions {
    let cfg = WorldConfig {
        n_users: 200,
        n_items: 400,
        target_pairs: 8_000,
        ..WorldConfig::default()
    };
    generate(&cfg, &mut SmallRng::seed_from_u64(1)).unwrap()
}

/// Relaxed-atomic registry primitives: these run inside sampler/eval hot
/// paths, so their cost per call is what bounds instrumentation overhead.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");
    let reg = Registry::new();
    let counter = reg.counter("bench.counter");
    let hist = reg.histogram("bench.hist", || {
        clapf_telemetry::Histogram::exponential(1.0, 2.0, 12)
    });

    group.bench_function("counter_add", |b| {
        b.iter(|| counter.add(black_box(3)))
    });
    group.bench_function("histogram_record", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = (x * 6364136223846793005).wrapping_add(1442695040888963407);
            hist.record(black_box((x >> 52) as f64))
        })
    });
    group.bench_function("registry_snapshot", |b| {
        b.iter(|| black_box(reg.snapshot()))
    });
    group.finish();
}

/// An enabled observer paying full epoch-statistics cost.
#[derive(Default)]
struct FullObserver {
    checksum: f64,
}

impl TrainObserver for FullObserver {
    fn on_epoch(&mut self, stats: &EpochStats) -> Control {
        self.checksum += stats.loss + stats.user_norm + stats.item_norm + stats.triples_per_sec;
        Control::Continue
    }
}

/// The same CLAPF-over-DSS fit (the paper's pipeline, as in the
/// `overhead` binary's observer leg) with no observer, a disabled observer,
/// and an enabled one — the three points of the overhead acceptance bound.
fn bench_observed_fit(c: &mut Criterion) {
    let data = world();
    let steps = data.n_pairs() * 4;
    let trainer = Clapf::new(ClapfConfig {
        dim: 16,
        iterations: steps,
        ..ClapfConfig::map(0.4)
    });
    let mut group = c.benchmark_group("telemetry_fit");
    group.sample_size(10);

    group.bench_function("fit_plain", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut sampler = DssSampler::dss(DssMode::Map);
            let (m, _) = trainer.fit(&data, &mut sampler, &mut rng);
            black_box(m.mf.params_sq_norm())
        })
    });
    group.bench_function("fit_observer_disabled", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut sampler = DssSampler::dss(DssMode::Map);
            let (m, _) = trainer.fit_observed(&data, &mut sampler, &mut rng, &mut NoopObserver);
            black_box(m.mf.params_sq_norm())
        })
    });
    group.bench_function("fit_observer_enabled", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut sampler = DssSampler::dss(DssMode::Map);
            let mut obs = FullObserver::default();
            let (m, _) = trainer.fit_observed(&data, &mut sampler, &mut rng, &mut obs);
            black_box(obs.checksum);
            black_box(m.mf.params_sq_norm())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_observed_fit);
criterion_main!(benches);
