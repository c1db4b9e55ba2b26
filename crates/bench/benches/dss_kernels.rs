//! Micro-rows for the DSS positive draw at the ml100k-like world's mean
//! list length (|I_u⁺| ≈ 260): the rank-column gather, the bracket pass
//! and the `u64` selection they replace on long lists, each on the
//! portable and (where the CPU has it) the AVX2 path, plus whole
//! `complete()` calls for one user with that many observed items and on
//! the whole ml100k-like world.
//!
//! `cargo bench -p bench --bench dss_kernels`

use clapf_data::synthetic;
use clapf_data::{InteractionsBuilder, ItemId, UserId};
use clapf_mf::{simd, Init, MfModel};
use clapf_sampling::{sample_observed_pair, DssMode, DssSampler, Geometric, TripleSampler};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const N_ITEMS: u32 = 1_682;
const LIST: usize = 260;
const DIM: usize = 20;

fn bench_dss_kernels(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(23);
    let model = MfModel::new(1, N_ITEMS, DIM, Init::SmallUniform { scale: 0.5 }, &mut rng);
    let mut ids: Vec<u32> = (0..N_ITEMS).collect();
    ids.shuffle(&mut rng);
    let mut items: Vec<ItemId> = ids[..LIST].iter().map(|&t| ItemId(t)).collect();
    items.sort_unstable();
    // Ranks as the draw sees them: geometric over the list, tail n/2.
    let geom = Geometric::with_tail_fraction(LIST, 0.5);
    let ranks: Vec<usize> = (0..1024).map(|_| geom.draw(LIST, &mut rng)).collect();

    let mut group = c.benchmark_group("dss_kernels");
    let mut column = Vec::new();
    group.bench_function("rank_column/item_rank_bits", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 1) % DIM;
            model.item_rank_bits(q, black_box(&items), false, false, &mut column);
        })
    });
    // `item_rank_bits` dispatches; time each kernel on a copy of the
    // list's factor rows.
    let table: Vec<f32> = items.iter().flat_map(|&t| model.item(t).to_vec()).collect();
    let local: Vec<ItemId> = (0..LIST as u32).map(ItemId).collect();
    group.bench_function("rank_column/portable_kernel", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 1) % DIM;
            simd::gather_rank_bits_portable(
                &table,
                DIM,
                q,
                black_box(&local),
                false,
                false,
                &mut column,
            );
        })
    });
    if simd::gather_rank_bits_arch(&table, DIM, 0, &local, false, false, &mut column) {
        group.bench_function("rank_column/avx2_kernel", |b| {
            let mut q = 0;
            b.iter(|| {
                q = (q + 1) % DIM;
                simd::gather_rank_bits_arch(
                    &table,
                    DIM,
                    q,
                    black_box(&local),
                    false,
                    false,
                    &mut column,
                )
            })
        });
    }

    model.item_rank_bits(0, &items, false, false, &mut column);
    let mut keys: Vec<u64> = Vec::new();
    group.bench_function("select/select_nth_unstable_u64", |b| {
        let mut at = 0;
        b.iter(|| {
            at = (at + 1) % ranks.len();
            keys.clear();
            keys.extend(
                column
                    .iter()
                    .zip(&items)
                    .map(|(&h, &t)| (u64::from(h) << 32) | u64::from(t.0)),
            );
            *keys.select_nth_unstable(ranks[at]).1
        })
    });
    let mut sorted = column.clone();
    sorted.sort_unstable();
    let (lo, hi) = (sorted[LIST / 4], sorted[LIST / 4 + LIST / 8]);
    let mut kept = Vec::new();
    group.bench_function("select/bracket_portable", |b| {
        b.iter(|| simd::bracket_portable(black_box(&column), lo, hi, &mut kept))
    });
    if simd::bracket_arch(&column, lo, hi, &mut kept).is_some() {
        group.bench_function("select/bracket_avx2", |b| {
            b.iter(|| simd::bracket_arch(black_box(&column), lo, hi, &mut kept))
        });
    }

    let mut builder = InteractionsBuilder::new(1, N_ITEMS);
    for &t in &items {
        builder.push(UserId(0), t).expect("ids are in range");
    }
    let data = builder.build().expect("one user with LIST items");
    for (name, mut sampler) in [
        ("complete/dss_map", DssSampler::dss(DssMode::Map)),
        (
            "complete/positive_only_map",
            DssSampler::positive_only(DssMode::Map),
        ),
        (
            "complete/positive_only_mrr",
            DssSampler::positive_only(DssMode::Mrr),
        ),
    ] {
        sampler.refresh(&model);
        let mut rng = SmallRng::seed_from_u64(29);
        group.bench_function(name, |b| {
            b.iter(|| {
                let i = items[rng.gen_range(0..LIST)];
                sampler.complete(&data, &model, UserId(0), i, &mut rng)
            })
        });
    }

    // Whole draws on the ml100k-like world with anchors drawn as the
    // trainer draws them (uniform over observed pairs, so each list weighs
    // by its length), pair draw included.
    let world = synthetic::ml100k_like().generate();
    let init = Init::SmallUniform { scale: 0.5 };
    let mf = MfModel::new(world.n_users(), world.n_items(), DIM, init, &mut rng);
    let mut sampler = DssSampler::dss(DssMode::Map);
    sampler.refresh(&mf);
    let mut rng = SmallRng::seed_from_u64(31);
    group.bench_function("complete/dss_map_ml100k_like", |b| {
        b.iter(|| {
            let (u, i) = sample_observed_pair(&world, &mut rng);
            sampler.complete(&world, &mf, u, i, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dss_kernels);
criterion_main!(benches);
