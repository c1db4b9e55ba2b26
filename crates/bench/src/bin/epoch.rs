//! Table 2's `time` column, and the micro-rows the docs quote, in one
//! interleaved run: `results/BENCH_epoch.json`.
//!
//! * **Epoch lanes** — one epoch (|P| SGD steps) of BPR, MPR, CLAPF-MAP
//!   over the uniform and over the DSS sampler, CLiMF, one WMF sweep, and
//!   one epoch each of NeuMF, NeuPR and DeepICF, all on the ML100K
//!   stand-in ([`ml100k_standin`], d = 20; the neural models at their
//!   16-wide embeddings). Each row reports its median seconds, quartiles
//!   and its ratio to `bpr` paired in the same rounds; `clapf_map_dss`
//!   also reports its paired ratio to `clapf_map_uniform`, the cost of a
//!   DSS step over a uniform one.
//! * **Micro lanes** — a fixed number of calls per round of the DSS draw's
//!   kernels (rank column, `u64` select, bracket, whole `complete()`), the
//!   prediction path (one `f_ui`, a catalogue, a top-10) and the telemetry
//!   primitives, reported in ns per call. AVX2 rows run only where the
//!   CPU has AVX2.
//!
//! Every lane runs once per round through [`interleave`] and does the same
//! seeded work in every round. Each returns a fingerprint of that work — a
//! fit's `params_sq_norm()` bits (a neural model's: its squared scores
//! over user 0's catalogue), a micro lane's folded outputs — and the
//! binary exits 1, after writing the report, unless every round of a lane
//! returned the same fingerprint: otherwise the rounds timed different
//! work.
//!
//! `cargo run --release -p bench --bin epoch [-- --medium]`

use bench::fixture::ml100k_standin;
use bench::timing::{interleave, median, paired_overhead_pct};
use bench::Cli;
use clapf_baselines::{Bpr, BprConfig, Climf, ClimfConfig, Mpr, MprConfig, Wmf, WmfConfig};
use clapf_core::{Clapf, ClapfConfig, Recommender};
use clapf_data::synthetic::{self, generate, WorldConfig};
use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::{simd, Init, MfModel};
use clapf_neural::{DeepIcf, DeepIcfConfig, NeuMf, NeuMfConfig, NeuPr, NeuPrConfig};
use clapf_sampling::{
    sample_observed_pair, DssMode, DssSampler, Geometric, TripleSampler, UniformSampler,
};
use clapf_telemetry::{Histogram, Registry};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;

/// Factor dimension of the MF epoch lanes and the DSS kernel rows.
const DIM: usize = 20;
/// Catalogue and list length of the DSS kernel rows: the ml100k-like
/// world's item count and mean list length (|I_u⁺| ≈ 260).
const N_ITEMS: u32 = 1_682;
const LIST: usize = 260;

#[derive(Serialize)]
struct EpochReport {
    n_users: u32,
    n_items: u32,
    n_pairs: usize,
    dim: usize,
    rounds: usize,
    epochs: Vec<EpochRow>,
    /// `clapf_map_dss` over `clapf_map_uniform`: the median of per-round
    /// ratios, i.e. what a DSS step costs over a uniform one.
    dss_vs_uniform: f64,
    micro: Vec<MicroRow>,
}

#[derive(Serialize)]
struct EpochRow {
    lane: &'static str,
    median_secs: f64,
    q1_secs: f64,
    q3_secs: f64,
    /// Median of per-round ratios to `bpr`.
    vs_bpr: f64,
    /// Every round returned the same fingerprint.
    bit_identical: bool,
}

#[derive(Serialize)]
struct MicroRow {
    lane: &'static str,
    calls_per_round: usize,
    median_ns: f64,
    q1_ns: f64,
    q3_ns: f64,
    bit_identical: bool,
}

/// One timed body: `calls` calls of the measured operation per round (1
/// for an epoch lane), returning a fingerprint of what it computed.
struct Lane<'a> {
    name: &'static str,
    calls: usize,
    body: Box<dyn FnMut() -> u64 + 'a>,
}

impl<'a> Lane<'a> {
    /// One fit per round, fingerprinted by what `fit` returns.
    fn epoch(name: &'static str, fit: impl FnMut() -> u64 + 'a) -> Self {
        Lane {
            name,
            calls: 1,
            body: Box::new(fit),
        }
    }

    /// `calls` calls `op(0)`, …, `op(calls − 1)` per round, their results
    /// folded into the fingerprint.
    fn micro(name: &'static str, calls: usize, mut op: impl FnMut(usize) -> u64 + 'a) -> Self {
        Lane {
            name,
            calls,
            body: Box::new(move || (0..calls).fold(0, |h, call| fold(h, op(call)))),
        }
    }
}

/// Folds `x` into the running fingerprint `h`.
fn fold(h: u64, x: u64) -> u64 {
    h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(x)
}

/// The quartiles of `xs` (medians of the lower and upper halves).
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let half = v.len() / 2;
    (median(&v[..half]), median(&v[v.len() - half..]))
}

/// A neural model's fingerprint: its squared scores over user 0's
/// catalogue (the models keep their weights private).
fn score_bits(model: &impl Recommender) -> u64 {
    let mut out = Vec::new();
    model.scores_into(UserId(0), &mut out);
    out.iter()
        .map(|&s| f64::from(s) * f64::from(s))
        .sum::<f64>()
        .to_bits()
}

/// One epoch of every Table 2 method that trains by epochs, on `data`.
fn epoch_lanes(data: &Interactions, seed: u64) -> Vec<Lane<'_>> {
    let steps = data.n_pairs();
    let rng = move || SmallRng::seed_from_u64(seed);
    let clapf = || {
        Clapf::new(ClapfConfig {
            dim: DIM,
            iterations: steps,
            ..ClapfConfig::map(0.4)
        })
    };
    let (uniform, dss) = (clapf(), clapf());
    let bpr = Bpr {
        config: BprConfig {
            dim: DIM,
            iterations: steps,
            ..BprConfig::default()
        },
    };
    let mpr = Mpr {
        config: MprConfig {
            dim: DIM,
            iterations: steps,
            ..MprConfig::default()
        },
    };
    let climf = Climf {
        config: ClimfConfig {
            dim: DIM,
            epochs: 1,
            ..ClimfConfig::default()
        },
    };
    let wmf = Wmf {
        config: WmfConfig {
            dim: DIM,
            sweeps: 1,
            ..WmfConfig::default()
        },
    };
    let neumf = NeuMf {
        config: NeuMfConfig {
            embed_dim: 16,
            epochs: 1,
            ..NeuMfConfig::default()
        },
    };
    let neupr = NeuPr {
        config: NeuPrConfig {
            embed_dim: 16,
            epochs: 1,
            ..NeuPrConfig::default()
        },
    };
    let deepicf = DeepIcf {
        config: DeepIcfConfig {
            embed_dim: 16,
            epochs: 1,
            ..DeepIcfConfig::default()
        },
    };
    vec![
        Lane::epoch("bpr", move || {
            bpr.fit(data, &mut rng()).model.params_sq_norm().to_bits()
        }),
        Lane::epoch("mpr", move || {
            mpr.fit(data, &mut rng()).model.params_sq_norm().to_bits()
        }),
        Lane::epoch("clapf_map_uniform", move || {
            let (m, _) = uniform.fit(data, &mut UniformSampler, &mut rng());
            m.mf.params_sq_norm().to_bits()
        }),
        Lane::epoch("clapf_map_dss", move || {
            let mut sampler = DssSampler::dss(DssMode::Map);
            let (m, _) = dss.fit(data, &mut sampler, &mut rng());
            m.mf.params_sq_norm().to_bits()
        }),
        Lane::epoch("climf", move || {
            climf.fit(data, &mut rng()).model.params_sq_norm().to_bits()
        }),
        Lane::epoch("wmf_sweep", move || {
            wmf.fit(data, &mut rng()).model.params_sq_norm().to_bits()
        }),
        Lane::epoch("neumf", move || score_bits(&neumf.fit(data, &mut rng()))),
        Lane::epoch("neupr", move || score_bits(&neupr.fit(data, &mut rng()))),
        Lane::epoch("deepicf", move || {
            score_bits(&deepicf.fit(data, &mut rng()))
        }),
    ]
}

/// 20 000 rank-column builds per round, `fill(q, out)` with `q` cycling
/// over the factors.
fn rank_column_lane<'a>(
    name: &'static str,
    mut fill: impl FnMut(usize, &mut Vec<u32>) + 'a,
) -> Lane<'a> {
    let mut out = Vec::new();
    Lane::micro(name, 20_000, move |call| {
        fill(call % DIM, &mut out);
        u64::from(out[call % LIST])
    })
}

/// 20 000 bracket passes per round over `column`, keeping `[lo, hi)`.
fn bracket_lane<'a>(
    name: &'static str,
    column: &[u32],
    (lo, hi): (u32, u32),
    mut pass: impl FnMut(&[u32], u32, u32, &mut Vec<u32>) -> (usize, usize) + 'a,
) -> Lane<'a> {
    let (column, mut kept) = (column.to_vec(), Vec::new());
    Lane::micro(name, 20_000, move |_| {
        let (below, n) = pass(black_box(&column), lo, hi, &mut kept);
        (below as u64) << 32 | n as u64
    })
}

/// The DSS positive draw's kernels at the ml100k-like world's mean list
/// length: the rank column (dispatched, portable, AVX2), the `u64` select
/// it replaces on long lists, the bracket pass (portable, AVX2), and whole
/// `complete()` calls on the ml100k-like world with anchors drawn as the
/// trainer draws them.
fn dss_lanes(world: &Interactions) -> Vec<Lane<'_>> {
    let mut rng = SmallRng::seed_from_u64(23);
    let init = Init::SmallUniform { scale: 0.5 };
    let model = MfModel::new(1, N_ITEMS, DIM, init, &mut rng);
    let mut ids: Vec<u32> = (0..N_ITEMS).collect();
    ids.shuffle(&mut rng);
    let mut items: Vec<ItemId> = ids[..LIST].iter().map(|&t| ItemId(t)).collect();
    items.sort_unstable();
    // Ranks as the draw sees them: geometric over the list, tail n/2.
    let geom = Geometric::with_tail_fraction(LIST, 0.5);
    let ranks: Vec<usize> = (0..1024).map(|_| geom.draw(LIST, &mut rng)).collect();
    // The kernels themselves run on a copy of the list's factor rows.
    let table: Vec<f32> = items.iter().flat_map(|&t| model.item(t).to_vec()).collect();
    let local: Vec<ItemId> = (0..LIST as u32).map(ItemId).collect();
    let mut column = Vec::new();
    model.item_rank_bits(0, &items, false, false, &mut column);
    let mut sorted = column.clone();
    sorted.sort_unstable();
    let bounds = (sorted[LIST / 4], sorted[LIST / 4 + LIST / 8]);
    let has_avx2 = simd::bracket_arch(&column, bounds.0, bounds.1, &mut Vec::new()).is_some()
        && simd::gather_rank_bits_arch(&table, DIM, 0, &local, false, false, &mut Vec::new());

    let mut lanes = Vec::new();
    let (mf, list) = (model.clone(), items.clone());
    lanes.push(rank_column_lane(
        "dss_kernels/rank_column/item_rank_bits",
        move |q, out| mf.item_rank_bits(q, black_box(&list), false, false, out),
    ));
    let (rows, ids) = (table.clone(), local.clone());
    lanes.push(rank_column_lane(
        "dss_kernels/rank_column/portable_kernel",
        move |q, out| {
            simd::gather_rank_bits_portable(&rows, DIM, q, black_box(&ids), false, false, out)
        },
    ));
    if has_avx2 {
        lanes.push(rank_column_lane(
            "dss_kernels/rank_column/avx2_kernel",
            move |q, out| {
                let ran = simd::gather_rank_bits_arch(
                    &table,
                    DIM,
                    q,
                    black_box(&local),
                    false,
                    false,
                    out,
                );
                assert!(ran, "the CPU has AVX2");
            },
        ));
    }
    let (words, mut keys) = (column.clone(), Vec::new());
    lanes.push(Lane::micro(
        "dss_kernels/select/select_nth_unstable_u64",
        10_000,
        move |call| {
            keys.clear();
            keys.extend(
                words
                    .iter()
                    .zip(&items)
                    .map(|(&w, &t)| (u64::from(w) << 32) | u64::from(t.0)),
            );
            *keys.select_nth_unstable(ranks[call % ranks.len()]).1
        },
    ));
    lanes.push(bracket_lane(
        "dss_kernels/select/bracket_portable",
        &column,
        bounds,
        simd::bracket_portable,
    ));
    if has_avx2 {
        lanes.push(bracket_lane(
            "dss_kernels/select/bracket_avx2",
            &column,
            bounds,
            |v, lo, hi, out| simd::bracket_arch(v, lo, hi, out).expect("the CPU has AVX2"),
        ));
    }
    let mf = MfModel::new(world.n_users(), world.n_items(), DIM, init, &mut rng);
    let mut sampler = DssSampler::dss(DssMode::Map);
    sampler.refresh(&mf);
    lanes.push(Lane::micro(
        "dss_kernels/complete/dss_map_ml100k_like",
        5_000,
        move |call| {
            // Every round draws the same anchors and triples.
            if call == 0 {
                rng = SmallRng::seed_from_u64(31);
            }
            let (u, i) = sample_observed_pair(world, &mut rng);
            sampler
                .complete(world, &mf, u, i, &mut rng)
                .map_or(0, |(k, j)| (u64::from(k.0) << 32) | u64::from(j.0))
        },
    ));
    lanes
}

/// The prediction path the paper prices at O(d) per score (Sec 4.3): one
/// `f_ui`, a 2 000-item catalogue, a top-10 with training items excluded.
fn prediction_lanes<'a>(data: &'a Interactions, model: &'a dyn Recommender) -> Vec<Lane<'a>> {
    let mut out = Vec::new();
    vec![
        Lane::micro("prediction/single_score", 1_000_000, move |_| {
            let s = model.score(black_box(UserId(7)), black_box(ItemId(1234)));
            u64::from(s.to_bits())
        }),
        Lane::micro("prediction/score_catalogue", 500, move |call| {
            model.scores_into(black_box(UserId(7)), &mut out);
            u64::from(out[call % out.len()].to_bits())
        }),
        Lane::micro("prediction/recommend_top10", 200, move |_| {
            let top = model.recommend(black_box(UserId(7)), 10, Some(data));
            u64::from(top[0].0)
        }),
    ]
}

/// The relaxed-atomic registry primitives the sampler and evaluator hot
/// paths update.
fn telemetry_lanes(reg: &Registry) -> Vec<Lane<'_>> {
    let counter = reg.counter("bench.counter");
    let hist = reg.histogram("bench.hist", || Histogram::exponential(1.0, 2.0, 12));
    vec![
        Lane::micro("telemetry_primitives/counter_add", 1_000_000, move |_| {
            counter.add(black_box(3));
            3
        }),
        Lane::micro(
            "telemetry_primitives/histogram_record",
            400_000,
            move |call| {
                // A value spread over the buckets, a function of the call.
                let x = (call as u64).wrapping_mul(6364136223846793005) >> 52;
                hist.record(black_box(x as f64));
                x
            },
        ),
    ]
}

fn main() {
    let cli = Cli::parse();
    let rounds = match cli.scale_name {
        "fast" => 11,
        _ => 31,
    };
    let seed = cli.scale.seed;
    let data = ml100k_standin();
    let ml100k_like = synthetic::ml100k_like().generate();
    let catalogue = WorldConfig {
        n_users: 500,
        n_items: 2_000,
        target_pairs: 25_000,
        ..WorldConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(5);
    let scored = generate(&catalogue, &mut rng).expect("synthetic world");
    let trainer = Clapf::new(ClapfConfig {
        iterations: 20_000,
        ..ClapfConfig::map(0.4)
    });
    let (model, _) = trainer.fit(&scored, &mut UniformSampler, &mut rng);
    let reg = Registry::new();

    let mut lanes = epoch_lanes(&data, seed);
    let n_epochs = lanes.len();
    lanes.extend(dss_lanes(&ml100k_like));
    lanes.extend(prediction_lanes(&scored, &model));
    lanes.extend(telemetry_lanes(&reg));
    eprintln!(
        "epoch: {} lanes × {rounds} rounds; world {} users × {} items, {} pairs",
        lanes.len(),
        data.n_users(),
        data.n_items(),
        data.n_pairs()
    );

    let mut prints: Vec<Vec<u64>> = vec![Vec::with_capacity(rounds); lanes.len()];
    let secs = {
        let mut bodies: Vec<Box<dyn FnMut() + '_>> = lanes
            .iter_mut()
            .zip(&mut prints)
            .map(|(lane, p)| Box::new(move || p.push((lane.body)())) as Box<dyn FnMut() + '_>)
            .collect();
        let mut refs: Vec<&mut dyn FnMut()> = bodies.iter_mut().map(|b| b.as_mut() as _).collect();
        interleave(rounds, &mut refs)
    };
    let identical = |lane: usize| prints[lane].windows(2).all(|w| w[0] == w[1]);

    let at = |name| {
        lanes
            .iter()
            .position(|l| l.name == name)
            .expect("an epoch lane")
    };
    let (bpr, uniform, dss) = (at("bpr"), at("clapf_map_uniform"), at("clapf_map_dss"));
    let ratio =
        |base: usize, lane: usize| 1.0 + paired_overhead_pct(&secs[base], &secs[lane]) / 100.0;
    let epochs: Vec<EpochRow> = (0..n_epochs)
        .map(|j| {
            let (q1_secs, q3_secs) = quartiles(&secs[j]);
            EpochRow {
                lane: lanes[j].name,
                median_secs: median(&secs[j]),
                q1_secs,
                q3_secs,
                vs_bpr: ratio(bpr, j),
                bit_identical: identical(j),
            }
        })
        .collect();
    let micro: Vec<MicroRow> = (n_epochs..lanes.len())
        .map(|j| {
            let ns = |s: f64| s * 1e9 / lanes[j].calls as f64;
            let (q1, q3) = quartiles(&secs[j]);
            MicroRow {
                lane: lanes[j].name,
                calls_per_round: lanes[j].calls,
                median_ns: ns(median(&secs[j])),
                q1_ns: ns(q1),
                q3_ns: ns(q3),
                bit_identical: identical(j),
            }
        })
        .collect();
    for r in &epochs {
        eprintln!(
            "{:<20} {:>9.2} ms/epoch  ({:.2}–{:.2})  {:>7.2}× bpr{}",
            r.lane,
            r.median_secs * 1e3,
            r.q1_secs * 1e3,
            r.q3_secs * 1e3,
            r.vs_bpr,
            if r.bit_identical {
                ""
            } else {
                "  ROUNDS DIFFER"
            }
        );
    }
    let dss_vs_uniform = ratio(uniform, dss);
    eprintln!("clapf_map_dss / clapf_map_uniform: {dss_vs_uniform:.2}×");
    for r in &micro {
        eprintln!(
            "{:<46} {:>10.1} ns/call ({:.1}–{:.1}){}",
            r.lane,
            r.median_ns,
            r.q1_ns,
            r.q3_ns,
            if r.bit_identical {
                ""
            } else {
                "  ROUNDS DIFFER"
            }
        );
    }

    let differ: Vec<&str> = (0..lanes.len())
        .filter(|&j| !identical(j))
        .map(|j| lanes[j].name)
        .collect();
    cli.write_report(
        "epoch",
        &EpochReport {
            n_users: data.n_users(),
            n_items: data.n_items(),
            n_pairs: data.n_pairs(),
            dim: DIM,
            rounds,
            epochs,
            dss_vs_uniform,
            micro,
        },
    );
    if !differ.is_empty() {
        eprintln!(
            "rounds computed different results in: {}",
            differ.join(", ")
        );
        std::process::exit(1);
    }
}
