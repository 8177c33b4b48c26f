//! Toast-style road-segment representation pre-training (paper §IV-C TCF).
//!
//! The paper initialises RSRNet's embedding layer with vectors from
//! Toast \[36\], a road-network representation model whose training signal —
//! as consumed by RL4OASD — is (a) co-traversal semantics from trajectory
//! corpora and (b) traffic-context features (driving speed, road type).
//! This module reproduces that combination with:
//!
//! * **skip-gram with negative sampling** over map-matched trajectories
//!   (segments = tokens, trajectories = sentences), capturing "segments
//!   travelled together embed together";
//! * a fixed **traffic-context feature block** appended to each learned
//!   vector: normalised speed limit, length, road-class one-hot, in/out
//!   degree and log travel popularity.
//!
//! Output vectors have dimension `embed_dim` = skip-gram dim + 8 and
//! initialise [`nn::Embedding`] (they remain trainable afterwards, as in
//! the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnet::RoadNetwork;
use traj::Dataset;

/// Number of appended traffic-context features.
pub const TRAFFIC_FEATURES: usize = 8;

/// Configuration for the skip-gram pre-training.
#[derive(Debug, Clone, PartialEq)]
pub struct ToastConfig {
    /// Total output dimension (must exceed [`TRAFFIC_FEATURES`]).
    pub embed_dim: usize,
    /// Skip-gram context window (positions on each side).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Epochs over the trajectory corpus.
    pub epochs: usize,
    /// Initial SGD learning rate (linearly decayed).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ToastConfig {
    fn default() -> Self {
        ToastConfig {
            embed_dim: 64,
            window: 2,
            negatives: 3,
            epochs: 3,
            lr: 0.025,
            seed: 0x70A5,
        }
    }
}

/// Trains Toast-style vectors; returns a row-major `vocab × embed_dim`
/// matrix, where `vocab = net.num_segments()`.
///
/// # Panics
/// Panics if `embed_dim <= TRAFFIC_FEATURES`.
pub fn train_embeddings(net: &RoadNetwork, data: &Dataset, cfg: &ToastConfig) -> Vec<f32> {
    assert!(
        cfg.embed_dim > TRAFFIC_FEATURES,
        "embed_dim must exceed the {TRAFFIC_FEATURES} traffic features"
    );
    let vocab = net.num_segments();
    let sg_dim = cfg.embed_dim - TRAFFIC_FEATURES;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Input and output (context) vectors, uniform small init.
    let mut w_in: Vec<f32> = (0..vocab * sg_dim)
        .map(|_| rng.gen_range(-0.5f32..0.5) / sg_dim as f32)
        .collect();
    let mut w_out: Vec<f32> = vec![0.0; vocab * sg_dim];

    // Popularity (travel counts) for features and negative sampling.
    let mut counts = vec![0u32; vocab];
    for t in &data.trajectories {
        for &s in &t.segments {
            counts[s.idx()] += 1;
        }
    }

    let total_pairs: usize = data
        .trajectories
        .iter()
        .map(|t| t.len() * 2 * cfg.window)
        .sum::<usize>()
        .max(1)
        * cfg.epochs;
    let mut seen_pairs = 0usize;

    let mut grad_in = vec![0.0f32; sg_dim];
    for _ in 0..cfg.epochs {
        for t in &data.trajectories {
            let segs = &t.segments;
            for (i, &center) in segs.iter().enumerate() {
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window).min(segs.len() - 1);
                #[allow(clippy::needless_range_loop)]
                for j in lo..=hi {
                    if j == i {
                        continue;
                    }
                    seen_pairs += 1;
                    let lr = cfg.lr * (1.0 - seen_pairs as f32 / total_pairs as f32).max(0.05);
                    let ctx = segs[j];
                    grad_in.iter_mut().for_each(|g| *g = 0.0);
                    // positive pair
                    sgns_update(
                        &w_in,
                        &mut w_out,
                        sg_dim,
                        center.idx(),
                        ctx.idx(),
                        1.0,
                        lr,
                        &mut grad_in,
                    );
                    // negatives
                    for _ in 0..cfg.negatives {
                        let neg = rng.gen_range(0..vocab);
                        if neg == ctx.idx() {
                            continue;
                        }
                        sgns_update(
                            &w_in,
                            &mut w_out,
                            sg_dim,
                            center.idx(),
                            neg,
                            0.0,
                            lr,
                            &mut grad_in,
                        );
                    }
                    let row = &mut w_in[center.idx() * sg_dim..(center.idx() + 1) * sg_dim];
                    for (w, g) in row.iter_mut().zip(&grad_in) {
                        *w -= lr * g;
                    }
                }
            }
        }
    }

    // Assemble output: [skip-gram | traffic features].
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1) as f32;
    let mut out = vec![0.0f32; vocab * cfg.embed_dim];
    for (v, seg) in net.segments().iter().enumerate() {
        let dst = &mut out[v * cfg.embed_dim..(v + 1) * cfg.embed_dim];
        dst[..sg_dim].copy_from_slice(&w_in[v * sg_dim..(v + 1) * sg_dim]);
        let f = &mut dst[sg_dim..];
        f[0] = (seg.speed_limit / 20.0) as f32;
        f[1] = (seg.length / 300.0) as f32;
        f[2 + seg.class.code()] = 1.0; // one-hot over 3 classes
        f[5] = net.in_degree(seg.id) as f32 / 4.0;
        f[6] = net.out_degree(seg.id) as f32 / 4.0;
        f[7] = ((1.0 + counts[v] as f32).ln()) / (1.0 + max_count).ln();
    }
    out
}

/// One SGNS step for pair `(center, ctx)` with label 1 (positive) or 0
/// (negative): updates the output vector immediately, accumulates the
/// input-vector gradient into `grad_in` (applied once per positive+negatives
/// block by the caller).
#[allow(clippy::too_many_arguments)]
fn sgns_update(
    w_in: &[f32],
    w_out: &mut [f32],
    dim: usize,
    center: usize,
    ctx: usize,
    label: f32,
    lr: f32,
    grad_in: &mut [f32],
) {
    let vi = &w_in[center * dim..(center + 1) * dim];
    let vo = &mut w_out[ctx * dim..(ctx + 1) * dim];
    let score: f32 = vi.iter().zip(vo.iter()).map(|(a, b)| a * b).sum();
    let pred = nn::ops::sigmoid(score);
    let err = pred - label; // d loss / d score
    for k in 0..dim {
        grad_in[k] += err * vo[k];
        vo[k] -= lr * err * vi[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::ops::cosine;
    use rnet::{CityBuilder, CityConfig};
    use traj::{TrafficConfig, TrafficSimulator};

    fn corpus(seed: u64) -> (RoadNetwork, Dataset) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 4,
            trajs_per_pair: (40, 60),
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        (net, Dataset::from_generated(&data))
    }

    #[test]
    fn output_shape_and_finite() {
        let (net, ds) = corpus(1);
        let cfg = ToastConfig {
            embed_dim: 24,
            epochs: 1,
            ..Default::default()
        };
        let vecs = train_embeddings(&net, &ds, &cfg);
        assert_eq!(vecs.len(), net.num_segments() * 24);
        assert!(vecs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cotravelled_segments_embed_closer() {
        let (net, ds) = corpus(2);
        let cfg = ToastConfig {
            embed_dim: 24,
            epochs: 4,
            ..Default::default()
        };
        let vecs = train_embeddings(&net, &ds, &cfg);
        let sg = 24 - TRAFFIC_FEATURES;
        let vec_of = |s: usize| &vecs[s * 24..s * 24 + sg];
        // Average similarity of adjacent pairs within trajectories vs
        // random pairs: co-travelled must be higher.
        let mut adj_sim = 0.0;
        let mut adj_n = 0;
        for t in ds.trajectories.iter().take(50) {
            for w in t.segments.windows(2) {
                adj_sim += cosine(vec_of(w[0].idx()), vec_of(w[1].idx()));
                adj_n += 1;
            }
        }
        adj_sim /= adj_n as f32;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut rnd_sim = 0.0;
        for _ in 0..500 {
            let a = rng.gen_range(0..net.num_segments());
            let b = rng.gen_range(0..net.num_segments());
            rnd_sim += cosine(vec_of(a), vec_of(b));
        }
        rnd_sim /= 500.0;
        assert!(
            adj_sim > rnd_sim + 0.1,
            "adjacent {adj_sim} vs random {rnd_sim}"
        );
    }

    #[test]
    fn traffic_features_populated() {
        let (net, ds) = corpus(4);
        let cfg = ToastConfig {
            embed_dim: 16,
            epochs: 1,
            ..Default::default()
        };
        let vecs = train_embeddings(&net, &ds, &cfg);
        let sg = 16 - TRAFFIC_FEATURES;
        for (v, seg) in net.segments().iter().enumerate().take(50) {
            let f = &vecs[v * 16 + sg..(v + 1) * 16];
            // speed feature positive, one-hot class set
            assert!(f[0] > 0.0);
            assert_eq!(f[2 + seg.class.code()], 1.0);
            let onehot_sum: f32 = f[2..5].iter().sum();
            assert_eq!(onehot_sum, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "embed_dim")]
    fn embed_dim_must_exceed_features() {
        let (net, ds) = corpus(5);
        train_embeddings(
            &net,
            &ds,
            &ToastConfig {
                embed_dim: 8,
                ..Default::default()
            },
        );
    }

    #[test]
    fn deterministic() {
        let (net, ds) = corpus(6);
        let cfg = ToastConfig {
            embed_dim: 16,
            epochs: 1,
            ..Default::default()
        };
        let a = train_embeddings(&net, &ds, &cfg);
        let b = train_embeddings(&net, &ds, &cfg);
        assert_eq!(a, b);
    }
}
