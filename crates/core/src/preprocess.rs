//! Data preprocessing (paper §IV-B): SD-pair/time-slot grouping, transition
//! fractions, noisy labels (threshold α) and normal-route features
//! (threshold δ).
//!
//! The preprocessor is *fit* on historical (training) trajectories and then
//! *queried* for any trajectory — including unseen test trajectories of the
//! same SD pairs, which is how the online detector computes normal-route
//! features incrementally.

use crate::config::Rl4oasdConfig;
use rnet::SegmentId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use traj::{Dataset, MappedTrajectory, SdPair, TrajectoryId, HOURS_PER_DAY};

/// A transition key: `(previous segment or None for <*, e1>, segment)`.
pub type TransKey = (Option<SegmentId>, SegmentId);

/// Serde helper: (de)serialises maps with non-string keys as entry lists,
/// keeping the model JSON-serialisable. Entries are written sorted by key,
/// so the same model is the same bytes whatever the map's (randomly
/// seeded) iteration order; lists in any order load.
mod map_as_vec {
    use serde::{Deserialize, Error, Serialize, Value};
    use std::collections::HashMap;
    use std::hash::Hash;

    pub fn serialize<K, V>(map: &HashMap<K, V>) -> Value
    where
        K: Serialize + Ord,
        V: Serialize,
    {
        let mut entries: Vec<(&K, &V)> = map.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.serialize()
    }

    pub fn deserialize<K, V>(v: &Value) -> Result<HashMap<K, V>, Error>
    where
        K: Deserialize + Eq + Hash,
        V: Deserialize,
    {
        let entries: Vec<(K, V)> = Vec::deserialize(v)?;
        Ok(entries.into_iter().collect())
    }
}

/// Serde helper: (de)serialises a set as its elements, sorted (see
/// [`map_as_vec`]).
mod sorted_set {
    use serde::{Deserialize, Error, Serialize, Value};
    use std::collections::HashSet;
    use std::hash::Hash;

    pub fn serialize<T: Serialize + Ord>(set: &HashSet<T>) -> Value {
        let mut items: Vec<&T> = set.iter().collect();
        items.sort_unstable();
        items.serialize()
    }

    pub fn deserialize<T: Deserialize + Eq + Hash>(v: &Value) -> Result<HashSet<T>, Error> {
        HashSet::deserialize(v)
    }
}

/// Fraction statistics of one (SD pair, time slot) group.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroupStats {
    /// Number of trajectories in the group.
    pub size: usize,
    /// Count of trajectories containing each transition.
    #[serde(with = "map_as_vec")]
    pub transition_count: HashMap<TransKey, usize>,
    /// Transitions belonging to the inferred *normal routes* (route-level
    /// fraction > δ; falls back to the most frequent route if none passes).
    #[serde(with = "sorted_set")]
    pub normal_transitions: HashSet<TransKey>,
}

impl GroupStats {
    /// Fraction of the group's trajectories containing `key`. Source and
    /// destination transitions are pinned to 1.0 by the caller.
    pub fn fraction(&self, key: &TransKey) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        *self.transition_count.get(key).unwrap_or(&0) as f64 / self.size as f64
    }
}

/// Per-trajectory preprocessing output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryFeatures {
    /// Noisy labels (0 normal / 1 anomalous) from transition fractions vs α.
    pub noisy_labels: Vec<u8>,
    /// Normal-route features (0 = transition occurs in a normal route).
    pub nrf: Vec<u8>,
    /// Raw transition fractions (diagnostics and the frequency-only
    /// baseline of the ablation study).
    pub fractions: Vec<f64>,
}

/// Fitted preprocessing statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Preprocessor {
    alpha: f64,
    delta: f64,
    min_group_size: usize,
    /// Per-(pair, slot) statistics.
    #[serde(with = "map_as_vec")]
    slot_stats: HashMap<(SdPair, usize), GroupStats>,
    /// Whole-pair fallback statistics (all slots merged).
    #[serde(with = "map_as_vec")]
    pair_stats: HashMap<SdPair, GroupStats>,
}

impl Preprocessor {
    /// Fits group statistics on the training corpus.
    pub fn fit(config: &Rl4oasdConfig, data: &Dataset) -> Self {
        Self::fit_with_drop(config, data, 0.0, config.seed)
    }

    /// Fits while randomly dropping a fraction of each pair's historical
    /// trajectories first (the paper's cold-start experiment, Table VI).
    pub fn fit_with_drop(
        config: &Rl4oasdConfig,
        data: &Dataset,
        drop_rate: f64,
        seed: u64,
    ) -> Self {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        assert!((0.0..1.0).contains(&drop_rate) || drop_rate == 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD20F);
        let mut pre = Preprocessor {
            alpha: config.alpha,
            delta: config.delta,
            min_group_size: config.min_group_size,
            slot_stats: HashMap::new(),
            pair_stats: HashMap::new(),
        };
        // Pairs in sorted order: the drop draws come from one RNG, and a
        // `HashMap`'s iteration order differs per instance, so iterating
        // `by_pair` directly would make the fit depend on the map.
        let mut pairs: Vec<(&SdPair, &Vec<TrajectoryId>)> = data.by_pair.iter().collect();
        pairs.sort_unstable_by_key(|&(&pair, _)| pair);
        for (&pair, ids) in pairs {
            let kept: Vec<TrajectoryId> = if drop_rate > 0.0 {
                let mut ids = ids.clone();
                ids.shuffle(&mut rng);
                let keep = ((ids.len() as f64) * (1.0 - drop_rate)).ceil() as usize;
                ids.truncate(keep.max(1));
                ids
            } else {
                ids.clone()
            };
            // Whole-pair group.
            let trajs: Vec<&MappedTrajectory> = kept.iter().map(|&id| data.get(id)).collect();
            pre.pair_stats
                .insert(pair, build_group(&trajs, config.delta));
            // Per-slot groups.
            let mut by_slot: Vec<Vec<&MappedTrajectory>> = vec![Vec::new(); HOURS_PER_DAY];
            for t in &trajs {
                by_slot[t.time_slot()].push(t);
            }
            for (slot, group) in by_slot.iter().enumerate() {
                if !group.is_empty() {
                    pre.slot_stats
                        .insert((pair, slot), build_group(group, config.delta));
                }
            }
        }
        pre
    }

    /// The group statistics used for a trajectory of `pair` in `slot`:
    /// the slot group if it is large enough, otherwise the whole-pair group.
    pub fn stats_for(&self, pair: SdPair, slot: usize) -> Option<&GroupStats> {
        if let Some(s) = self.slot_stats.get(&(pair, slot)) {
            if s.size >= self.min_group_size {
                return Some(s);
            }
        }
        self.pair_stats.get(&pair)
    }

    /// Whether the preprocessor has statistics for `pair`.
    pub fn knows_pair(&self, pair: SdPair) -> bool {
        self.pair_stats.contains_key(&pair)
    }

    /// Number of fitted SD pairs.
    pub fn num_pairs(&self) -> usize {
        self.pair_stats.len()
    }

    /// Computes noisy labels, NRF and fractions for a trajectory
    /// (§IV-B Step 3–4 and §IV-C NRF). Unknown pairs fall back to
    /// all-anomalous noisy labels and all-1 NRF except the endpoints —
    /// "never seen this route" is the strongest deviation signal available.
    pub fn features(&self, traj: &MappedTrajectory) -> TrajectoryFeatures {
        let n = traj.len();
        let mut noisy = vec![1u8; n];
        let mut nrf = vec![1u8; n];
        let mut fractions = vec![0.0f64; n];
        if n == 0 {
            return TrajectoryFeatures {
                noisy_labels: noisy,
                nrf,
                fractions,
            };
        }
        let pair = traj.sd_pair().expect("non-empty trajectory");
        let stats = self.stats_for(pair, traj.time_slot());
        for i in 0..n {
            let endpoint = i == 0 || i == n - 1;
            let key = key_of(traj, i);
            let (frac, is_normal_route) = match stats {
                Some(s) => (
                    if endpoint { 1.0 } else { s.fraction(&key) },
                    s.normal_transitions.contains(&key),
                ),
                None => (0.0, false),
            };
            fractions[i] = frac;
            noisy[i] = u8::from(!(endpoint || frac > self.alpha));
            nrf[i] = u8::from(!(endpoint || is_normal_route));
        }
        TrajectoryFeatures {
            noisy_labels: noisy,
            nrf,
            fractions,
        }
    }

    /// Incremental NRF for the online detector: the feature of position `i`
    /// given the previous segment (`None` at the source).
    pub fn nrf_at(
        &self,
        pair: SdPair,
        slot: usize,
        prev: Option<SegmentId>,
        seg: SegmentId,
        is_endpoint: bool,
    ) -> u8 {
        if is_endpoint {
            return 0;
        }
        match self.stats_for(pair, slot) {
            Some(s) => u8::from(!s.normal_transitions.contains(&(prev, seg))),
            None => 1,
        }
    }

    /// Incremental transition fraction (used by the frequency-only ablation
    /// detector).
    pub fn fraction_at(
        &self,
        pair: SdPair,
        slot: usize,
        prev: Option<SegmentId>,
        seg: SegmentId,
        is_endpoint: bool,
    ) -> f64 {
        if is_endpoint {
            return 1.0;
        }
        self.stats_for(pair, slot)
            .map(|s| s.fraction(&(prev, seg)))
            .unwrap_or(0.0)
    }

    /// The α threshold this preprocessor was fitted with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Merges statistics from newly recorded trajectories (online learning:
    /// the concept-drift experiments refresh fractions with recent data).
    /// New data *replaces* the statistics of the pairs it covers.
    pub fn refresh(&mut self, config: &Rl4oasdConfig, data: &Dataset) {
        let newer = Preprocessor::fit(config, data);
        for (k, v) in newer.slot_stats {
            self.slot_stats.insert(k, v);
        }
        for (k, v) in newer.pair_stats {
            self.pair_stats.insert(k, v);
        }
    }
}

fn key_of(traj: &MappedTrajectory, i: usize) -> TransKey {
    let t = traj.transition_at(i);
    (t.from, t.to)
}

/// Builds group statistics: transition counts plus normal-route inference
/// (§IV-C): a route (unique segment sequence) is normal if the fraction of
/// the group's trajectories travelling it exceeds δ. If no route passes,
/// the most frequent route is taken as normal (a group always has at least
/// one representative route).
fn build_group(trajs: &[&MappedTrajectory], delta: f64) -> GroupStats {
    let size = trajs.len();
    let mut transition_count: HashMap<TransKey, usize> = HashMap::new();
    let mut route_count: HashMap<&[SegmentId], usize> = HashMap::new();
    for t in trajs {
        // Count each transition once per trajectory (fraction semantics:
        // "the fraction of transitions with respect to all trajectories").
        let mut seen = HashSet::new();
        for i in 0..t.len() {
            let key = key_of(t, i);
            if seen.insert(key) {
                *transition_count.entry(key).or_insert(0) += 1;
            }
        }
        *route_count.entry(t.segments.as_slice()).or_insert(0) += 1;
    }
    let mut normal_transitions = HashSet::new();
    let mut best: Option<(&[SegmentId], usize)> = None;
    for (route, count) in &route_count {
        if best.map(|(_, c)| *count > c).unwrap_or(true) {
            best = Some((route, *count));
        }
        if size > 0 && *count as f64 / size as f64 > delta {
            insert_route_transitions(&mut normal_transitions, route);
        }
    }
    if normal_transitions.is_empty() {
        if let Some((route, _)) = best {
            insert_route_transitions(&mut normal_transitions, route);
        }
    }
    GroupStats {
        size,
        transition_count,
        normal_transitions,
    }
}

fn insert_route_transitions(set: &mut HashSet<TransKey>, route: &[SegmentId]) {
    for (i, &seg) in route.iter().enumerate() {
        let prev = if i == 0 { None } else { Some(route[i - 1]) };
        set.insert((prev, seg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnet::{CityBuilder, CityConfig};
    use traj::{RouteKind, TrafficConfig, TrafficSimulator};

    fn setup(seed: u64) -> (traj::generator::GeneratedTraffic, Dataset, Preprocessor) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 3,
            trajs_per_pair: (60, 80),
            anomaly_ratio: 0.1,
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let ds = Dataset::from_generated(&data);
        let pre = Preprocessor::fit(&Rl4oasdConfig::tiny(seed), &ds);
        (data, ds, pre)
    }

    /// The cold-start fit is a function of the data and the seed alone:
    /// two datasets with the same trajectories (each with its own
    /// `by_pair` map, so a different iteration order) fit identically.
    #[test]
    fn fit_with_drop_is_reproducible() {
        let net = CityBuilder::new(CityConfig::tiny(5)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 6,
            trajs_per_pair: (20, 30),
            ..TrafficConfig::tiny(5)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let config = Rl4oasdConfig::tiny(5);
        let fit = |ds: &Dataset| {
            serde_json::to_string(&Preprocessor::fit_with_drop(&config, ds, 0.5, 9))
                .expect("preprocessor serialises")
        };
        let a = Dataset::from_generated(&data);
        let b = Dataset::from_generated(&data);
        assert_eq!(fit(&a), fit(&b));
    }

    #[test]
    fn fits_all_pairs() {
        let (data, _, pre) = setup(1);
        assert_eq!(pre.num_pairs(), data.pairs.len());
        for p in &data.pairs {
            assert!(pre.knows_pair(p.pair));
        }
    }

    #[test]
    fn endpoints_always_normal() {
        let (_, ds, pre) = setup(2);
        for t in &ds.trajectories {
            let f = pre.features(t);
            assert_eq!(f.noisy_labels[0], 0);
            assert_eq!(*f.noisy_labels.last().unwrap(), 0);
            assert_eq!(f.nrf[0], 0);
            assert_eq!(*f.nrf.last().unwrap(), 0);
            assert_eq!(f.fractions[0], 1.0);
            assert_eq!(*f.fractions.last().unwrap(), 1.0);
        }
    }

    #[test]
    fn popular_route_segments_look_normal() {
        let (data, ds, pre) = setup(3);
        // Trajectories on the most popular route should be mostly 0 in both
        // noisy labels and NRF.
        for (k, t) in ds.trajectories.iter().enumerate() {
            let pair = &data.pairs[data.pair_of[k]];
            let route = &pair.routes[data.route_of[k]];
            let f = pre.features(t);
            if data.route_of[k] == 0 && route.kind == RouteKind::Normal {
                let frac_anom =
                    f.nrf.iter().filter(|&&l| l == 1).count() as f64 / f.nrf.len() as f64;
                assert!(
                    frac_anom < 0.2,
                    "dominant normal route flagged {frac_anom} anomalous (nrf)"
                );
            }
        }
    }

    #[test]
    fn detour_segments_look_anomalous() {
        let (data, ds, pre) = setup(4);
        let mut checked = false;
        for (k, t) in ds.trajectories.iter().enumerate() {
            let pair = &data.pairs[data.pair_of[k]];
            let route = &pair.routes[data.route_of[k]];
            if let Some((a, b)) = route.detour_span {
                let f = pre.features(t);
                // the detour interior must be flagged by NRF
                let flagged = (a..=b).filter(|&i| f.nrf[i] == 1).count();
                assert!(
                    flagged as f64 / (b - a + 1) as f64 > 0.8,
                    "detour span under-flagged"
                );
                checked = true;
            }
        }
        assert!(checked);
    }

    #[test]
    fn noisy_labels_approximate_ground_truth() {
        let (_, ds, pre) = setup(5);
        // Aggregate agreement between noisy labels and ground truth should
        // be high (the labels are "noisy", not random).
        let mut agree = 0usize;
        let mut total = 0usize;
        for t in &ds.trajectories {
            let f = pre.features(t);
            let gt = ds.truth(t.id).unwrap();
            for (a, b) in f.noisy_labels.iter().zip(gt) {
                agree += usize::from(a == b);
                total += 1;
            }
        }
        let acc = agree as f64 / total as f64;
        // Noisy labels are genuinely noisy: with two normal routes at
        // fractions ~0.55/0.4 and alpha = 0.5, the less popular normal
        // route's own transitions fall below alpha and get mislabelled —
        // exactly the cold-start noise the RL refinement exists to fix.
        assert!(acc > 0.7, "noisy-label accuracy {acc} too low");
    }

    #[test]
    fn unknown_pair_falls_back_to_anomalous() {
        let (_, _, pre) = setup(6);
        let t = MappedTrajectory {
            id: TrajectoryId(999),
            segments: vec![SegmentId(9991), SegmentId(9992), SegmentId(9993)],
            start_time: 0.0,
        };
        // not fitted; features must not panic
        let f = pre.features(&t);
        assert_eq!(f.noisy_labels, vec![0, 1, 0]); // endpoints pinned normal
        assert_eq!(f.nrf, vec![0, 1, 0]);
    }

    #[test]
    fn drop_rate_shrinks_groups() {
        let net = CityBuilder::new(CityConfig::tiny(7)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 2,
            trajs_per_pair: (50, 50),
            ..TrafficConfig::tiny(7)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let ds = Dataset::from_generated(&data);
        let full = Preprocessor::fit(&Rl4oasdConfig::tiny(7), &ds);
        let dropped = Preprocessor::fit_with_drop(&Rl4oasdConfig::tiny(7), &ds, 0.8, 7);
        for p in &data.pairs {
            let f = full.pair_stats.get(&p.pair).unwrap();
            let d = dropped.pair_stats.get(&p.pair).unwrap();
            assert_eq!(f.size, 50);
            assert_eq!(d.size, 10);
            // normal routes can still be inferred from the survivors
            assert!(!d.normal_transitions.is_empty());
        }
    }

    #[test]
    fn incremental_matches_batch() {
        let (_, ds, pre) = setup(8);
        for t in ds.trajectories.iter().take(20) {
            let f = pre.features(t);
            let pair = t.sd_pair().unwrap();
            let slot = t.time_slot();
            for i in 0..t.len() {
                let prev = if i == 0 {
                    None
                } else {
                    Some(t.segments[i - 1])
                };
                let endpoint = i == 0 || i == t.len() - 1;
                assert_eq!(
                    pre.nrf_at(pair, slot, prev, t.segments[i], endpoint),
                    f.nrf[i]
                );
                assert!(
                    (pre.fraction_at(pair, slot, prev, t.segments[i], endpoint) - f.fractions[i])
                        .abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn refresh_replaces_pair_stats() {
        let (_, ds, mut pre) = setup(9);
        let cfg = Rl4oasdConfig::tiny(9);
        // Refit on a truncated dataset: sizes must change after refresh.
        let mut small = ds.clone();
        small.trajectories.truncate(ds.len() / 2);
        small.ground_truth.truncate(ds.len() / 2);
        small.rebuild_index();
        let before: usize = pre.pair_stats.values().map(|s| s.size).sum();
        pre.refresh(&cfg, &small);
        let after: usize = pre.pair_stats.values().map(|s| s.size).sum();
        assert!(after < before);
    }

    #[test]
    fn serialisation_is_sorted_and_loads_any_order() {
        let (_, _, pre) = setup(4);
        let sorted = pre.serialize();
        // Re-serialising a fresh fit (new hash seeds) gives the same bytes.
        let (_, _, again) = setup(4);
        assert_eq!(
            serde_json::to_string(&again).unwrap(),
            serde_json::to_string(&pre).unwrap()
        );
        // A document with its entry lists in another order (as written
        // before they were sorted) loads, and re-serialises sorted.
        let mut shuffled = sorted.clone();
        let serde::Value::Map(fields) = &mut shuffled else {
            panic!("a preprocessor serialises as a map");
        };
        for (name, value) in fields.iter_mut() {
            if let serde::Value::Seq(entries) = value {
                assert!(entries.len() > 1, "{name} has too few entries to reorder");
                entries.reverse();
            }
        }
        assert_ne!(shuffled, sorted);
        let loaded = Preprocessor::deserialize(&shuffled).unwrap();
        assert_eq!(loaded.serialize(), sorted);
    }
}
