//! The RL4OASD online detection algorithm (paper Algorithm 1) with the
//! Road Network Enhanced Labeling (RNEL) and Delayed Labeling (DL)
//! enhancements (§IV-E).
//!
//! Per observed road segment the detector:
//!
//! 1. pins the source and destination segments to normal (lines 2–3);
//! 2. obtains `z_i` from RSRNet's streaming pass (line 5);
//! 3. applies the RNEL degree rules where the label is deterministic from
//!    the road-network structure — skipping the policy entirely (which is
//!    also where the efficiency win comes from);
//! 4. otherwise samples/argmaxes the policy on `s_i = [z_i ; v(prev)]`
//!    (lines 6–8).
//!
//! `finish` applies Delayed Labeling: 0-gaps shorter than `D` between
//! anomalous runs are converted to 1, avoiding fragmented subtrajectories.

use crate::asdnet::AsdNet;
use crate::config::Rl4oasdConfig;
use crate::packed::PackedModel;
use crate::preprocess::Preprocessor;
use crate::rsrnet::{RsrNet, RsrStream};
use crate::train::TrainedModel;
use rnet::{RoadNetwork, SegmentId};
use traj::{slot_of_time, Hibernate, OnlineDetector, SdPair};

/// Borrowed, read-only view of everything a detection step consults: the
/// trained model's parts (raw and packed) plus the road network. Shared by
/// the single-session [`Rl4oasdDetector`] and the fleet-scale
/// [`crate::StreamEngine`], so both run the exact same per-step logic.
#[derive(Clone, Copy)]
pub(crate) struct ModelView<'a> {
    pub config: &'a Rl4oasdConfig,
    pub pre: &'a Preprocessor,
    pub rsrnet: &'a RsrNet,
    pub asdnet: &'a AsdNet,
    pub net: &'a RoadNetwork,
    /// Packed hot-path weights; every nn step in detection runs on these.
    pub packed: &'a PackedModel,
}

impl<'a> ModelView<'a> {
    pub fn of(model: &'a TrainedModel, net: &'a RoadNetwork) -> Self {
        ModelView {
            config: &model.config,
            pre: &model.preprocessor,
            rsrnet: &model.rsrnet,
            asdnet: &model.asdnet,
            net,
            packed: model.packed(),
        }
    }
}

/// Reusable per-step buffers of the scalar detection path: the LSTM
/// scratch, the representation `z_i` and the policy-state vector. One per
/// detector (or per engine, for its scalar ticks) — the hot path allocates
/// nothing once these are warm.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    pub lstm: nn::LstmScratch,
    pub z: Vec<f32>,
    pub state: Vec<f32>,
}

/// Decision diagnostics: how often RNEL short-circuited the policy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DecisionCounters {
    pub rnel_hits: usize,
    pub policy_calls: usize,
}

/// What a step needs after the representation `z` is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
    /// The label is already determined (endpoint pinning or an RNEL rule);
    /// the nn step still runs to advance the stream state.
    Fixed(u8),
    /// The policy (or the "w/o ASDNet" classifier) must be consulted on
    /// `z`.
    Policy,
}

/// Compact per-session state of Algorithm 1: the RSRNet stream, the pinned
/// SD pair/time slot, the previous segment and label (for RNEL and the
/// policy state), and the provisional labels (for Delayed Labeling).
///
/// All model access goes through a [`ModelView`] argument, so thousands of
/// sessions share one immutable model and each session is only a few
/// hundred bytes (two `hidden_dim` vectors plus the label buffer).
#[derive(Debug, Clone)]
pub(crate) struct SessionState {
    stream: RsrStream,
    sd: SdPair,
    slot: usize,
    prev_seg: Option<SegmentId>,
    prev_label: u8,
    labels: Vec<u8>,
}

impl SessionState {
    /// Opens a session for a trip of the given SD pair and start time.
    pub fn open(view: &ModelView, sd: SdPair, start_time: f64) -> Self {
        SessionState {
            stream: view.rsrnet.stream(),
            sd,
            slot: slot_of_time(start_time),
            prev_seg: None,
            prev_label: 0,
            labels: Vec::new(),
        }
    }

    /// The incoming segment's NRF and whether it is a pinned endpoint
    /// (evaluated *before* the nn step — Algorithm 1 lines 2–3).
    pub fn pre_step(&self, view: &ModelView, segment: SegmentId) -> (u8, bool) {
        let is_endpoint = self.labels.is_empty() || segment == self.sd.dest;
        let nrf = view
            .pre
            .nrf_at(self.sd, self.slot, self.prev_seg, segment, is_endpoint);
        (nrf, is_endpoint)
    }

    /// Resolves everything decidable without `z`: endpoint pinning and the
    /// RNEL degree rules (§IV-E). Returns [`Pending::Policy`] when the nn
    /// heads must be consulted.
    pub fn plan(
        &self,
        view: &ModelView,
        segment: SegmentId,
        is_endpoint: bool,
        counters: &mut DecisionCounters,
    ) -> Pending {
        if is_endpoint {
            return Pending::Fixed(0); // Algorithm 1 lines 2–3
        }
        if let (true, Some(prev)) = (view.config.use_rnel, self.prev_seg) {
            if let Some(label) = rnel(view.net, prev, segment, self.prev_label) {
                counters.rnel_hits += 1;
                return Pending::Fixed(label);
            }
        }
        counters.policy_calls += 1;
        Pending::Policy
    }

    /// The nn decision for a [`Pending::Policy`] step, given this step's
    /// representation `z`. Runs on the packed head weights; `state_buf` is
    /// the reusable policy-state buffer (`[z ; v(prev_label)]`).
    pub fn decide_policy(&self, view: &ModelView, z: &[f32], state_buf: &mut Vec<f32>) -> u8 {
        let mut logits = [0.0f32; 2];
        if view.config.use_asdnet {
            state_buf.clear();
            self.append_policy_state(view, z, state_buf);
            view.packed.policy.infer(state_buf, &mut logits);
        } else {
            // Ablation "w/o ASDNet": an ordinary classifier on RSRNet
            // outputs.
            view.packed.head.infer(z, &mut logits);
        }
        AsdNet::greedy_from_logits(logits)
    }

    /// Appends the policy-head input `s_i = [z_i ; v(prev_label)]` to
    /// `out` (batched path; same bytes as [`AsdNet::state`], without the
    /// per-lane allocation).
    pub fn append_policy_state(&self, view: &ModelView, z: &[f32], out: &mut Vec<f32>) {
        out.extend_from_slice(z);
        out.extend_from_slice(view.asdnet.label_embed.lookup(self.prev_label as usize));
    }

    /// Records the decided label of `segment`.
    pub fn commit(&mut self, segment: SegmentId, label: u8) {
        self.labels.push(label);
        self.prev_label = label;
        self.prev_seg = Some(segment);
    }

    /// One full scalar step: NRF, RSRNet stream step, decision, commit.
    /// This *is* the per-trajectory path; the engine's batched tick differs
    /// only in running the nn passes for many sessions at once
    /// (bit-identically — see `RsrNet::stream_step_batch`). All nn
    /// work runs on the packed weights with the caller's reusable
    /// [`StepScratch`], so a warm session allocates nothing per point.
    pub fn observe(
        &mut self,
        view: &ModelView,
        segment: SegmentId,
        counters: &mut DecisionCounters,
        scratch: &mut StepScratch,
    ) -> u8 {
        let (nrf, is_endpoint) = self.pre_step(view, segment);
        view.rsrnet.stream_step(
            view.packed,
            &mut self.stream,
            segment,
            nrf,
            &mut scratch.lstm,
            &mut scratch.z,
        );
        let label = match self.plan(view, segment, is_endpoint, counters) {
            Pending::Fixed(label) => label,
            Pending::Policy => self.decide_policy(view, &scratch.z, &mut scratch.state),
        };
        self.commit(segment, label);
        label
    }

    /// Mutable access to the RSRNet stream (engine batched pass).
    pub fn stream_mut(&mut self) -> &mut RsrStream {
        &mut self.stream
    }

    /// Estimated heap bytes held by this session while resident (stream
    /// vectors: `hidden_dim` int8 `h` plus `hidden_dim` f32 `c`; and the
    /// label buffer), for the engine's per-tier memory gauges.
    pub fn resident_heap_bytes(&self) -> usize {
        self.stream.heap_bytes() + self.labels.capacity()
    }

    /// Finalises the session: destination pinning plus Delayed Labeling.
    pub fn finish(&mut self, view: &ModelView) -> Vec<u8> {
        let mut labels = std::mem::take(&mut self.labels);
        // Destination pinned normal even if the trajectory ended early.
        if let Some(last) = labels.last_mut() {
            *last = 0;
        }
        if view.config.use_delayed_labeling {
            delayed_labeling(&mut labels, view.config.delay_d);
        }
        self.prev_seg = None;
        self.prev_label = 0;
        labels
    }
}

/// Session hibernation (the memory tier): freeze/thaw of one session's
/// full algorithmic state against the model view of its opening epoch.
///
/// The frozen form is compact and **lossless** — the exact-restore
/// contract of [`Hibernate`] is what makes hibernation invisible to
/// labels (property-tested in `tests/hibernate.rs`):
///
/// * the quantised hidden state `h` is written as its `hidden_dim` raw
///   bytes;
/// * the `f32` cell state `c` is XOR-delta-encoded bit-for-bit against
///   the model's initial stream state ([`RsrNet::stream`] — all zeros
///   today, so the delta is the identity on the bit pattern, but the
///   encoding stays exact for any initial state);
/// * the provisional label buffer is run-length packed (binary labels,
///   alternating runs) — the dominant saving for long trips, where the
///   hot buffer is one byte per observed segment;
/// * scalars (slot, SD pair, previous segment/label) go through varints,
///   and the `hidden_dim` is encoded so the blob is self-describing.
impl Hibernate<ModelView<'_>> for SessionState {
    fn freeze(&self, ctx: &ModelView, out: &mut Vec<u8>) {
        use traj::hibernate::{put_f32_delta, put_runs, put_varint};
        put_varint(out, self.slot as u64);
        put_varint(out, u64::from(self.sd.source.0));
        put_varint(out, u64::from(self.sd.dest.0));
        put_varint(out, self.prev_seg.map_or(0, |s| u64::from(s.0) + 1));
        out.push(self.prev_label);
        put_runs(out, &self.labels);
        let init = ctx.rsrnet.stream();
        put_varint(out, self.stream.h().len() as u64);
        out.extend(self.stream.h().iter().map(|&q| q as u8));
        put_f32_delta(out, self.stream.c(), init.c());
    }

    fn thaw(ctx: &ModelView, bytes: &[u8]) -> Self {
        use traj::hibernate::{get_f32_delta, get_runs, get_varint};
        let mut cursor = bytes;
        let slot = get_varint(&mut cursor) as usize;
        let sd = SdPair {
            source: SegmentId(get_varint(&mut cursor) as u32),
            dest: SegmentId(get_varint(&mut cursor) as u32),
        };
        let prev_seg = match get_varint(&mut cursor) {
            0 => None,
            s => Some(SegmentId((s - 1) as u32)),
        };
        let (prev_label, rest) = cursor.split_first().expect("truncated frozen session");
        let prev_label = *prev_label;
        cursor = rest;
        let mut labels = Vec::new();
        get_runs(&mut cursor, &mut labels);
        let init = ctx.rsrnet.stream();
        let hidden = get_varint(&mut cursor) as usize;
        assert_eq!(
            hidden,
            init.c().len(),
            "frozen session hidden_dim does not match its model epoch"
        );
        assert!(cursor.len() >= hidden, "truncated frozen hidden state");
        let (h, rest) = cursor.split_at(hidden);
        cursor = rest;
        let h = h.iter().map(|&b| b as i8).collect();
        let mut c = Vec::with_capacity(hidden);
        get_f32_delta(&mut cursor, init.c(), &mut c);
        assert!(cursor.is_empty(), "trailing bytes in frozen session");
        SessionState {
            stream: RsrStream::from_parts(h, c),
            sd,
            slot,
            prev_seg,
            prev_label,
            labels,
        }
    }
}

/// The RNEL rules (§IV-E). Returns a deterministic label when one of the
/// three degree cases applies.
pub(crate) fn rnel(
    net: &RoadNetwork,
    prev: SegmentId,
    cur: SegmentId,
    prev_label: u8,
) -> Option<u8> {
    let out_prev = net.out_degree(prev);
    let in_cur = net.in_degree(cur);
    if out_prev == 1 && in_cur == 1 {
        Some(prev_label) // case (1): no alternatives on either side
    } else if out_prev == 1 && in_cur > 1 && prev_label == 0 {
        Some(0) // case (2)
    } else if out_prev > 1 && in_cur == 1 && prev_label == 1 {
        Some(1) // case (3)
    } else {
        None
    }
}

/// Delayed Labeling (§IV-E): fills 0-gaps strictly shorter than `d` that
/// separate two anomalous runs.
pub(crate) fn delayed_labeling(labels: &mut [u8], d: usize) {
    if d == 0 {
        return;
    }
    let n = labels.len();
    let mut i = 0;
    while i < n {
        if labels[i] == 1 {
            // find the end of this 1-run
            let mut j = i;
            while j + 1 < n && labels[j + 1] == 1 {
                j += 1;
            }
            // gap of zeros after the run
            let gap_start = j + 1;
            let mut k = gap_start;
            while k < n && labels[k] == 0 {
                k += 1;
            }
            if k < n && k - gap_start < d {
                // a later 1 within the window: fill the gap
                for l in labels.iter_mut().take(k).skip(gap_start) {
                    *l = 1;
                }
                i = j + 1; // re-scan from the merged run
            } else {
                i = k;
            }
        } else {
            i += 1;
        }
    }
}

/// Where a detector's packed weights come from: borrowed from a
/// [`TrainedModel`]'s shared cache, or owned (packed at construction from
/// loose parts during training's dev-set evaluation).
enum PackedSource<'a> {
    Shared(&'a PackedModel),
    Owned(Box<PackedModel>),
}

impl PackedSource<'_> {
    #[inline]
    fn get(&self) -> &PackedModel {
        match self {
            PackedSource::Shared(p) => p,
            PackedSource::Owned(p) => p,
        }
    }
}

/// The borrowed raw parts of a detector, separated from the (possibly
/// owned) packed weights so a [`ModelView`] can be assembled per call
/// without borrowing the whole detector.
#[derive(Clone, Copy)]
struct Parts<'a> {
    config: &'a Rl4oasdConfig,
    pre: &'a Preprocessor,
    rsrnet: &'a RsrNet,
    asdnet: &'a AsdNet,
    net: &'a RoadNetwork,
}

impl<'a> Parts<'a> {
    fn with<'b>(self, packed: &'b PackedModel) -> ModelView<'b>
    where
        'a: 'b,
    {
        ModelView {
            config: self.config,
            pre: self.pre,
            rsrnet: self.rsrnet,
            asdnet: self.asdnet,
            net: self.net,
            packed,
        }
    }
}

/// Online detector over a trained model (or its parts, during training).
///
/// This is the single-session adapter over the shared step logic in
/// `SessionState` (crate-private); the fleet-scale counterpart multiplexing
/// thousands of sessions over one model is [`crate::StreamEngine`]. All nn
/// steps run on packed weights ([`TrainedModel::packed`]) with reusable
/// per-detector scratch, so the per-point path is allocation-free.
pub struct Rl4oasdDetector<'a> {
    parts: Parts<'a>,
    packed: PackedSource<'a>,
    state: SessionState,
    counters: DecisionCounters,
    scratch: StepScratch,
}

impl<'a> Rl4oasdDetector<'a> {
    /// Creates a detector bound to a trained model and road network,
    /// sharing the model's cached packed weights.
    pub fn new(model: &'a TrainedModel, net: &'a RoadNetwork) -> Self {
        Self::build(
            &model.config,
            &model.preprocessor,
            &model.rsrnet,
            &model.asdnet,
            net,
            PackedSource::Shared(model.packed()),
        )
    }

    /// Creates a detector from individual components (used for dev-set
    /// evaluation while training is still in progress); the hot-path
    /// weights are packed once here.
    pub fn from_parts(
        config: &'a Rl4oasdConfig,
        pre: &'a Preprocessor,
        rsrnet: &'a RsrNet,
        asdnet: &'a AsdNet,
        net: &'a RoadNetwork,
    ) -> Self {
        Self::build(
            config,
            pre,
            rsrnet,
            asdnet,
            net,
            PackedSource::Owned(Box::new(PackedModel::of(rsrnet, asdnet))),
        )
    }

    fn build(
        config: &'a Rl4oasdConfig,
        pre: &'a Preprocessor,
        rsrnet: &'a RsrNet,
        asdnet: &'a AsdNet,
        net: &'a RoadNetwork,
        packed: PackedSource<'a>,
    ) -> Self {
        let parts = Parts {
            config,
            pre,
            rsrnet,
            asdnet,
            net,
        };
        let state = SessionState::open(&parts.with(packed.get()), SdPair::default(), 0.0);
        Rl4oasdDetector {
            parts,
            packed,
            state,
            counters: DecisionCounters::default(),
            scratch: StepScratch::default(),
        }
    }

    /// `(RNEL short-circuits, policy invocations)` since construction.
    pub fn decision_counts(&self) -> (usize, usize) {
        (self.counters.rnel_hits, self.counters.policy_calls)
    }

    /// The RNEL rules (§IV-E). Returns a deterministic label when one of
    /// the three cases applies.
    #[cfg(test)]
    fn rnel(&self, prev: SegmentId, cur: SegmentId, prev_label: u8) -> Option<u8> {
        rnel(self.parts.net, prev, cur, prev_label)
    }

    /// Delayed Labeling (§IV-E): fills 0-gaps strictly shorter than `D`
    /// between anomalous runs.
    #[cfg(test)]
    fn delayed_labeling(labels: &mut [u8], d: usize) {
        delayed_labeling(labels, d)
    }
}

impl OnlineDetector for Rl4oasdDetector<'_> {
    fn name(&self) -> &'static str {
        "RL4OASD"
    }

    fn begin(&mut self, sd: SdPair, start_time: f64) {
        let view = self.parts.with(self.packed.get());
        self.state = SessionState::open(&view, sd, start_time);
    }

    fn observe(&mut self, segment: SegmentId) -> u8 {
        let view = self.parts.with(self.packed.get());
        self.state
            .observe(&view, segment, &mut self.counters, &mut self.scratch)
    }

    fn finish(&mut self) -> Vec<u8> {
        let view = self.parts.with(self.packed.get());
        self.state.finish(&view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Rl4oasdConfig;
    use crate::train::train;
    use rnet::{CityBuilder, CityConfig};
    use traj::{Dataset, TrafficConfig, TrafficSimulator};

    fn setup(seed: u64) -> (RoadNetwork, Dataset, TrainedModel) {
        let net = CityBuilder::new(CityConfig::tiny(seed)).build();
        let cfg = TrafficConfig {
            num_sd_pairs: 4,
            trajs_per_pair: (70, 90),
            anomaly_ratio: 0.15,
            ..TrafficConfig::tiny(seed)
        };
        let data = TrafficSimulator::new(&net, cfg).generate();
        let ds = Dataset::from_generated(&data);
        let cfg = Rl4oasdConfig {
            pretrain_trajs: 150,
            joint_trajs: 150,
            ..Rl4oasdConfig::tiny(seed)
        };
        let model = train(&net, &ds, &cfg);
        (net, ds, model)
    }

    #[test]
    fn labels_have_right_shape_and_pinned_endpoints() {
        let (net, ds, model) = setup(1);
        let mut det = Rl4oasdDetector::new(&model, &net);
        for t in ds.trajectories.iter().take(30) {
            let labels = det.label_trajectory(t);
            assert_eq!(labels.len(), t.len());
            assert_eq!(labels[0], 0, "source must be normal");
            assert_eq!(*labels.last().unwrap(), 0, "destination must be normal");
        }
    }

    #[test]
    fn detector_is_reusable_and_deterministic() {
        let (net, ds, model) = setup(2);
        let mut det = Rl4oasdDetector::new(&model, &net);
        let t = &ds.trajectories[0];
        let a = det.label_trajectory(t);
        let b = det.label_trajectory(t);
        assert_eq!(a, b);
    }

    #[test]
    fn detection_beats_always_normal() {
        // The trained detector must achieve nontrivial recall of the
        // injected detours.
        let (net, ds, model) = setup(3);
        let mut det = Rl4oasdDetector::new(&model, &net);
        let outputs: Vec<Vec<u8>> = ds
            .trajectories
            .iter()
            .map(|t| det.label_trajectory(t))
            .collect();
        let truths: Vec<Vec<u8>> = ds
            .trajectories
            .iter()
            .map(|t| ds.truth(t.id).unwrap().to_vec())
            .collect();
        let m = eval::evaluate(&outputs, &truths);
        assert!(m.f1 > 0.3, "F1 = {} too low for a trained model", m.f1);
    }

    #[test]
    fn delayed_labeling_fills_short_gaps() {
        let mut labels = vec![0, 1, 1, 0, 0, 1, 0];
        Rl4oasdDetector::delayed_labeling(&mut labels, 3);
        assert_eq!(labels, vec![0, 1, 1, 1, 1, 1, 0]);

        // Paper semantics: after a 1-run ending at e_{i-1}, the next D
        // segments are scanned for a later 1 (j ≤ i-1+D), so a gap of g
        // zeros is filled iff g < D.
        let mut labels = vec![1, 0, 0, 0, 1];
        Rl4oasdDetector::delayed_labeling(&mut labels, 4);
        assert_eq!(labels, vec![1, 1, 1, 1, 1]);
        let mut labels = vec![1, 0, 0, 0, 1];
        Rl4oasdDetector::delayed_labeling(&mut labels, 3);
        assert_eq!(labels, vec![1, 0, 0, 0, 1]);

        // trailing zeros never filled
        let mut labels = vec![0, 1, 0, 0];
        Rl4oasdDetector::delayed_labeling(&mut labels, 8);
        assert_eq!(labels, vec![0, 1, 0, 0]);

        // D = 0 disables
        let mut labels = vec![1, 0, 1];
        Rl4oasdDetector::delayed_labeling(&mut labels, 0);
        assert_eq!(labels, vec![1, 0, 1]);
    }

    #[test]
    fn rnel_short_circuits_some_decisions() {
        let (net, ds, model) = setup(5);
        let mut det = Rl4oasdDetector::new(&model, &net);
        for t in ds.trajectories.iter().take(50) {
            det.label_trajectory(t);
        }
        let (rnel, policy) = det.decision_counts();
        assert!(policy > 0, "policy must be consulted");
        // The grid has degree-1 chains (removed streets), so RNEL should
        // fire at least occasionally; if the city happens to have none this
        // assertion would need a different seed.
        assert!(rnel + policy > 0);
    }

    #[test]
    fn rnel_rules_match_paper() {
        let (net, _, model) = setup(6);
        let det = Rl4oasdDetector::new(&model, &net);
        // find segments with known degrees to exercise each rule
        for s in net.segment_ids() {
            for &next in net.successors(s) {
                let out_prev = net.out_degree(s);
                let in_cur = net.in_degree(next);
                if out_prev == 1 && in_cur == 1 {
                    assert_eq!(det.rnel(s, next, 0), Some(0));
                    assert_eq!(det.rnel(s, next, 1), Some(1));
                } else if out_prev == 1 && in_cur > 1 {
                    assert_eq!(det.rnel(s, next, 0), Some(0));
                    assert_eq!(det.rnel(s, next, 1), None);
                } else if out_prev > 1 && in_cur == 1 {
                    assert_eq!(det.rnel(s, next, 1), Some(1));
                    assert_eq!(det.rnel(s, next, 0), None);
                } else {
                    assert_eq!(det.rnel(s, next, 0), None);
                    assert_eq!(det.rnel(s, next, 1), None);
                }
            }
        }
    }
}
