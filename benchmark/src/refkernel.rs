//! Speed normalisation against a frozen reference kernel.
//!
//! The host this runs on changes speed under the benchmark: a pure
//! register loop was seen to swing 78 → 128 ms in regimes lasting several
//! seconds with no steal reported, so neither `/proc/stat` nor a warm-up
//! can correct for it. Instead every closed-loop workload interleaves a
//! small fixed computation — [`RefKernel::block`], 6–10 ms after every
//! 50 ms of work — and scales each stretch of work by how much slower
//! than [`REF_NOMINAL_MS`] the block next to it ran ([`Normaliser`]).
//!
//! The kernel is shaped like the program's own hot loop (one LSTM step at
//! hidden 64: a 256×128 f32 mat-vec, then gate non-linearities), so that
//! cache and frequency effects hit both alike, but it **calls no repo
//! code**: a PR that speeds the program up cannot speed the yardstick up
//! with it. Never edit the arithmetic below or [`REF_NOMINAL_MS`]; either
//! change rescales every recorded number.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ROWS: usize = 256;
const COLS: usize = 128;
const HIDDEN: usize = 64;

/// Steps per timed block.
pub const REF_STEPS: usize = 1000;

/// What one block takes on the calibration host (2-vCPU Xeon @ 2.1 GHz KVM
/// guest) when nothing disturbs it; disturbed, the same block was seen to
/// take anything up to 13 ms. Fixed once: it only sets the scale of the
/// normalised numbers, which read as "on the undisturbed calibration
/// host".
pub const REF_NOMINAL_MS: f64 = 6.0;

/// The same for a block run on two threads at once, which takes longer
/// even undisturbed: the two compete for what the cores share.
pub const REF_NOMINAL_PAIRED_MS: f64 = 7.5;

/// Accumulated work after which the next block runs.
pub const WORK_PER_BLOCK: Duration = Duration::from_millis(50);

pub struct RefKernel {
    w: Vec<f32>,
    /// The input sequence: step `t` reads it rotated by `t`.
    inputs: [f32; HIDDEN],
    xh: [f32; COLS],
    c: [f32; HIDDEN],
    z: [f32; ROWS],
    steps: usize,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    pub fn new() -> RefKernel {
        // Fixed xorshift fill in [-0.1, 0.1]: small weights keep the
        // recurrence away from saturation for any number of steps.
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2
        };
        let w = (0..ROWS * COLS).map(|_| next()).collect();
        let mut inputs = [0.0f32; HIDDEN];
        for x in inputs.iter_mut() {
            *x = next() * 10.0;
        }
        RefKernel {
            w,
            inputs,
            xh: [0.0; COLS],
            c: [0.0; HIDDEN],
            z: [0.0; ROWS],
            steps: 0,
        }
    }

    /// One LSTM-like step. The hidden state feeds back, so no step can
    /// start before the last one finished; the input half is a fixed
    /// sequence of order-one values, without which the zero-bias
    /// recurrence decays to exact zeros — first through denormals, ten
    /// times slower, then onto libm's fast paths.
    #[inline(never)]
    pub fn step(&mut self) {
        for j in 0..HIDDEN {
            self.xh[j] = self.inputs[(j + self.steps) % HIDDEN];
        }
        self.steps += 1;
        for (r, z) in self.z.iter_mut().enumerate() {
            let row = &self.w[r * COLS..(r + 1) * COLS];
            let mut acc = [0.0f32; 8];
            for (wk, xk) in row.chunks_exact(8).zip(self.xh.chunks_exact(8)) {
                for l in 0..8 {
                    acc[l] += wk[l] * xk[l];
                }
            }
            *z = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
        }
        let logistic = |v: f32| 1.0 / (1.0 + (-v).exp());
        for j in 0..HIDDEN {
            let i = logistic(self.z[j]);
            let f = logistic(self.z[HIDDEN + j]);
            let g = self.z[2 * HIDDEN + j].tanh();
            let o = logistic(self.z[3 * HIDDEN + j]);
            self.c[j] = f * self.c[j] + i * g;
            self.xh[HIDDEN + j] = o * self.c[j].tanh();
        }
    }

    /// Runs [`REF_STEPS`] steps and returns how long they took.
    pub fn block(&mut self) -> Duration {
        let t = Instant::now();
        for _ in 0..REF_STEPS {
            self.step();
        }
        std::hint::black_box(&self.xh);
        t.elapsed()
    }

    #[cfg(test)]
    fn checksum(&self) -> f64 {
        self.xh.iter().map(|&v| f64::from(v)).sum()
    }
}

/// The percentile a chunk's `tail_ns` is. Not the 99th: on a closed loop
/// that one sits where the host decides it — a 1 kHz timer tick alone
/// lands in one in 150 of `engine_single`'s ~6 µs calls — and moved
/// 18–33 % between runs of the same code where the 90th moved 4–7 %.
pub const CHUNK_TAIL: f64 = 0.90;

/// One stretch of timed work and the reference block that followed it.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Points (or whatever the workload counts) completed.
    pub units: u64,
    pub work_s: f64,
    /// The reference block run right after the work, in ms.
    pub ref_ms: f64,
    /// What one block is expected to take, in ms.
    pub nominal_ms: f64,
    /// Median and [`CHUNK_TAIL`] percentile of the latency samples taken
    /// during the work, ns; 0 when none were taken.
    pub p50_ns: f64,
    pub tail_ns: f64,
    /// Whether spans were being recorded during the work (traced runs
    /// alternate, chunk by chunk, to price the recording).
    pub traced: bool,
}

impl Chunk {
    /// How many times slower than nominal the host ran around this chunk.
    pub fn slowdown(&self) -> f64 {
        self.ref_ms / self.nominal_ms
    }

    /// Units per second the chunk would have shown at nominal speed.
    pub fn rate(&self) -> f64 {
        self.units as f64 / self.work_s * self.slowdown()
    }
}

/// A second thread that runs a reference block whenever it is told to.
struct Partner {
    /// `None` only while dropping: hanging up ends the thread's loop.
    go: Option<Sender<()>>,
    done: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

impl Partner {
    fn spawn() -> Partner {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel::<()>();
        let thread = std::thread::Builder::new()
            .name("ref-partner".to_string())
            .spawn(move || {
                let mut kernel = RefKernel::new();
                kernel.block();
                while go_rx.recv().is_ok() {
                    kernel.block();
                    if done_tx.send(()).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn reference partner");
        Partner {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }

    /// Runs `own` on this thread while the partner runs its block, and
    /// returns once both are done.
    fn alongside(&self, own: &mut dyn FnMut()) {
        let go = self.go.as_ref().expect("partner in use while dropping");
        go.send(()).expect("reference partner is alive");
        own();
        self.done.recv().expect("reference partner is alive");
    }
}

impl Drop for Partner {
    fn drop(&mut self) {
        self.go = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Cuts a workload's timed work into chunks, runs a reference block after
/// each, and reduces the chunks to figures that stand for the program on
/// an undisturbed host.
///
/// Each chunk is scaled by *its own* reference block and the figures are
/// **medians over chunks** (weighted by units). Scaling a whole run's sum
/// by its mean block time was tried first: it corrects the slow regimes,
/// which last seconds and hit work and block alike, but not the bursts — a
/// few ms of a vCPU descheduled — which land in a chunk *or* its block and
/// then skew the ratio either way. README.md has the measured ranges.
///
/// The reference occupies as many cores as the workload: one thread for
/// the in-process engine, two ([`Normaliser::paired`]: the block runs on
/// this thread and a partner at once, and takes as long as the slower)
/// for a client and a server that keep both cores of the calibration host
/// busy. A neighbour taking one core halves a two-thread pipeline and
/// barely touches a one-thread yardstick.
pub struct Normaliser {
    kernel: RefKernel,
    partner: Option<Partner>,
    since_block: Duration,
    units_since_block: u64,
    samples_ns: Vec<f64>,
    chunks: Vec<Chunk>,
    /// Whether the current chunk is a traced one, and whether that flips
    /// with every chunk.
    tracing: bool,
    alternate: bool,
}

impl Default for Normaliser {
    fn default() -> Self {
        Normaliser::single()
    }
}

impl Normaliser {
    fn new(partner: Option<Partner>) -> Normaliser {
        // One block up front: a fresh kernel's first is its slowest.
        let mut kernel = RefKernel::new();
        kernel.block();
        Normaliser {
            kernel,
            partner,
            since_block: Duration::ZERO,
            units_since_block: 0,
            samples_ns: Vec::new(),
            chunks: Vec::new(),
            tracing: false,
            alternate: false,
        }
    }

    /// From now on every other chunk is a traced one, starting with the
    /// next. The untraced chunks give the run's figures, the traced ones
    /// [`Normaliser::traced_rate`]; interleaving them this finely is what
    /// lets the two be compared on a host that changes by the second.
    pub fn alternate_tracing(&mut self) {
        self.alternate = true;
    }

    /// Whether the caller should record spans for the work it is doing.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// For work that keeps one core busy.
    pub fn single() -> Normaliser {
        Normaliser::new(None)
    }

    /// For work that keeps two cores busy.
    pub fn paired() -> Normaliser {
        Normaliser::new(Some(Partner::spawn()))
    }

    /// Notes how long one operation of the current chunk took.
    #[inline]
    pub fn sample(&mut self, latency: Duration) {
        self.samples_ns.push(latency.as_nanos() as f64);
    }

    /// Books `d` of timed work that completed `units`. Call with the
    /// workload quiescent: once [`WORK_PER_BLOCK`] has accumulated this
    /// closes the chunk, which runs a reference block on the calling
    /// thread before returning.
    pub fn add_work(&mut self, d: Duration, units: u64) {
        self.since_block += d;
        self.units_since_block += units;
        if self.since_block >= WORK_PER_BLOCK {
            self.close_chunk();
        }
    }

    /// Ends the current chunk now, whatever work it holds.
    pub fn close_chunk(&mut self) {
        if self.since_block.is_zero() {
            return;
        }
        let start = Instant::now();
        let kernel = &mut self.kernel;
        let mut own = || {
            kernel.block();
        };
        match &self.partner {
            None => own(),
            Some(partner) => partner.alongside(&mut own),
        }
        let ref_ms = start.elapsed().as_secs_f64() * 1e3;
        let (p50_ns, tail_ns) = if self.samples_ns.is_empty() {
            (0.0, 0.0)
        } else {
            let p50 = crate::stats::percentile(&mut self.samples_ns, 0.50);
            (
                p50,
                crate::stats::percentile_sorted(&self.samples_ns, CHUNK_TAIL),
            )
        };
        self.chunks.push(Chunk {
            units: self.units_since_block,
            work_s: self.since_block.as_secs_f64(),
            ref_ms,
            nominal_ms: match self.partner {
                None => REF_NOMINAL_MS,
                Some(_) => REF_NOMINAL_PAIRED_MS,
            },
            p50_ns,
            tail_ns,
            traced: self.tracing,
        });
        self.tracing = self.alternate && !self.tracing;
        self.since_block = Duration::ZERO;
        self.units_since_block = 0;
        self.samples_ns.clear();
    }

    #[cfg(test)]
    fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The untraced chunks that completed any units.
    pub fn plain_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().filter(|c| c.units > 0 && !c.traced)
    }

    fn weighted_median(chunks: impl Iterator<Item = (f64, u64)>) -> f64 {
        crate::stats::weighted_percentile(&mut chunks.collect::<Vec<_>>(), 0.5)
    }

    /// Median of `f(chunk)` over the untraced chunks, each weighing as
    /// much as the units it completed.
    pub fn median_of(&self, f: impl Fn(&Chunk) -> f64) -> f64 {
        Self::weighted_median(self.plain_chunks().map(|c| (f(c), c.units)))
    }

    /// Units per second at nominal host speed.
    pub fn rate(&self) -> f64 {
        self.median_of(Chunk::rate)
    }

    /// The same over the traced chunks.
    pub fn traced_rate(&self) -> f64 {
        let traced = self.chunks.iter().filter(|c| c.units > 0 && c.traced);
        Self::weighted_median(traced.map(|c| (c.rate(), c.units)))
    }

    /// Units per second as the clock saw them: all units over all work,
    /// traced chunks left out.
    pub fn raw_rate(&self) -> f64 {
        let untraced = self.chunks.iter().filter(|c| !c.traced);
        let (units, work_s) = untraced.fold((0, 0.0), |(u, w), c| (u + c.units, w + c.work_s));
        units as f64 / work_s
    }

    /// Median and [`CHUNK_TAIL`] latency at nominal host speed, in µs.
    ///
    /// The tail is the median times the median chunk's tail-to-median
    /// ratio: the ratio is a shape, which neither a slow regime nor a
    /// noisy reference block moves, so the yardstick's own noise enters
    /// once, through the median, not twice (ten runs of `wire_saturate`
    /// on a busy host: 7 % between the quartiles this way, 10 % scaling
    /// each chunk's tail by its block).
    pub fn latency_us(&self) -> (f64, f64) {
        let p50_us = self.median_of(|c| c.p50_ns / c.slowdown()) / 1e3;
        let sampled = self.plain_chunks().filter(|c| c.p50_ns > 0.0);
        let shape = Self::weighted_median(sampled.map(|c| (c.tail_ns / c.p50_ns, c.units)));
        (p50_us, p50_us * shape)
    }

    /// Median reference block time over the run, in ms.
    pub fn ref_ms(&self) -> f64 {
        crate::stats::median(&self.plain_chunks().map(|c| c.ref_ms).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_stays_finite() {
        let mut a = RefKernel::new();
        let mut b = RefKernel::new();
        for _ in 0..3000 {
            a.step();
            b.step();
        }
        assert_eq!(a.checksum().to_bits(), b.checksum().to_bits());
        assert!(a.checksum().is_finite());
        assert!(a.xh.iter().all(|v| v.abs() <= 1.0));
        // Long after the start the hidden state is still of order 0.1:
        // it has neither died out (denormals, then libm's zero fast
        // paths) nor saturated.
        let hidden_mean = a.xh[HIDDEN..].iter().map(|v| v.abs()).sum::<f32>() / HIDDEN as f32;
        assert!(
            (0.01..0.9).contains(&hidden_mean),
            "hidden mean {hidden_mean}"
        );
        // And it keeps moving, or the compiler could hoist steps.
        let before = a.checksum();
        a.step();
        assert_ne!(before.to_bits(), a.checksum().to_bits());
    }

    fn chunk(units: u64, work_s: f64, ref_ms: f64, p50_ns: f64) -> Chunk {
        Chunk {
            units,
            work_s,
            ref_ms,
            nominal_ms: REF_NOMINAL_MS,
            p50_ns,
            tail_ns: 2.0 * p50_ns,
            traced: false,
        }
    }

    #[test]
    fn a_slow_host_is_scaled_back_to_nominal() {
        // The reference ran 25 % slower than nominal around this chunk:
        // 80 k raw points/s is 100 k at nominal speed, 10 µs raw is 8 µs.
        let slow = chunk(80_000, 1.0, REF_NOMINAL_MS * 1.25, 10_000.0);
        assert!((slow.slowdown() - 1.25).abs() < 1e-12);
        assert!((slow.rate() - 100_000.0).abs() < 1e-6);
        // At nominal speed nothing moves.
        assert_eq!(chunk(500, 2.0, REF_NOMINAL_MS, 1.0).rate(), 250.0);
    }

    #[test]
    fn figures_are_unit_weighted_medians_over_chunks() {
        let mut n = Normaliser::single();
        n.chunks = vec![
            // An undisturbed chunk: 100 k/s, 8 µs.
            chunk(1000, 0.010, REF_NOMINAL_MS, 8_000.0),
            // A slow regime: half speed for work and block alike.
            chunk(1000, 0.020, REF_NOMINAL_MS * 2.0, 16_000.0),
            // A burst that hit the work and missed the block: 25 k/s.
            chunk(1000, 0.040, REF_NOMINAL_MS, 8_000.0),
            // Closes only: no units, no vote.
            chunk(0, 0.005, REF_NOMINAL_MS, 0.0),
        ];
        // Rates 100 k, 100 k, 25 k: the regime is scaled away and the
        // median shrugs off the burst.
        assert!((n.rate() - 100_000.0).abs() < 1e-6);
        let (p50, tail) = n.latency_us();
        assert!((p50 - 8.0).abs() < 1e-9 && (tail - 16.0).abs() < 1e-9);
        // Raw is plain units over time.
        assert!((n.raw_rate() - 3000.0 / 0.075).abs() < 1e-6);
        // Weights: one chunk with most of the units carries the median.
        n.chunks = vec![
            chunk(10, 1.0, REF_NOMINAL_MS, 1.0),
            chunk(1000, 1.0, REF_NOMINAL_MS, 1.0),
        ];
        assert_eq!(n.rate(), 1000.0);
    }

    #[test]
    fn chunks_close_on_accumulated_work_and_reduce_their_samples() {
        let mut n = Normaliser::single();
        for k in 1..=10 {
            n.sample(Duration::from_nanos(k * 100));
        }
        n.add_work(WORK_PER_BLOCK / 2, 5);
        assert!(n.chunks().is_empty());
        n.add_work(WORK_PER_BLOCK / 2, 5);
        assert_eq!(n.chunks().len(), 1);
        let c = n.chunks()[0];
        assert_eq!((c.units, c.p50_ns, c.tail_ns), (10, 500.0, 900.0));
        assert!((c.work_s - 0.05).abs() < 1e-9 && c.ref_ms > 0.0);
        // Samples do not leak into the next chunk; an empty one has none.
        n.add_work(WORK_PER_BLOCK * 3, 1);
        assert_eq!(n.chunks().len(), 2);
        assert_eq!(n.chunks()[1].p50_ns, 0.0);
        // Closing by hand ends a short chunk; closing nothing does nothing.
        n.add_work(WORK_PER_BLOCK / 10, 1);
        n.close_chunk();
        n.close_chunk();
        assert_eq!(n.chunks().len(), 3);
    }

    #[test]
    fn a_paired_block_runs_on_two_threads_and_the_partner_is_joined() {
        let mut n = Normaliser::paired();
        n.add_work(WORK_PER_BLOCK, 1);
        n.add_work(WORK_PER_BLOCK, 1);
        assert_eq!(n.chunks().len(), 2);
        assert_eq!(n.chunks()[0].nominal_ms, REF_NOMINAL_PAIRED_MS);
        assert!(n.chunks().iter().all(|c| c.ref_ms > 0.0));
        // Dropping joins the partner; a hang here would fail the test run.
        drop(n);
    }

    #[test]
    fn alternate_chunks_are_traced_and_kept_out_of_the_figures() {
        let mut n = Normaliser::single();
        n.add_work(WORK_PER_BLOCK, 100);
        assert!(!n.tracing());
        n.alternate_tracing();
        let mut seen = Vec::new();
        for _ in 0..4 {
            n.add_work(WORK_PER_BLOCK, 100);
            seen.push(n.tracing());
        }
        // Chunks 0 and 1 ran untraced (the flag flips after a chunk
        // closes), then traced and untraced take turns.
        assert_eq!(seen, [true, false, true, false]);
        let traced: Vec<bool> = n.chunks().iter().map(|c| c.traced).collect();
        assert_eq!(traced, [false, false, true, false, true]);
        assert_eq!(n.plain_chunks().count(), 3);
        assert!(n.traced_rate() > 0.0);
    }
}
