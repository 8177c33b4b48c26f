//! The open loop: points are due on a schedule whatever the system does —
//! independent users — each timed from when it was *due*, so that a stall
//! counts against every point it delayed; and the clean-window pooling
//! that keeps the host's bad moments out of the percentiles.

use crate::host;
use crate::inputs::{Op, Session};
use crate::stats;
use crate::transport::{DoorConn, Event, Plan, Transport, WireConn};
use crate::windows::{self, WindowTag, MIN_CLEAN, WINDOW_NS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Seconds thrown away before the first window counts.
const WARMUP_S: f64 = 2.0;
/// How much longer than `--seconds` a run may go looking for clean windows.
const EXTENSION_S: f64 = 5.0;
/// A label later than this after its point was due misses the service
/// limit and does not count towards goodput.
const LIMIT_NS: u64 = 10_000_000;
/// The sender sleeps until this long before a point is due, then spins:
/// a sleep alone wakes 50–100 µs late, a spin alone burns the core the
/// server needs.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);

/// `(warm-up, extension)` in seconds; a smoke run has no time for either.
pub fn margins(smoke: bool) -> (f64, f64) {
    if smoke {
        (0.5, 0.0)
    } else {
        (WARMUP_S, EXTENSION_S)
    }
}

/// What an open-loop run recorded, per point number.
pub struct OpenLoopRecord {
    /// When the schedule's clock read 0.
    pub epoch: Instant,
    /// Points actually sent (a prefix of the plan).
    pub sent: usize,
    /// ns after its due time that each point was sent.
    pub late_ns: Vec<u64>,
    /// ns from the epoch to the read that delivered each point's label;
    /// `u64::MAX` if it never came.
    pub recv_ns: Vec<u64>,
    /// `/proc/stat` at the epoch and at the end of each whole window.
    pub cpu_at_start: Option<host::CpuTicks>,
    pub cpu_at_window_end: Vec<Option<host::CpuTicks>>,
    pub elapsed_s: f64,
}

impl OpenLoopRecord {
    /// `/proc/stat` as window `w` began.
    fn cpu_at(&self, w: usize) -> Option<host::CpuTicks> {
        match w {
            0 => self.cpu_at_start,
            w => self.cpu_at_window_end[w - 1],
        }
    }
}

/// Steal ticks between two `/proc/stat` readings; 0 where either is
/// missing (a host that reports none).
fn stolen(before: Option<host::CpuTicks>, after: Option<host::CpuTicks>) -> u64 {
    match (before, after) {
        (Some(a), Some(b)) => b.steal.saturating_sub(a.steal),
        _ => 0,
    }
}

/// Percentiles and health of an open-loop run after window selection.
pub struct SteadyResult {
    pub p50_us: f64,
    pub p90_us: f64,
    /// The highest percentile the pooled sample supports (the 99th on a
    /// full run), over the selected windows.
    pub tail_us: f64,
    pub tail_q: f64,
    pub pooled: usize,
    /// Labels inside the service limit per second of selected window.
    pub goodput: f64,
    /// The tail over every measured window, selected or not.
    pub raw_tail_us: f64,
    pub clean_share: f64,
    pub degraded: bool,
    pub steal_pct: f64,
    pub late_p99_us: f64,
    pub sent_per_sec: f64,
    pub measured_points: u64,
}

/// Tags each whole window after the warm-up, selects the clean ones and
/// pools their samples. `need` is [`MIN_CLEAN`] except in smoke runs.
pub fn pool_clean(
    due_ns: &[u64],
    rec: &OpenLoopRecord,
    warm_windows: usize,
    need: usize,
) -> SteadyResult {
    let whole_windows = rec.cpu_at_window_end.len();
    assert!(whole_windows > warm_windows, "run ended inside its warm-up");
    let mut tags: Vec<WindowTag> = (warm_windows..whole_windows)
        .map(|w| WindowTag {
            steal_ticks: stolen(rec.cpu_at(w), rec.cpu_at(w + 1)),
            max_late_ns: 0,
        })
        .collect();
    // `(index among the measured windows, lateness, latency)` of every
    // sent point that was due in a measured window. A label that never
    // came waited for ever.
    let measured: Vec<(usize, u64, u64)> = due_ns
        .iter()
        .zip(&rec.late_ns)
        .zip(&rec.recv_ns)
        .take(rec.sent)
        .filter_map(|((&due, &late), &recv)| {
            let w = (due / WINDOW_NS) as usize;
            (w >= warm_windows && w < whole_windows)
                .then(|| (w - warm_windows, late, recv.saturating_sub(due)))
        })
        .collect();
    for &(k, late, _) in &measured {
        tags[k].max_late_ns = tags[k].max_late_ns.max(late);
    }
    let selection = windows::select(&tags, need.min(tags.len()));
    let mut chosen = vec![false; tags.len()];
    selection.windows.iter().for_each(|&k| chosen[k] = true);

    let mut raw: Vec<f64> = measured.iter().map(|m| m.2 as f64 / 1e3).collect();
    let mut late: Vec<f64> = measured.iter().map(|m| m.1 as f64 / 1e3).collect();
    let (mut pooled, mut in_limit) = (Vec::new(), 0u64);
    for &(k, _, latency_ns) in &measured {
        if chosen[k] {
            pooled.push(latency_ns as f64 / 1e3);
            in_limit += u64::from(latency_ns <= LIMIT_NS);
        }
    }
    assert!(!pooled.is_empty(), "no point fell in a selected window");
    let tail_q = stats::supported_tail(pooled.len() as u64);
    let steal_pct = match (rec.cpu_at(warm_windows), rec.cpu_at(whole_windows)) {
        (Some(a), Some(b)) if b.total > a.total => {
            100.0 * (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    };
    let window_s = WINDOW_NS as f64 / 1e9;
    SteadyResult {
        p50_us: stats::percentile(&mut pooled, 0.50),
        p90_us: stats::percentile_sorted(&pooled, 0.90),
        tail_us: stats::percentile_sorted(&pooled, tail_q),
        tail_q,
        pooled: pooled.len(),
        goodput: in_limit as f64 / (selection.windows.len() as f64 * window_s),
        raw_tail_us: stats::percentile(&mut raw, tail_q),
        clean_share: windows::clean_count(&tags) as f64 / tags.len() as f64,
        degraded: selection.degraded,
        steal_pct,
        late_p99_us: stats::percentile(&mut late, 0.99),
        sent_per_sec: raw.len() as f64 / (tags.len() as f64 * window_s),
        measured_points: raw.len() as u64,
    }
}

/// How long an open-loop run goes on: at least `seconds` past the
/// warm-up, then until enough windows are clean or the extension is up.
pub struct OpenLoopClock {
    pub warm_windows: usize,
    pub min_windows: usize,
    pub max_windows: usize,
    /// Clean windows wanted: [`MIN_CLEAN`], or half the windows asked for
    /// where a short phase (traced, smoke) asks for fewer than twice that.
    pub need: usize,
}

impl OpenLoopClock {
    pub fn new(seconds: f64, smoke: bool) -> OpenLoopClock {
        let (warm, ext) = margins(smoke);
        let per_s = 1e9 / WINDOW_NS as f64;
        let warm_windows = (warm * per_s).ceil() as usize;
        let asked = ((seconds * per_s).ceil() as usize).max(2);
        let min_windows = warm_windows + asked;
        OpenLoopClock {
            warm_windows,
            min_windows,
            // Never longer than half again what was asked for.
            max_windows: min_windows + (ext.min(seconds / 2.0) * per_s) as usize,
            need: MIN_CLEAN.min(asked / 2),
        }
    }

    /// Whether the run may stop now that `tags` (the measured windows so
    /// far, warm-up excluded) are in.
    fn done(&self, tags: &[WindowTag]) -> bool {
        let windows = self.warm_windows + tags.len();
        windows >= self.max_windows
            || (windows >= self.min_windows && windows::clean_count(tags) >= self.need)
    }
}

/// Sleeps to [`SPIN_BEFORE_DUE`] short of `due`, then spins.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_BEFORE_DUE {
            std::thread::sleep(left - SPIN_BEFORE_DUE);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What [`over_wire`] hands back.
pub struct WireSteadyRun {
    pub record: OpenLoopRecord,
    /// Every event that was not a label, in arrival order.
    pub others: Vec<Event>,
    /// Thread usage as the warm-up ended and just before `Goodbye`.
    pub usage: (host::ThreadUsage, host::ThreadUsage),
    pub conn: WireConn,
}

/// `wire_steady`'s client: a sender thread pacing the plan's points to
/// their due times, a receiver thread blocked in `read`, and the calling
/// thread sampling `/proc/stat` at window boundaries and deciding when to
/// stop — two busy threads and one connection on two cores.
pub fn over_wire(
    conn: WireConn,
    sessions: &[Session],
    plan: &Plan,
    due_ns: &[u64],
    clock: &OpenLoopClock,
) -> WireSteadyRun {
    let WireConn { mut tx, mut rx } = conn;
    let stop = AtomicBool::new(false);
    let labels_in = AtomicU64::new(0);
    let late_by_window: Vec<AtomicU64> =
        (0..=clock.max_windows).map(|_| AtomicU64::new(0)).collect();
    let (sent_tx, sent_rx) = channel::<usize>();
    let (go_tx, go_rx) = channel::<()>();
    let mut probe = host::StealProbe::open();
    let cpu_at_start = probe.read();
    let epoch = Instant::now() + Duration::from_millis(5);

    std::thread::scope(|scope| {
        // Owned by this closure, so that a panic below drops it and the
        // sender is released instead of the scope waiting on it for ever.
        let go_tx = go_tx;
        let (stop, labels_in, late_by_window) = (&stop, &labels_in, &late_by_window);
        let sender = std::thread::Builder::new()
            .name("load-send".to_string())
            .spawn_scoped(scope, move || {
                let mut late_ns = vec![0u64; plan.points];
                let mut sent = 0usize;
                for (k, &op) in plan.ops.iter().enumerate() {
                    if let Op::Point(..) = op {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let point = plan.point_of_op[k] as usize;
                        let due = epoch + Duration::from_nanos(due_ns[point]);
                        wait_until(due);
                        tx.queue(sessions, op, 0);
                        let now = Instant::now();
                        tx.flush();
                        let late = (now - due).as_nanos() as u64;
                        late_ns[point] = late;
                        if let Some(slot) = late_by_window.get((due_ns[point] / WINDOW_NS) as usize)
                        {
                            slot.fetch_max(late, Ordering::Relaxed);
                        }
                        sent = point + 1;
                    } else {
                        tx.queue(sessions, op, 0);
                    }
                }
                tx.flush();
                sent_tx.send(sent).expect("report sent count");
                // Thread usage is read while this thread still exists.
                let _ = go_rx.recv();
                tx.goodbye();
                (tx, late_ns, sent)
            })
            .expect("spawn sender");
        let receiver = std::thread::Builder::new()
            .name("load-recv".to_string())
            .spawn_scoped(scope, move || {
                let mut recv_ns = vec![u64::MAX; plan.points];
                let mut answered = vec![0u32; sessions.len()];
                let mut others = Vec::new();
                let mut events = Vec::new();
                while !rx.bye {
                    rx.recv(&mut events);
                    let at = rx.last_read.saturating_duration_since(epoch).as_nanos() as u64;
                    let mut labels = 0u64;
                    for event in events.drain(..) {
                        match event {
                            Event::Label(id) => {
                                let k = answered[id as usize] as usize;
                                answered[id as usize] += 1;
                                recv_ns[plan.session_points[id as usize][k] as usize] = at;
                                labels += 1;
                            }
                            other => others.push(other),
                        }
                    }
                    labels_in.fetch_add(labels, Ordering::Release);
                }
                (rx, recv_ns, others)
            })
            .expect("spawn receiver");

        // This thread: one `/proc/stat` reading per window boundary.
        let mut cpu_at_window_end = Vec::new();
        let mut tags: Vec<WindowTag> = Vec::new();
        let mut usage_before = host::ThreadUsage::default();
        let mut cpu_prev = cpu_at_start;
        loop {
            let w = cpu_at_window_end.len();
            let boundary = epoch + Duration::from_nanos(WINDOW_NS * (w as u64 + 1));
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let cpu = probe.read();
            cpu_at_window_end.push(cpu);
            if w + 1 == clock.warm_windows {
                usage_before = host::ThreadUsage::read();
            }
            if w >= clock.warm_windows {
                // A point due late in the window may still be on its way
                // out; this count only decides when to stop, the final
                // tags are rebuilt from the full record.
                tags.push(WindowTag {
                    steal_ticks: stolen(cpu_prev, cpu),
                    max_late_ns: late_by_window[w].load(Ordering::Relaxed),
                });
                if clock.done(&tags) {
                    break;
                }
            }
            cpu_prev = cpu;
        }
        stop.store(true, Ordering::Relaxed);
        let sent = sent_rx.recv().expect("sender reports");
        // Give the tail of labels a moment to land before usage is read.
        let patience = Instant::now() + Duration::from_secs(2);
        while labels_in.load(Ordering::Acquire) < sent as u64 && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed_s = epoch.elapsed().as_secs_f64();
        let usage_after = host::ThreadUsage::read();
        go_tx.send(()).expect("release sender");
        let (tx, late_ns, sent) = sender.join().expect("sender thread");
        let (rx, recv_ns, others) = receiver.join().expect("receiver thread");
        WireSteadyRun {
            record: OpenLoopRecord {
                epoch,
                sent,
                late_ns,
                recv_ns,
                cpu_at_start,
                cpu_at_window_end,
                elapsed_s,
            },
            others,
            usage: (usage_before, usage_after),
            conn: WireConn { tx, rx },
        }
    })
}

/// The same schedule through the ingest door, in-process: one thread that
/// submits each point when it is due and sweeps for labels in between
/// (its spin is the receiver), against the door's one worker thread.
pub fn through_door(
    door: &mut DoorConn,
    sessions: &[Session],
    plan: &Plan,
    due_ns: &[u64],
    clock: &OpenLoopClock,
) -> OpenLoopRecord {
    let mut probe = host::StealProbe::open();
    let cpu_at_start = probe.read();
    let epoch = Instant::now() + Duration::from_millis(5);
    let mut late_ns = vec![0u64; plan.points];
    let mut recv_ns = vec![u64::MAX; plan.points];
    let mut answered = vec![0u32; sessions.len()];
    let mut cpu_at_window_end = Vec::new();
    let mut tags: Vec<WindowTag> = Vec::new();
    let mut cpu_prev = cpu_at_start;
    let mut window_late = 0u64;
    let mut events = Vec::new();
    let mut sent = 0usize;

    // Sweeps until `until`, stamping every label with the sweep's time.
    let mut sweep_until = |door: &mut DoorConn, until: Instant| loop {
        door.sweep(&mut events);
        let now = Instant::now();
        let at = now.saturating_duration_since(epoch).as_nanos() as u64;
        for event in events.drain(..) {
            if let Event::Label(id) = event {
                let k = answered[id as usize] as usize;
                answered[id as usize] += 1;
                recv_ns[plan.session_points[id as usize][k] as usize] = at;
            }
        }
        if now >= until {
            return;
        }
    };

    'ops: for (k, &op) in plan.ops.iter().enumerate() {
        if let Op::Point(..) = op {
            let point = plan.point_of_op[k] as usize;
            // Close every window that ends before this point is due.
            while (cpu_at_window_end.len() as u64 + 1) * WINDOW_NS <= due_ns[point] {
                let w = cpu_at_window_end.len();
                sweep_until(
                    door,
                    epoch + Duration::from_nanos(WINDOW_NS * (w as u64 + 1)),
                );
                let cpu = probe.read();
                cpu_at_window_end.push(cpu);
                if w >= clock.warm_windows {
                    tags.push(WindowTag {
                        steal_ticks: stolen(cpu_prev, cpu),
                        max_late_ns: window_late,
                    });
                    if clock.done(&tags) {
                        break 'ops;
                    }
                }
                cpu_prev = cpu;
                window_late = 0;
            }
            let due = epoch + Duration::from_nanos(due_ns[point]);
            sweep_until(door, due);
            let now = Instant::now();
            door.queue(sessions, op, 0);
            let late = (now - due).as_nanos() as u64;
            late_ns[point] = late;
            window_late = window_late.max(late);
            sent = point + 1;
        } else {
            door.queue(sessions, op, 0);
        }
    }
    // Let the tail land.
    sweep_until(door, Instant::now() + Duration::from_millis(100));
    OpenLoopRecord {
        epoch,
        sent,
        late_ns,
        recv_ns,
        cpu_at_start,
        cpu_at_window_end,
        elapsed_s: epoch.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(total: u64, steal: u64) -> Option<host::CpuTicks> {
        Some(host::CpuTicks { total, steal })
    }

    /// Four windows of four points each, due every 62.5 ms. Window 0 is
    /// warm-up; window 2 has a steal tick; window 3 has a late point.
    fn record() -> (Vec<u64>, OpenLoopRecord) {
        let due_ns: Vec<u64> = (0..16).map(|k| k * WINDOW_NS / 4).collect();
        let mut late_ns = vec![1_000u64; 16];
        late_ns[13] = 3_000_000;
        // Latency 1 ms everywhere, 20 ms in window 2, one lost label.
        let mut recv_ns: Vec<u64> = due_ns.iter().map(|d| d + 1_000_000).collect();
        for k in 8..12 {
            recv_ns[k] = due_ns[k] + 20_000_000;
        }
        recv_ns[5] = u64::MAX;
        let rec = OpenLoopRecord {
            epoch: Instant::now(),
            sent: 16,
            late_ns,
            recv_ns,
            cpu_at_start: ticks(1000, 10),
            cpu_at_window_end: vec![
                ticks(1050, 10),
                ticks(1100, 10),
                ticks(1150, 11),
                ticks(1200, 11),
            ],
            elapsed_s: 1.0,
        };
        (due_ns, rec)
    }

    #[test]
    fn only_clean_windows_are_pooled() {
        let (due_ns, rec) = record();
        // Window 1 alone is clean; asking for one window takes just it.
        let r = pool_clean(&due_ns, &rec, 1, 1);
        assert!(!r.degraded);
        assert_eq!(r.pooled, 4);
        assert!((r.clean_share - 1.0 / 3.0).abs() < 1e-12);
        // Three of its four labels came within the limit; one never came.
        assert_eq!(r.goodput, 3.0 / 0.25);
        assert_eq!(r.p50_us, 1000.0);
        assert_eq!(r.measured_points, 12);
        assert_eq!(r.sent_per_sec, 12.0 / 0.75);
        // One steal tick in 150 total over the measured windows.
        assert!((r.steal_pct - 100.0 / 150.0).abs() < 1e-9);
        // Four samples support no more than a median as their "tail".
        assert_eq!((r.tail_q, r.tail_us), (0.5, 1000.0));
    }

    #[test]
    fn too_few_clean_windows_degrade_to_the_least_stolen() {
        let (due_ns, rec) = record();
        let r = pool_clean(&due_ns, &rec, 1, 2);
        assert!(r.degraded);
        // Windows 1 (clean) and 3 (late but not stolen) are taken, the
        // stolen window 2 is not.
        assert_eq!(r.pooled, 8);
        assert_eq!(r.p50_us, 1000.0);
    }

    #[test]
    fn the_clock_waits_for_clean_windows_within_its_extension() {
        let full = OpenLoopClock::new(12.0, false);
        assert_eq!(
            (
                full.warm_windows,
                full.min_windows,
                full.max_windows,
                full.need
            ),
            (8, 56, 76, MIN_CLEAN)
        );
        // A short phase asks for fewer clean windows and a shorter grace.
        let clock = OpenLoopClock::new(4.0, false);
        assert_eq!(
            (
                clock.warm_windows,
                clock.min_windows,
                clock.max_windows,
                clock.need
            ),
            (8, 24, 32, 8)
        );
        let smoke = OpenLoopClock::new(1.0, true);
        assert_eq!(
            (smoke.min_windows, smoke.max_windows, smoke.need),
            (6, 6, 2)
        );
        let clean = WindowTag {
            steal_ticks: 0,
            max_late_ns: 0,
        };
        let stolen = WindowTag {
            steal_ticks: 2,
            max_late_ns: 0,
        };
        // Not before the asked seconds are up, however clean.
        assert!(!clock.done(&[clean; 15]));
        // At the asked length: only with enough clean windows...
        assert!(clock.done(&[clean; 16]));
        let mut tags = vec![stolen; 16];
        tags[..7].fill(clean);
        assert!(!clock.done(&tags));
        // ...else on into the extension, to its end at the latest.
        tags.push(clean);
        assert!(clock.done(&tags));
        assert!(!clock.done(&[stolen; 23]));
        assert!(clock.done(&[stolen; 24]));
    }
}
