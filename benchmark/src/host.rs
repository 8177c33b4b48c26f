//! What the host did to the run: stolen CPU time, peak RSS, per-thread
//! CPU and wake-ups — all read from `/proc`, all parsed by pure functions
//! so the parsers are tested on captured text.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

/// `/proc` reports CPU time in clock ticks of 1/100 s on every Linux this
/// benchmark targets (`getconf CLK_TCK`; std has no sysconf).
pub const TICK_US: f64 = 10_000.0;

/// The aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks in every state, steal included.
    pub total: u64,
    /// Ticks the hypervisor ran someone else while this VM was runnable.
    pub steal: u64,
}

/// Parses the first (`cpu `) line of `/proc/stat`. Kernels before 2.6.11
/// have no steal column; those read as steal 0.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    // guest and guest_nice (fields 9, 10) are already inside user/nice.
    Some(CpuTicks {
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// Re-readable `/proc/stat`. Where the file is missing or unparsable
/// every read is `None` and the clean-window rule falls back to the
/// generator-lateness test alone.
pub struct StealProbe {
    file: Option<File>,
}

impl StealProbe {
    pub fn open() -> StealProbe {
        StealProbe {
            file: File::open("/proc/stat").ok(),
        }
    }

    pub fn read(&mut self) -> Option<CpuTicks> {
        let file = self.file.as_mut()?;
        file.seek(SeekFrom::Start(0)).ok()?;
        // The `cpu ` line is first; one short read is enough.
        let mut head = [0u8; 256];
        let n = file.read(&mut head).ok()?;
        let text = std::str::from_utf8(&head[..n]).ok()?;
        // Keep whole lines only: the read may end inside `cpu0 ...`.
        parse_proc_stat(&text[..text.rfind('\n')? + 1])
    }
}

/// A `Key:   <n> kB`-style field of `/proc/<pid>/status`, unit dropped.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    let rest = text
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    rest.split_ascii_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_field(&text, "VmHWM")? as f64 / 1024.0)
}

/// `(comm, utime + stime)` of one `/proc/<pid>/task/<tid>/stat` line. The
/// command name sits in parentheses and may itself hold spaces and
/// parentheses, so the split is at the *last* `)`.
pub fn parse_task_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let mut rest = text.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// CPU ticks and voluntary context switches (a thread that blocked and
/// was woken) of every live thread of this process, by thread name.
#[derive(Debug, Clone, Default)]
pub struct ThreadUsage {
    pub rows: Vec<(String, u64, u64)>,
}

impl ThreadUsage {
    pub fn read() -> ThreadUsage {
        let mut rows = Vec::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return ThreadUsage { rows };
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let stat = std::fs::read_to_string(path.join("stat")).ok();
            let status = std::fs::read_to_string(path.join("status")).ok();
            if let (Some(stat), Some(status)) = (stat, status) {
                if let Some((comm, ticks)) = parse_task_stat(&stat) {
                    let wakes = parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
                    rows.push((comm, ticks, wakes));
                }
            }
        }
        ThreadUsage { rows }
    }

    /// `(cpu ticks, wake-ups)` summed over threads whose name starts with
    /// `prefix` (Linux truncates names to 15 bytes, hence prefixes).
    pub fn sum(&self, prefix: &str) -> (u64, u64) {
        self.rows
            .iter()
            .filter(|(comm, _, _)| comm.starts_with(prefix))
            .fold((0, 0), |(c, w), (_, ticks, wakes)| (c + ticks, w + wakes))
    }

    /// Growth of `prefix`'s threads since `earlier`.
    pub fn delta(&self, earlier: &ThreadUsage, prefix: &str) -> (u64, u64) {
        let (c1, w1) = self.sum(prefix);
        let (c0, w0) = earlier.sum(prefix);
        (c1.saturating_sub(c0), w1.saturating_sub(w0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the 2-vCPU KVM guest this benchmark was calibrated on.
    const PROC_STAT: &str = "\
cpu  765125 0 81628 1663460 10341 0 15709 41018 0 0
cpu0 232915 0 32223 984540 8207 0 7225 20722 0 0
cpu1 532209 0 49404 678919 2134 0 8484 20296 0 0
intr 105873406 0 9 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
ctxt 190518367
btime 1790884942
";

    const SELF_STATUS: &str = "\
Name:\tbenchmark
Umask:\t0022
State:\tR (running)
Tgid:\t27033
Pid:\t27033
VmPeak:\t  141300 kB
VmSize:\t  141300 kB
VmHWM:\t   26304 kB
VmRSS:\t   25108 kB
Threads:\t5
voluntary_ctxt_switches:\t48211
nonvoluntary_ctxt_switches:\t902
";

    const TASK_STAT: &str = "27034 (serve-pump) S 27024 27034 27024 0 -1 4194304 115 0 0 0 \
417 96 0 0 20 0 5 0 1293350 2703360 322 18446744073709551615 94309520965632 94309520985513 \
140721174224304 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0 94309521001520 94309521003136 94310265729024 \
140721174230485 140721174230516 140721174230516 140721174233067 0";

    #[test]
    fn proc_stat_steal_and_total() {
        let t = parse_proc_stat(PROC_STAT).unwrap();
        assert_eq!(t.steal, 41018);
        assert_eq!(t.total, 765125 + 81628 + 1663460 + 10341 + 15709 + 41018);
        // Pre-steal kernels: four columns, steal reads 0.
        let old = parse_proc_stat("cpu  10 0 5 100\n").unwrap();
        assert_eq!((old.total, old.steal), (115, 0));
        assert_eq!(parse_proc_stat("intr 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4\n"), None);
    }

    #[test]
    fn status_fields() {
        assert_eq!(parse_status_field(SELF_STATUS, "VmHWM"), Some(26304));
        assert_eq!(
            parse_status_field(SELF_STATUS, "voluntary_ctxt_switches"),
            Some(48211)
        );
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_field(SELF_STATUS, "Vm"), None);
        assert_eq!(parse_status_field(SELF_STATUS, "VmSwap"), None);
    }

    #[test]
    fn task_stat_sums_user_and_system_ticks() {
        assert_eq!(
            parse_task_stat(TASK_STAT),
            Some(("serve-pump".to_string(), 417 + 96))
        );
        // A hostile comm with spaces and parentheses.
        let odd = TASK_STAT.replace("(serve-pump)", "(a) b (c)");
        assert_eq!(parse_task_stat(&odd), Some(("a) b (c".to_string(), 513)));
        assert_eq!(parse_task_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn usage_sums_by_prefix_and_diffs() {
        let before = ThreadUsage {
            rows: vec![
                ("ingest-shard-0".into(), 10, 100),
                ("serve-pump".into(), 5, 50),
            ],
        };
        let after = ThreadUsage {
            rows: vec![
                ("ingest-shard-0".into(), 30, 400),
                ("serve-pump".into(), 6, 90),
                ("serve-pump".into(), 2, 10),
            ],
        };
        assert_eq!(after.delta(&before, "ingest-shard"), (20, 300));
        assert_eq!(after.delta(&before, "serve-pump"), (3, 50));
        assert_eq!(after.delta(&before, "absent"), (0, 0));
    }
}
