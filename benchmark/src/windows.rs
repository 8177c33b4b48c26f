//! Clean-window selection for open-loop latency.
//!
//! On a shared two-core VM the raw p99 of a 20 s open-loop run moved
//! 2.3 → 44.9 ms between runs of the same code: a handful of points that
//! arrive while the hypervisor has the core elsewhere, or while the load
//! generator itself was descheduled, decide the tail. So the run is cut
//! into [`WINDOW_NS`] windows, each tagged with what the host and the
//! generator did during it, and percentiles are taken over the samples of
//! the windows in which neither misbehaved.

/// Window length. Shorter windows isolate a steal burst better but a
/// `/proc/stat` tick is 10 ms, so much shorter windows could not see one.
pub const WINDOW_NS: u64 = 250_000_000;

/// A window is unusable once the generator sent any point this late.
pub const MAX_LATE_NS: u64 = 1_000_000;

/// Fewest clean windows a percentile may be pooled from.
pub const MIN_CLEAN: usize = 20;

/// What happened during one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowTag {
    /// Steal ticks of `/proc/stat`'s `cpu` line that fell in the window
    /// (0 where the host does not report steal).
    pub steal_ticks: u64,
    /// The latest any point due in this window was sent.
    pub max_late_ns: u64,
}

impl WindowTag {
    pub fn is_clean(&self) -> bool {
        self.steal_ticks == 0 && self.max_late_ns < MAX_LATE_NS
    }
}

/// Which windows to pool, and whether that needed the fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Indices into the tag slice, ascending.
    pub windows: Vec<usize>,
    /// Fewer than `need` windows were clean, so the `need` least
    /// disturbed ones were taken instead.
    pub degraded: bool,
}

/// All clean windows if there are at least `need`; otherwise the `need`
/// least-stolen (ties: least-late) windows, flagged as degraded.
pub fn select(tags: &[WindowTag], need: usize) -> Selection {
    let clean: Vec<usize> = (0..tags.len()).filter(|&i| tags[i].is_clean()).collect();
    if clean.len() >= need {
        return Selection {
            windows: clean,
            degraded: false,
        };
    }
    let mut order: Vec<usize> = (0..tags.len()).collect();
    order.sort_by_key(|&i| (tags[i].steal_ticks, tags[i].max_late_ns, i));
    order.truncate(need);
    order.sort_unstable();
    Selection {
        windows: order,
        degraded: true,
    }
}

pub fn clean_count(tags: &[WindowTag]) -> usize {
    tags.iter().filter(|t| t.is_clean()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(steal_ticks: u64, max_late_ns: u64) -> WindowTag {
        WindowTag {
            steal_ticks,
            max_late_ns,
        }
    }

    #[test]
    fn clean_needs_no_steal_and_a_punctual_generator() {
        assert!(tag(0, 0).is_clean());
        assert!(tag(0, MAX_LATE_NS - 1).is_clean());
        assert!(!tag(0, MAX_LATE_NS).is_clean());
        assert!(!tag(1, 0).is_clean());
    }

    #[test]
    fn enough_clean_windows_are_all_taken() {
        let tags = [
            tag(0, 10),
            tag(2, 10),
            tag(0, 20),
            tag(0, 5_000_000),
            tag(0, 0),
        ];
        let s = select(&tags, 3);
        assert_eq!(s.windows, vec![0, 2, 4]);
        assert!(!s.degraded);
        assert_eq!(clean_count(&tags), 3);
    }

    #[test]
    fn too_few_clean_falls_back_to_least_disturbed() {
        let tags = [
            tag(3, 0),         // most stolen
            tag(0, 0),         // clean
            tag(1, 900),       // a little steal
            tag(0, 2_000_000), // late generator, no steal
            tag(1, 100),       // a little steal, less late
        ];
        let s = select(&tags, 4);
        assert!(s.degraded);
        // Order of preference: 1 (clean), 3 (steal 0, late), 4, 2; 0 dropped.
        assert_eq!(s.windows, vec![1, 2, 3, 4]);
        // Asking for more than exist returns what there is.
        let all = select(&tags, 9);
        assert!(all.degraded);
        assert_eq!(all.windows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn no_steal_column_degrades_to_lateness_alone() {
        // A host without steal reporting tags every window steal 0.
        let tags = [tag(0, 10), tag(0, 1_500_000), tag(0, 999_999)];
        assert_eq!(select(&tags, 2).windows, vec![0, 2]);
    }
}
