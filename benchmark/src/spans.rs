//! Spans recorded *by the benchmark* around its calls into each layer's
//! public functions (spans inside the program are a later change). Kept in
//! memory during the run; written out only at the end, only when asked.

use std::io::Write;
use std::time::Instant;

/// Id of the span a root span names as its parent.
pub const NO_PARENT: u32 = u32::MAX;

/// Session field of a span that belongs to no single session.
pub const NO_SESSION: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub session: u32,
}

/// One thread's span buffer. Bounded: past `cap` spans it only counts
/// what it dropped, so a long run cannot grow without limit.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanLog {
    /// `epoch` is shared by every log of a run so that spans recorded on
    /// different threads line up.
    pub fn new(epoch: Instant, cap: usize) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id ([`NO_PARENT`] if dropped).
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            session,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn begin(&mut self, name: &'static str, parent: u32, session: u32, start: Instant) -> u32 {
        self.leaf(name, parent, session, start, start)
    }

    pub fn end(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Appends `other`'s spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// One JSON object per line: `{"id", "name", "start_ns", "end_ns",
    /// "parent", "session"}`, `null` for no parent / no session.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: u32| {
            if v == u32::MAX {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.session)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parents_children_and_merge() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0, 8);
        let pass = log.begin("pass", NO_PARENT, NO_SESSION, at(0));
        log.leaf("engine.open", pass, 7, at(1), at(3));
        log.leaf("engine.observe", pass, 7, at(3), at(10));
        log.end(pass, at(12));
        assert_eq!(log.durations("engine.observe"), vec![7_000.0]);

        let mut other = SpanLog::new(t0, 8);
        let root = other.begin("sock.read", NO_PARENT, NO_SESSION, at(20));
        other.leaf("proto.decode", root, 7, at(21), at(22));
        other.end(root, at(25));
        log.absorb(other);
        assert_eq!(log.len(), 5);
        assert_eq!(log.spans[4].parent, 3, "child re-based onto merged parent");
        assert_eq!(log.spans[3].parent, NO_PARENT);

        let mut text = Vec::new();
        log.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"proto.decode\",\"start_ns\":21000,\"end_ns\":22000,\"parent\":3,\"session\":7"));
    }

    #[test]
    fn a_full_log_counts_what_it_drops() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0, 2);
        assert_eq!(log.leaf("a", NO_PARENT, NO_SESSION, t0, t0), 0);
        assert_eq!(log.leaf("a", NO_PARENT, NO_SESSION, t0, t0), 1);
        assert_eq!(log.leaf("a", NO_PARENT, NO_SESSION, t0, t0), NO_PARENT);
        log.end(NO_PARENT, t0); // ending a dropped span is a no-op
        assert_eq!((log.len(), log.dropped), (2, 1));
    }
}
