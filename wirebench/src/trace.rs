//! In-memory spans for the traced run, recorded from the benchmark's own
//! code around its calls into each layer, and written out when the run
//! ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval. Times are offsets from the trace's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    /// The request the span belongs to, for request spans.
    pub request: Option<u64>,
}

/// A span recorder. Disabled, it records nothing and costs one branch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant, enabled: bool) -> Trace {
        Trace { epoch, enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The offset of `at` from the trace's epoch.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// Records a finished span, its times given as offsets from the
    /// trace's epoch, and returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name: name.into(), start, end, request });
        Some(id)
    }

    /// Runs `f` inside a span named `name` whose children `f` may record
    /// under the id it is given.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Trace, Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        // Reserve the id first so children recorded inside `f` can name it.
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            request: None,
        });
        let out = f(self, Some(id));
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Runs `f` in a span named `name` and returns its result and how
    /// long it took.
    pub fn timed<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.offset(start), self.offset(end));
        self.record(name, parent, s, e, None);
        (out, end - start)
    }

    /// Appends spans recorded by another recorder with the same epoch
    /// (a sender thread's), renumbering their ids.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one tab-separated line per span, self time included.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        writeln!(out, "id\tparent\tname\trequest\tstart_us\tend_us\tself_us")?;
        for (s, self_time) in self.spans.iter().zip(selfs) {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                s.name,
                opt(s.request),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self_time.as_secs_f64() * 1e6
            )?;
        }
        Ok(())
    }

    /// Total self time and span count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<String, (Duration, usize)> {
        let mut out: BTreeMap<String, (Duration, usize)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = out.entry(s.name.clone()).or_default();
            entry.0 += t;
            entry.1 += 1;
        }
        out
    }
}

/// Each span's duration minus the part of its interval that its children
/// cover. Overlapping children are counted once, and a child's part
/// outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for (start, end) in kids {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them_to_the_parent() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover 10..40 together: 30 ms.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            // A child running past its parent's end counts only up to it.
            span(3, Some(0), 90, 120),
            // A grandchild is subtracted from its own parent only.
            span(4, Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], Duration::from_millis(100 - 30 - 10));
        assert_eq!(selfs[1], Duration::from_millis(20 - 6));
        assert_eq!(selfs[2], Duration::from_millis(20));
        assert_eq!(selfs[3], Duration::from_millis(30));
        assert_eq!(selfs[4], Duration::from_millis(6));
    }

    #[test]
    fn a_leaf_keeps_its_whole_duration() {
        assert_eq!(self_times(&[span(0, None, 5, 9)]), vec![Duration::from_millis(4)]);
    }

    #[test]
    fn nested_spans_record_parents_and_absorb_renumbers() {
        let epoch = Instant::now();
        let mut trace = Trace::new(epoch, true);
        trace.span("setup", None, |t, id| {
            let now = t.offset(Instant::now());
            t.record("graph.build", id, now, now, None);
        });
        let mut other = Trace::new(epoch, true);
        let now = Duration::from_millis(1);
        let root = other.record("request", None, now, now, Some(7));
        other.record("client.query", root, now, now, Some(7));
        trace.absorb(other);
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, Some(7));
        assert!(Trace::new(epoch, false).record("x", None, now, now, None).is_none());
    }
}
