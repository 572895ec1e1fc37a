//! In-memory spans recorded by the benchmark around its own calls: one
//! per client request, and one per layer call in the replay. Spans are
//! kept in memory, written out when the run ends, and reduced to self
//! times (a span's duration minus the part its children cover).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One finished span. Times are offsets from the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

/// An append-only span list with a common epoch.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (to parent others).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Opens a parent span whose end is fixed later with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, None, request)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.epoch.elapsed();
    }

    /// Appends another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Duration, Duration)> = kids
                    .iter()
                    .map(|&k| {
                        (
                            self.spans[k].start.max(s.start),
                            self.spans[k].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_micros_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t.as_secs_f64() * 1e6);
        }
        out
    }

    /// Writes one tab-separated line per span: index, parent, request,
    /// name, start and end (µs from the epoch) and self time (µs).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tparent\trequest\tname\tstart_us\tend_us\tself_us")?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                t.as_micros()
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(r: &Recorder, ms: u64) -> Instant {
        r.epoch + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(Instant::now());
        let root = r.record("root", at(&r, 0), at(&r, 100), None, 1);
        // Two overlapping children cover 10..50; a third 60..70.
        r.record("a", at(&r, 10), at(&r, 40), Some(root), 1);
        r.record("b", at(&r, 30), at(&r, 50), Some(root), 1);
        let c = r.record("c", at(&r, 60), at(&r, 70), Some(root), 1);
        r.record("d", at(&r, 62), at(&r, 65), Some(c), 1);
        let st = r.self_times();
        assert_eq!(st[root], Duration::from_millis(50));
        assert_eq!(st[1], Duration::from_millis(30));
        assert_eq!(st[c], Duration::from_millis(7));
        assert_eq!(st[4], Duration::from_millis(3));
        let by_name = r.self_micros_by_name();
        assert_eq!(by_name["root"], vec![50_000.0]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.record("x", epoch, epoch, None, 0);
        let mut b = Recorder::new(epoch);
        let p = b.record("p", epoch, epoch, None, 7);
        b.record("q", epoch, epoch, Some(p), 7);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 7);
    }

    #[test]
    fn time_and_open_close_record_spans() {
        let mut r = Recorder::new(Instant::now());
        let root = r.open("request", 3);
        let v = r.time("work", Some(root), 3, || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert!(r.spans()[root].end >= r.spans()[1].end);
    }
}
