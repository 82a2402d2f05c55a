//! In-memory spans of a traced repetition, written out when the run
//! ends. Spans are recorded only by the benchmark's own code, around
//! its calls into a layer's public functions.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span: a call into a layer, with the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `lis-sim.settle`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        id
    }

    /// Records a span whose end is not known yet; close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.push(name, parent, now, now)
    }

    /// Ends span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.ns()
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of the spans named `name` whose parent is
    /// `parent`.
    pub fn total_ns(&self, name: &str, parent: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Writes `header` (a JSON object) and then one JSON line per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_parent() {
        let mut rec = Recorder::new();
        let run = rec.open("run", ROOT);
        let t0 = Instant::now();
        let t1 = Instant::now();
        rec.push("lis-sim.settle", run, t0, t1);
        rec.push("lis-sim.settle", run, t0, t1);
        rec.push("lis-sim.settle", ROOT, t0, t1);
        let run_ns = rec.close(run);
        let one = rec.spans()[1].ns();
        assert_eq!(rec.total_ns("lis-sim.settle", run), 2 * one);
        assert!(run_ns >= one);
        assert_eq!(rec.spans().len(), 4);
    }
}
