//! Ledger-owned spans for the traced run: kept in memory, written to
//! `trace-<workload>.json` when the run ends, and reduced to per-layer
//! self times (a span's duration minus the part of it its children
//! cover).
//!
//! Every span is recorded from the ledger's side of a crate's public
//! API; the program under test contains none of them.

use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table (the layer).
    pub name: u16,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Staged-call id shared by all spans of one call.
    pub call: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
pub struct Recorder {
    t0: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        call: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent,
            call,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` and records it as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        call: u32,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.record(name, parent, call, start, end), out)
    }

    /// Lays measured step durations out as consecutive children of
    /// `parent`, starting at its start. A step is `(name, duration,
    /// nested)`, where `nested` are durations of work done *inside* that
    /// step, timed separately by replaying it. What does not fit inside
    /// the parent (or a nested step inside its step) is cut off, so the
    /// self times of a call always add up to its root; the nanoseconds
    /// cut are returned.
    pub fn lay_out(&mut self, parent: u32, steps: &[Step]) -> u64 {
        let (call, mut at, limit) = {
            let p = &self.spans[parent as usize];
            (p.call, p.start_ns, p.end_ns)
        };
        let mut cut = 0;
        for step in steps {
            let end = (at + step.ns).min(limit);
            cut += at + step.ns - end;
            let id = self.record(step.name, parent, call, at, end);
            let mut inner_at = at;
            for (name, ns) in step.nested.iter().flatten() {
                let inner_end = (inner_at + ns).min(end);
                self.record(name, id, call, inner_at, inner_end);
                inner_at = inner_end;
            }
            at = end;
        }
        cut
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Writes every span as `[id, parent, name, call, start_ns, end_ns]`
    /// (parent −1 for roots).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"names\":[")?;
        for (i, n) in self.names.iter().enumerate() {
            write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(w, "],\"columns\":[\"id\",\"parent\",\"name\",\"call\",\"start_ns\",\"end_ns\"],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{}[{i},{parent},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.name,
                s.call,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// One measured step of a staged call, for [`Recorder::lay_out`].
pub struct Step {
    pub name: &'static str,
    pub ns: u64,
    pub nested: [Option<(&'static str, u64)>; 2],
}

impl Step {
    pub fn new(name: &'static str, ns: u64) -> Step {
        Step {
            name,
            ns,
            nested: [None, None],
        }
    }

    pub fn with(mut self, name: &'static str, ns: u64) -> Step {
        let slot = self
            .nested
            .iter_mut()
            .find(|s| s.is_none())
            .expect("at most two nested steps");
        *slot = Some((name, ns));
        self
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent, and
/// children that overlap each other are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Children grouped by parent, ordered by start within a parent.
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| {
            let p = &spans[s.parent as usize];
            (
                s.parent,
                s.start_ns.clamp(p.start_ns, p.end_ns),
                s.end_ns.clamp(p.start_ns, p.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let mut covered = 0;
        let mut reach = 0;
        while i < kids.len() && kids[i].0 == parent {
            let (_, start, end) = kids[i];
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
            i += 1;
        }
        out[parent as usize] -= covered;
    }
    out
}

/// Self time per span name (indexed like the name table) and per staged
/// call: one entry for every call in which the name occurs, summed when
/// it occurs more than once in the call. Spans of one call are recorded
/// together, so a change of call id starts a new entry.
pub fn self_time_per_call(rec: &Recorder) -> Vec<Vec<u64>> {
    let own = self_times(rec.spans());
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); rec.names().len()];
    let mut current: Vec<Option<u32>> = vec![None; rec.names().len()];
    for (span, own) in rec.spans().iter().zip(own) {
        let name = span.name as usize;
        match out[name].last_mut() {
            Some(sum) if current[name] == Some(span.call) => *sum += own,
            _ => {
                out[name].push(own);
                current[name] = Some(span.call);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            call: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100, child 10..40 with grandchild 15..25, child 50..70.
        let spans = [
            span(NO_PARENT, 0, 100),
            span(0, 10, 40),
            span(1, 15, 25),
            span(0, 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_past_the_parents_end_is_clipped() {
        // The child runs 30 past the parent: only 20 of it count against
        // the parent, and a child wholly outside counts for nothing.
        let spans = [span(NO_PARENT, 0, 100), span(0, 80, 130), span(0, 140, 150)];
        let own = self_times(&spans);
        assert_eq!(own[0], 80);
        assert_eq!(own[1], 50);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 60), span(0, 40, 80)];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn lay_out_places_steps_back_to_back_and_balances() {
        let mut rec = Recorder::with_capacity(8);
        let root = rec.record("call", NO_PARENT, 7, 1_000, 2_000);
        let cut = rec.lay_out(
            root,
            &[
                Step::new("encode", 300).with("write", 100),
                Step::new("rtt", 400),
                // Runs 100 past the root's end: laid 1700..2000.
                Step::new("decode", 400).with("pull", 350),
            ],
        );
        assert_eq!(cut, 100);
        let per_call = self_time_per_call(&rec);
        let of = |n: &str| {
            let own = &per_call[rec.names().iter().position(|x| *x == n).unwrap()];
            assert_eq!(own.len(), 1, "{n}: one staged call");
            own[0]
        };
        assert_eq!(of("encode"), 200);
        assert_eq!(of("write"), 100);
        assert_eq!(of("rtt"), 400);
        assert_eq!(of("decode"), 0);
        assert_eq!(of("pull"), 300);
        assert_eq!(of("call"), 0);
        assert!(rec.spans().iter().all(|s| s.call == 7));
        // The books balance: self times add up to the root exactly.
        assert_eq!(per_call.iter().flatten().sum::<u64>(), 1_000);
    }

    #[test]
    fn unattributed_is_what_the_steps_leave_of_the_root() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.record("call", NO_PARENT, 0, 0, 1_000);
        assert_eq!(
            rec.lay_out(root, &[Step::new("a", 300), Step::new("b", 450)]),
            0
        );
        assert_eq!(
            self_time_per_call(&rec),
            vec![vec![250], vec![300], vec![450]]
        );
    }

    #[test]
    fn self_time_per_call_sums_repeats_within_a_call() {
        let mut rec = Recorder::with_capacity(8);
        for call in 0..2 {
            let root = rec.record("walk", NO_PARENT, call, 0, 100);
            rec.lay_out(
                root,
                &[
                    Step::new("encode", 30).with("write", 10 + u64::from(call)),
                    Step::new("reply", 70).with("write", 20),
                ],
            );
        }
        let per_call = self_time_per_call(&rec);
        let write = rec.names().iter().position(|x| *x == "write").unwrap();
        assert_eq!(per_call[write], vec![30, 31]);
    }
}
