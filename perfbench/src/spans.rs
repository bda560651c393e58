//! In-memory spans around calls into each layer, recorded from the
//! benchmark's own files.
//!
//! The program carries no instrumentation of its own. Instead the traced
//! run wraps the two seams the runtime already takes by trait object or
//! generic: [`TimedBackend`] decorates the [`RdtBackend`] (simulator
//! advance, counter reads, CAT/MBA writes) and [`TimedRecorder`]
//! decorates the trace [`Recorder`]. The epoch span itself is opened by
//! the caller around `ConsolidationRuntime::run_period_into`. Spans are
//! kept in a thread-local buffer — the runtime runs on the calling
//! thread — and written out when the run ends.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, RdtCapabilities, RdtError};
use copart_telemetry::{CounterSnapshot, Recorder, TraceEvent};

/// The layer a span belongs to; the discriminant indexes per-layer
/// tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `run_period_into` call; its self time is the core control
    /// path (sensor, classifier, planner, actuator bookkeeping).
    Epoch,
    /// `RdtBackend::advance`: the simulator's machine ticks.
    Advance,
    /// Any other backend query: counter reads, CLOS config, clock.
    RdtRead,
    /// A CAT mask or MBA level write.
    RdtWrite,
    /// One event handed to the trace recorder.
    Record,
}

impl Layer {
    /// The span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Epoch => "core.epoch",
            Layer::Advance => "sim.advance",
            Layer::RdtRead => "rdt.read",
            Layer::RdtWrite => "rdt.write",
            Layer::Record => "telemetry.record",
        }
    }
}

/// One closed span. Times are nanoseconds since the process's first
/// span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// The epoch the span belongs to.
    pub epoch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Nanoseconds since the first span of the process, so spans from
/// separate recordings share one time axis.
fn nanos() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording spans on this thread (dropping any earlier buffer).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        });
    });
}

/// Stops recording and hands back every closed span.
pub fn stop() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// Tags the spans that follow with an epoch id.
pub fn set_epoch(epoch: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.epoch = epoch;
        }
    });
}

/// Runs `f` inside a span of `layer` when tracing is on; otherwise
/// just runs it.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let idx = tr.spans.len();
            tr.spans.push(Span {
                layer,
                start_ns: nanos(),
                end_ns: 0,
                parent: tr.open.last().copied(),
                epoch: tr.epoch,
            });
            tr.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.spans[idx].end_ns = nanos();
                tr.open.pop();
            }
        });
    }
    out
}

/// Moves `src` onto the end of `dst`, keeping parent links pointing at
/// the same spans and adding `epoch_base` to every epoch id.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>, epoch_base: u64) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        epoch: s.epoch + epoch_base,
        ..s
    }));
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap: one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Writes the spans as JSON lines: name, start, end, parent, epoch.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.epoch
        )?;
    }
    out.flush()
}

/// An [`RdtBackend`] decorator that records one span per call.
#[derive(Debug)]
pub struct TimedBackend<B>(pub B);

impl<B: RdtBackend> RdtBackend for TimedBackend<B> {
    fn capabilities(&self) -> RdtCapabilities {
        span(Layer::RdtRead, || self.0.capabilities())
    }

    fn groups(&self) -> Vec<ClosId> {
        span(Layer::RdtRead, || self.0.groups())
    }

    fn set_cbm(&mut self, group: ClosId, mask: CbmMask) -> Result<(), RdtError> {
        span(Layer::RdtWrite, || self.0.set_cbm(group, mask))
    }

    fn set_mba(&mut self, group: ClosId, level: MbaLevel) -> Result<(), RdtError> {
        span(Layer::RdtWrite, || self.0.set_mba(group, level))
    }

    fn clos_config(&self, group: ClosId) -> Result<(CbmMask, MbaLevel), RdtError> {
        span(Layer::RdtRead, || self.0.clos_config(group))
    }

    fn read_counters(&mut self, group: ClosId) -> Result<CounterSnapshot, RdtError> {
        span(Layer::RdtRead, || self.0.read_counters(group))
    }

    fn advance(&mut self, period: Duration) -> Result<(), RdtError> {
        span(Layer::Advance, || self.0.advance(period))
    }

    fn now_ns(&self) -> u64 {
        span(Layer::RdtRead, || self.0.now_ns())
    }

    fn read_mbm_total_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        span(Layer::RdtRead, || self.0.read_mbm_total_bytes(group))
    }

    fn read_llc_occupancy_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        span(Layer::RdtRead, || self.0.read_llc_occupancy_bytes(group))
    }
}

/// A [`Recorder`] decorator that records one span per event.
pub struct TimedRecorder<R>(pub R);

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        span(Layer::Record, || self.0.record(event));
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_times() {
        start();
        set_epoch(7);
        span(Layer::Epoch, || {
            span(Layer::Advance, || {
                std::thread::sleep(Duration::from_millis(2))
            });
            span(Layer::Record, || ());
        });
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.epoch == 7 && s.end_ns >= s.start_ns));
        let own = self_times_ns(&spans);
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(own[0], spans[0].duration_ns() - children);
        assert!(own[1] >= 2_000_000);
    }

    #[test]
    fn appended_recordings_keep_their_parent_links() {
        let mut all = Vec::new();
        for _ in 0..2 {
            start();
            set_epoch(3);
            span(Layer::Epoch, || span(Layer::Advance, || ()));
            append(&mut all, stop(), 10);
        }
        let parents: Vec<_> = all.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);
        assert!(all.iter().all(|s| s.epoch == 13));
        assert!(all[2].start_ns >= all[1].end_ns, "one time axis");
    }

    #[test]
    fn untraced_spans_cost_nothing_and_record_nothing() {
        assert_eq!(span(Layer::Epoch, || 41 + 1), 42);
        assert!(stop().is_empty());
    }
}
