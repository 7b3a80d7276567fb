//! The recorder: the handle every instrumented crate writes through.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::MetricSheet;
use crate::report::RunReport;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Accumulated per-phase wall time.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PhaseAgg {
    pub count: u64,
    pub wall_nanos: u64,
}

#[derive(Debug, Default)]
struct State {
    sheet: MetricSheet,
    phases: BTreeMap<&'static str, PhaseAgg>,
    depth: usize,
}

#[derive(Debug)]
struct Inner {
    clock: Arc<dyn Clock>,
    trace: bool,
    tracer: Tracer,
    state: Mutex<State>,
}

/// A cloneable telemetry sink.
///
/// The default recorder is *disabled*: every call is a no-op and costs one
/// branch, so library entry points can take a `&Recorder` unconditionally.
/// An enabled recorder accumulates spans, counters, and histograms behind a
/// mutex (instrumentation sites are phase-granular or pre-merged worker
/// sheets, so the lock is far off any hot path) and snapshots into a
/// [`RunReport`]. Telemetry is write-only with respect to inference: nothing
/// in the pipeline ever reads a recorder.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// An enabled recorder on the real monotonic clock. With `trace` set,
    /// phase enter/exit lines are printed to stderr as they happen.
    pub fn new(trace: bool) -> Recorder {
        Recorder::with_clock(trace, Box::new(MonotonicClock::new()))
    }

    /// An enabled recorder on an explicit clock (tests use
    /// [`MockClock`](crate::MockClock) for deterministic span durations).
    pub fn with_clock(trace: bool, clock: Box<dyn Clock>) -> Recorder {
        Recorder::assemble(trace, Arc::from(clock), None)
    }

    /// An enabled recorder that also collects trace events (per-track ring
    /// capacity `track_capacity`), on the real monotonic clock. The tracer
    /// shares the recorder's clock, so span wall times and trace timestamps
    /// agree.
    pub fn with_tracing(trace: bool, track_capacity: usize) -> Recorder {
        Recorder::assemble(trace, Arc::new(MonotonicClock::new()), Some(track_capacity))
    }

    /// [`Recorder::with_tracing`] on an explicit clock, for tests.
    pub fn with_clock_tracing(
        trace: bool,
        clock: Box<dyn Clock>,
        track_capacity: usize,
    ) -> Recorder {
        Recorder::assemble(trace, Arc::from(clock), Some(track_capacity))
    }

    fn assemble(trace: bool, clock: Arc<dyn Clock>, tracing: Option<usize>) -> Recorder {
        let tracer = match tracing {
            Some(capacity) => Tracer::new(clock.clone(), capacity),
            None => Tracer::disabled(),
        };
        Recorder {
            inner: Some(Arc::new(Inner {
                clock,
                trace,
                tracer,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// True when this recorder accumulates anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace sink this recorder was built with (disabled unless
    /// constructed via [`Recorder::with_tracing`] /
    /// [`Recorder::with_clock_tracing`]). Cheap to clone and hand to
    /// subsystems that record per-worker events.
    pub fn tracer(&self) -> Tracer {
        self.inner
            .as_ref()
            .map(|i| i.tracer.clone())
            .unwrap_or_default()
    }

    /// Enters a phase span; the span records its wall time when dropped.
    #[must_use = "a span records its duration when dropped; binding it to _ ends it immediately"]
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                rec: Recorder::disabled(),
                name,
                start_nanos: 0,
            };
        };
        let start_nanos = inner.clock.now_nanos();
        inner.tracer.begin_main(name, 0);
        if inner.trace {
            let depth = {
                let mut st = inner.state.lock().expect("obs state lock");
                let d = st.depth;
                st.depth += 1;
                d
            };
            eprintln!("[obs] {:indent$}-> {name}", "", indent = depth * 2);
        }
        Span {
            rec: self.clone(),
            name,
            start_nanos,
        }
    }

    /// Adds `n` to a deterministic counter.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .expect("obs state lock")
                .sheet
                .add(name, n);
        }
    }

    /// Adds one to a deterministic counter.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to an execution-dependent counter.
    pub fn add_exec(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .expect("obs state lock")
                .sheet
                .add_exec(name, n);
        }
    }

    /// Records one histogram sample.
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .expect("obs state lock")
                .sheet
                .record(name, value);
        }
    }

    /// Folds a pre-merged [`MetricSheet`] (e.g. the deterministic merge of
    /// per-worker sheets) into the recorder.
    pub fn absorb(&self, sheet: &MetricSheet) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .expect("obs state lock")
                .sheet
                .merge(sheet);
        }
    }

    /// Snapshots everything recorded so far into a [`RunReport`].
    pub fn report(&self) -> RunReport {
        let Some(inner) = &self.inner else {
            return RunReport::empty();
        };
        let st = inner.state.lock().expect("obs state lock");
        RunReport::from_parts(&st.sheet, &st.phases)
    }

    fn finish_span(&self, name: &'static str, start_nanos: u64) {
        let Some(inner) = &self.inner else { return };
        inner.tracer.end_main(name);
        let elapsed = inner.clock.now_nanos().saturating_sub(start_nanos);
        let mut st = inner.state.lock().expect("obs state lock");
        let agg = st.phases.entry(name).or_default();
        agg.count += 1;
        agg.wall_nanos += elapsed;
        if inner.trace {
            st.depth = st.depth.saturating_sub(1);
            let depth = st.depth;
            drop(st);
            eprintln!(
                "[obs] {:indent$}<- {name}  {ms:.3} ms",
                "",
                indent = depth * 2,
                ms = elapsed as f64 / 1e6
            );
        }
    }
}

/// A phase span guard: created by [`Recorder::span`], records its wall time
/// into the recorder when dropped.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    name: &'static str,
    start_nanos: u64,
}

impl Span {
    /// The phase name this span times.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.rec.finish_span(self.name, self.start_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.inc("x");
        rec.add_exec("e", 3);
        rec.record("h", 1);
        {
            let _s = rec.span("phase");
        }
        let report = rec.report();
        assert!(report.counters.is_empty());
        assert!(report.phases.is_empty());
    }

    #[test]
    fn span_durations_come_from_the_clock() {
        let clock = MockClock::new();
        let rec = Recorder::with_clock(false, Box::new(clock.clone()));
        {
            let _outer = rec.span("outer");
            clock.advance(2_000_000); // 2 ms
            {
                let _inner = rec.span("inner");
                clock.advance(500_000); // 0.5 ms
            }
        }
        let report = rec.report();
        assert_eq!(report.phases["outer"].count, 1);
        assert!((report.phases["outer"].wall_ms - 2.5).abs() < 1e-9);
        assert!((report.phases["inner"].wall_ms - 0.5).abs() < 1e-9);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let clock = MockClock::new();
        let rec = Recorder::with_clock(false, Box::new(clock.clone()));
        for _ in 0..3 {
            let _s = rec.span("p");
            clock.advance(1_000_000);
        }
        let report = rec.report();
        assert_eq!(report.phases["p"].count, 3);
        assert!((report.phases["p"].wall_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn counters_and_sheets_land_in_the_report() {
        let rec = Recorder::with_clock(false, Box::new(MockClock::new()));
        rec.add("a", 2);
        rec.inc("a");
        rec.add_exec("e", 7);
        rec.record("h", 4);
        let mut sheet = MetricSheet::new();
        sheet.add("a", 10);
        sheet.record("h", 4);
        rec.absorb(&sheet);
        let report = rec.report();
        assert_eq!(report.counters["a"], 13);
        assert_eq!(report.exec["e"], 7);
        assert_eq!(report.histograms["h"].count, 2);
    }

    #[test]
    fn clones_share_one_sink() {
        let rec = Recorder::with_clock(false, Box::new(MockClock::new()));
        let other = rec.clone();
        other.inc("x");
        rec.inc("x");
        assert_eq!(rec.report().counters["x"], 2);
    }
}
