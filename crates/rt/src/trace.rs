//! Structured tracing and phase-level profiling.
//!
//! Two cooperating pieces, both std-only:
//!
//! * [`TraceSink`] — a thread-aware span/event recorder. A sink handle is
//!   cheap to clone and is threaded through the stack explicitly, the same
//!   way `Arc<dyn Backend>` is: the service holds one in its config and
//!   passes `&TraceSink` down into the prover. A disabled sink (the
//!   default) records nothing and costs one branch per span, so
//!   instrumented code needs no `#[cfg]` gates and produces byte-identical
//!   proofs whether tracing is on or off. Each recording thread owns a
//!   bounded ring buffer (oldest events drop first, with a drop counter),
//!   timestamps are monotonic microseconds since the sink's epoch, and the
//!   whole recording can be exported as Chrome trace-event JSON that loads
//!   directly into Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! * [`Histogram`] — a log-bucketed latency histogram with an exact,
//!   associative merge. Buckets are log-linear (16 linear sub-buckets per
//!   octave of microseconds), bounding the relative quantile error at
//!   1/16 ≈ 6.3% while keeping the footprint to a few hundred `u64`
//!   counters. Unlike a bounded sliding sample window, merging two
//!   histograms loses nothing: bucket counts add, so a fleet-level p99
//!   computed from merged per-session histograms is exact with respect to
//!   every recorded sample, not just the last N.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use crate::json::{JsonValue, ToJson};

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
/// Trace buffers are updated in single consistent steps (one event push,
/// one depth bump), so a poisoned guard never exposes a torn update — and a
/// panicking traced wave must not cascade panics into the trace dump.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maximum number of key/value arguments a span or instant event carries.
/// Arguments beyond this are silently ignored so the hot path never
/// allocates.
pub const MAX_TRACE_ARGS: usize = 4;

/// Default per-thread ring-buffer capacity, in events.
pub const DEFAULT_THREAD_CAPACITY: usize = 32 * 1024;

/// A fixed-capacity, allocation-free list of `(&'static str, u64)` span
/// arguments.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArgList {
    items: [(&'static str, u64); MAX_TRACE_ARGS],
    len: u8,
}

impl ArgList {
    /// Builds an argument list from a slice, keeping at most
    /// [`MAX_TRACE_ARGS`] entries.
    pub fn from_slice(args: &[(&'static str, u64)]) -> Self {
        let mut list = Self {
            items: [("", 0); MAX_TRACE_ARGS],
            len: 0,
        };
        for &(k, v) in args.iter().take(MAX_TRACE_ARGS) {
            list.items[list.len as usize] = (k, v);
            list.len += 1;
        }
        list
    }

    /// The recorded arguments, in insertion order.
    pub fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.items[..self.len as usize]
    }
}

/// What kind of trace event a record is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (Chrome phase `"X"`): has a duration.
    Span,
    /// A point-in-time marker (Chrome phase `"i"`): duration zero.
    Instant,
}

/// One recorded event, as stored in a thread's ring buffer.
#[derive(Copy, Clone, Debug)]
pub struct TraceEvent {
    /// Event name (the span label shown in Perfetto).
    pub name: &'static str,
    /// Category, used by trace viewers to group and filter.
    pub cat: &'static str,
    /// Span or instant marker.
    pub kind: EventKind,
    /// Start time, microseconds since the sink's epoch.
    pub ts_micros: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_micros: u64,
    /// Nesting depth on the recording thread at span entry (0 = top
    /// level). Instants record the current depth.
    pub depth: u32,
    /// Key/value tags (session digest prefix, shard, job id, wave id, …).
    pub args: ArgList,
}

struct BufferState {
    events: VecDeque<TraceEvent>,
    depth: u32,
}

struct ThreadBuffer {
    tid: u32,
    name: String,
    state: Mutex<BufferState>,
}

struct SinkShared {
    id: u64,
    epoch: Instant,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
    dropped: AtomicU64,
}

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread registry mapping live sinks to this thread's buffer in
    /// each. Dead sinks (all handles dropped) are pruned on the next miss.
    static THREAD_BUFFERS: RefCell<Vec<(Weak<SinkShared>, Arc<ThreadBuffer>)>> =
        const { RefCell::new(Vec::new()) };
}

/// A cloneable handle to a trace recording (or to nothing, when disabled).
///
/// `TraceSink::default()` / [`TraceSink::disabled`] is the no-op handle:
/// every recording call short-circuits on one `Option` check. An enabled
/// sink hands each recording thread its own bounded ring buffer, so the
/// only cross-thread synchronization on the hot path is one uncontended
/// mutex acquisition per recorded event.
#[derive(Clone, Default)]
pub struct TraceSink {
    shared: Option<Arc<SinkShared>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceSink {
    /// An enabled sink with the default per-thread capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_THREAD_CAPACITY)
    }

    /// An enabled sink whose per-thread ring buffers hold at most
    /// `capacity` events (minimum 1); once full, the oldest events are
    /// dropped and counted.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shared: Some(Arc::new(SinkShared {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                capacity: capacity.max(1),
                threads: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op sink: records nothing, costs one branch per call.
    pub const fn disabled() -> Self {
        Self { shared: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Events dropped because a thread's ring buffer overflowed.
    pub fn dropped_events(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// Total events currently buffered across all threads.
    pub fn event_count(&self) -> usize {
        let Some(shared) = &self.shared else { return 0 };
        lock(&shared.threads)
            .iter()
            .map(|t| lock(&t.state).events.len())
            .sum()
    }

    /// This thread's buffer in `shared`, registering one on first use.
    fn buffer(shared: &Arc<SinkShared>) -> Arc<ThreadBuffer> {
        THREAD_BUFFERS.with(|cell| {
            let mut buffers = cell.borrow_mut();
            if let Some((_, buf)) = buffers
                .iter()
                .find(|(weak, _)| weak.upgrade().is_some_and(|s| s.id == shared.id))
            {
                return buf.clone();
            }
            buffers.retain(|(weak, _)| weak.strong_count() > 0);
            let mut threads = lock(&shared.threads);
            let buf = Arc::new(ThreadBuffer {
                tid: threads.len() as u32 + 1,
                name: std::thread::current()
                    .name()
                    .unwrap_or("unnamed")
                    .to_string(),
                state: Mutex::new(BufferState {
                    events: VecDeque::new(),
                    depth: 0,
                }),
            });
            threads.push(buf.clone());
            drop(threads);
            buffers.push((Arc::downgrade(shared), buf.clone()));
            buf
        })
    }

    fn push_event(shared: &SinkShared, buffer: &ThreadBuffer, event: TraceEvent) {
        let mut state = lock(&buffer.state);
        if state.events.len() >= shared.capacity {
            state.events.pop_front();
            shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
        state.events.push_back(event);
    }

    /// Opens a span; it records itself when the returned guard drops
    /// (including during unwinding, so a panicking wave still leaves its
    /// partial span tree in the dump).
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span<'_> {
        self.span_with(name, cat, &[])
    }

    /// [`Self::span`] with key/value tags (at most [`MAX_TRACE_ARGS`]).
    pub fn span_with(
        &self,
        name: &'static str,
        cat: &'static str,
        args: &[(&'static str, u64)],
    ) -> Span<'_> {
        let Some(shared) = &self.shared else {
            return Span { live: None };
        };
        let buffer = Self::buffer(shared);
        let depth = {
            let mut state = lock(&buffer.state);
            let d = state.depth;
            state.depth += 1;
            d
        };
        let start = Instant::now();
        Span {
            live: Some(SpanLive {
                shared,
                buffer,
                name,
                cat,
                args: ArgList::from_slice(args),
                start,
                ts_micros: start.duration_since(shared.epoch).as_micros() as u64,
                depth,
            }),
        }
    }

    /// Records a completed span that ends now and started `elapsed` ago —
    /// for durations measured before the sink could open a guard (e.g. a
    /// job's queue wait, timed from its enqueue instant).
    pub fn record_complete(
        &self,
        name: &'static str,
        cat: &'static str,
        elapsed: Duration,
        args: &[(&'static str, u64)],
    ) {
        let Some(shared) = &self.shared else { return };
        let buffer = Self::buffer(shared);
        let now = shared.epoch.elapsed().as_micros() as u64;
        let dur = elapsed.as_micros() as u64;
        let depth = lock(&buffer.state).depth;
        Self::push_event(
            shared,
            &buffer,
            TraceEvent {
                name,
                cat,
                kind: EventKind::Span,
                ts_micros: now.saturating_sub(dur),
                dur_micros: dur,
                depth,
                args: ArgList::from_slice(args),
            },
        );
    }

    /// Records a point-in-time marker (submit accepted, …).
    pub fn instant(&self, name: &'static str, cat: &'static str, args: &[(&'static str, u64)]) {
        let Some(shared) = &self.shared else { return };
        let buffer = Self::buffer(shared);
        let depth = lock(&buffer.state).depth;
        Self::push_event(
            shared,
            &buffer,
            TraceEvent {
                name,
                cat,
                kind: EventKind::Instant,
                ts_micros: shared.epoch.elapsed().as_micros() as u64,
                dur_micros: 0,
                depth,
                args: ArgList::from_slice(args),
            },
        );
    }

    /// A copy of every thread's buffered events, for inspection in tests.
    pub fn threads(&self) -> Vec<ThreadSnapshot> {
        let Some(shared) = &self.shared else {
            return Vec::new();
        };
        lock(&shared.threads)
            .iter()
            .map(|t| ThreadSnapshot {
                tid: t.tid,
                name: t.name.clone(),
                events: lock(&t.state).events.iter().copied().collect(),
            })
            .collect()
    }

    /// Exports the recording as Chrome trace-event JSON — load the string
    /// (saved to a file) in Perfetto or `chrome://tracing`. Returns an
    /// empty-but-valid trace when the sink is disabled.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        for thread in self.threads() {
            // Thread-name metadata record, so Perfetto labels the track.
            events.push(JsonValue::Object(vec![
                ("name".into(), JsonValue::Str("thread_name".into())),
                ("ph".into(), JsonValue::Str("M".into())),
                ("pid".into(), JsonValue::UInt(1)),
                ("tid".into(), JsonValue::UInt(thread.tid as u64)),
                (
                    "args".into(),
                    JsonValue::Object(vec![("name".into(), JsonValue::Str(thread.name.clone()))]),
                ),
            ]));
            for event in &thread.events {
                let mut fields = vec![
                    ("name".into(), JsonValue::Str(event.name.into())),
                    ("cat".into(), JsonValue::Str(event.cat.into())),
                    (
                        "ph".into(),
                        JsonValue::Str(
                            match event.kind {
                                EventKind::Span => "X",
                                EventKind::Instant => "i",
                            }
                            .into(),
                        ),
                    ),
                    ("ts".into(), JsonValue::UInt(event.ts_micros)),
                ];
                if event.kind == EventKind::Span {
                    fields.push(("dur".into(), JsonValue::UInt(event.dur_micros)));
                } else {
                    fields.push(("s".into(), JsonValue::Str("t".into())));
                }
                fields.push(("pid".into(), JsonValue::UInt(1)));
                fields.push(("tid".into(), JsonValue::UInt(thread.tid as u64)));
                if !event.args.as_slice().is_empty() {
                    let args = event
                        .args
                        .as_slice()
                        .iter()
                        .map(|&(k, v)| {
                            // Digest-prefix tags render as hex so sessions
                            // are recognizable across tools.
                            let value = if k == "session" {
                                JsonValue::Str(format!("{v:016x}"))
                            } else {
                                JsonValue::UInt(v)
                            };
                            (k.to_string(), value)
                        })
                        .collect();
                    fields.push(("args".into(), JsonValue::Object(args)));
                }
                events.push(JsonValue::Object(fields));
            }
        }
        JsonValue::Object(vec![
            ("traceEvents".into(), JsonValue::Array(events)),
            ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
        ])
        .render()
    }
}

/// A compact tag for a 32-byte digest: its first 8 bytes as a `u64`, the
/// form span arguments carry (rendered as hex in the JSON export).
pub fn digest_tag(digest: &[u8; 32]) -> u64 {
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// An open span; records a completed event when dropped. Obtained from
/// [`TraceSink::span`]; inert (and free) when the sink is disabled.
pub struct Span<'a> {
    live: Option<SpanLive<'a>>,
}

struct SpanLive<'a> {
    shared: &'a SinkShared,
    buffer: Arc<ThreadBuffer>,
    name: &'static str,
    cat: &'static str,
    args: ArgList,
    start: Instant,
    ts_micros: u64,
    depth: u32,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur = live.start.elapsed().as_micros() as u64;
        {
            let mut state = lock(&live.buffer.state);
            state.depth = state.depth.saturating_sub(1);
        }
        TraceSink::push_event(
            live.shared,
            &live.buffer,
            TraceEvent {
                name: live.name,
                cat: live.cat,
                kind: EventKind::Span,
                ts_micros: live.ts_micros,
                dur_micros: dur,
                depth: live.depth,
                args: live.args,
            },
        );
    }
}

/// One thread's recorded events, copied out of the ring buffer.
#[derive(Clone, Debug)]
pub struct ThreadSnapshot {
    /// Sink-local thread id (registration order, starting at 1).
    pub tid: u32,
    /// The thread's name at registration (`"unnamed"` if unset).
    pub name: String,
    /// Buffered events, oldest first.
    pub events: Vec<TraceEvent>,
}

// --- log-bucketed mergeable latency histogram ---------------------------

/// Linear sub-buckets per octave: 2^4 = 16, bounding relative quantile
/// error at 1/16.
const PRECISION_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;

/// A log-linear latency histogram over milliseconds, with an exact
/// associative merge.
///
/// Values are bucketed in microseconds: values below 16 µs get their own
/// unit-width bucket; above that, each octave `[2^e, 2^(e+1))` splits into
/// 16 linear sub-buckets. Count and sum are exact (so the mean is exact),
/// the maximum is tracked exactly, and quantiles are reported as the upper
/// bound of the bucket containing the nearest-rank sample — at most 6.3%
/// above the true value. [`Histogram::merge`] adds bucket counts, which is
/// associative and commutative and loses nothing, unlike merging bounded
/// sample windows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ms: f64,
    max_ms: f64,
}

fn bucket_index(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        us as usize
    } else {
        let e = 63 - us.leading_zeros();
        let sub = ((us >> (e - PRECISION_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        ((e - PRECISION_BITS + 1) as usize) * SUB_BUCKETS + sub
    }
}

fn bucket_upper_ms(idx: usize) -> f64 {
    let upper_us = if idx < SUB_BUCKETS {
        idx as u64 + 1
    } else {
        let block = (idx / SUB_BUCKETS) as u32;
        let sub = (idx % SUB_BUCKETS) as u64;
        let e = block + PRECISION_BITS - 1;
        let width = 1u64 << (e - PRECISION_BITS);
        ((SUB_BUCKETS as u64 + sub) << (e - PRECISION_BITS)) + width
    };
    upper_us as f64 / 1000.0
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency in milliseconds (negative values clamp to 0).
    pub fn record(&mut self, ms: f64) {
        let us = if ms <= 0.0 {
            0
        } else {
            (ms * 1000.0).round() as u64
        };
        let idx = bucket_index(us);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms.max(0.0);
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Folds `other` into `self`. Bucket-wise addition: associative,
    /// commutative, and lossless.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        if other.max_ms > self.max_ms {
            self.max_ms = other.max_ms;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Exact maximum recorded latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// The `q`-quantile (`0 < q <= 1`) by nearest rank: the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` sample, clamped to the exact
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_ms(idx).min(self.max_ms);
            }
        }
        self.max_ms
    }

    /// The non-empty buckets as `(upper_bound_ms, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_upper_ms(idx), n))
            .collect()
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("count".into(), JsonValue::UInt(self.count)),
            ("mean_ms".into(), JsonValue::Float(self.mean_ms())),
            ("p50_ms".into(), JsonValue::Float(self.quantile(0.50))),
            ("p90_ms".into(), JsonValue::Float(self.quantile(0.90))),
            ("p99_ms".into(), JsonValue::Float(self.quantile(0.99))),
            ("max_ms".into(), JsonValue::Float(self.max_ms)),
            (
                "buckets".into(),
                JsonValue::Array(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(upper, n)| {
                            JsonValue::Array(vec![JsonValue::Float(upper), JsonValue::UInt(n)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        {
            let _outer = sink.span("outer", "test");
            let _inner = sink.span_with("inner", "test", &[("k", 1)]);
            sink.instant("marker", "test", &[]);
            sink.record_complete("late", "test", Duration::from_millis(5), &[]);
        }
        assert!(!sink.is_enabled());
        assert_eq!(sink.event_count(), 0);
        assert_eq!(sink.threads().len(), 0);
        assert!(sink.chrome_trace_json().contains("traceEvents"));
    }

    #[test]
    fn spans_nest_properly_per_thread() {
        let sink = TraceSink::enabled();
        {
            let _a = sink.span("a", "test");
            {
                let _b = sink.span("b", "test");
                let _c = sink.span("c", "test");
            }
            let _d = sink.span("d", "test");
        }
        // Worker threads record into their own buffers, nested
        // independently of the main thread.
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let sink = sink.clone();
                std::thread::Builder::new()
                    .name(format!("trace-test-{i}"))
                    .spawn(move || {
                        let _w = sink.span("worker", "test");
                        let _n = sink.span("worker-nested", "test");
                    })
                    .expect("spawn")
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }

        let threads = sink.threads();
        assert_eq!(threads.len(), 3, "main + 2 workers");
        for thread in &threads {
            // Within a thread, spans recorded at depth d+1 must lie inside
            // the enclosing open span at depth d — intervals never
            // partially overlap.
            for (i, e) in thread.events.iter().enumerate() {
                for f in &thread.events[i + 1..] {
                    let (a_start, a_end) = (e.ts_micros, e.ts_micros + e.dur_micros);
                    let (b_start, b_end) = (f.ts_micros, f.ts_micros + f.dur_micros);
                    let disjoint = a_end <= b_start || b_end <= a_start;
                    let nested = (a_start >= b_start && a_end <= b_end)
                        || (b_start >= a_start && b_end <= a_end);
                    assert!(
                        disjoint || nested,
                        "partial overlap in {}: {e:?} vs {f:?}",
                        thread.name
                    );
                }
            }
        }
        // Depths recorded on the main thread match the lexical nesting.
        let main = &threads[0];
        let depth_of = |name: &str| {
            main.events
                .iter()
                .find(|e| e.name == name)
                .expect("event present")
                .depth
        };
        assert_eq!(depth_of("a"), 0);
        assert_eq!(depth_of("b"), 1);
        assert_eq!(depth_of("c"), 2);
        assert_eq!(depth_of("d"), 1);
    }

    #[test]
    fn ring_buffer_is_bounded_and_counts_drops() {
        let sink = TraceSink::with_capacity(8);
        for i in 0..20u64 {
            sink.instant("tick", "test", &[("i", i)]);
        }
        assert_eq!(sink.event_count(), 8);
        assert_eq!(sink.dropped_events(), 12);
        // The survivors are the newest events.
        let threads = sink.threads();
        let args: Vec<u64> = threads[0]
            .events
            .iter()
            .map(|e| e.args.as_slice()[0].1)
            .collect();
        assert_eq!(args, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn chrome_export_has_complete_events_and_thread_names() {
        let sink = TraceSink::enabled();
        {
            let _s = sink.span_with("phase", "prove", &[("session", 0xabcd), ("job", 7)]);
        }
        sink.instant("submit", "job", &[]);
        let json = sink.chrome_trace_json();
        for needle in [
            "\"traceEvents\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"M\"",
            "\"thread_name\"",
            "\"phase\"",
            "\"000000000000abcd\"",
            "\"job\":7",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn record_complete_backdates_the_start() {
        let sink = TraceSink::enabled();
        sink.record_complete("queue-wait", "queue", Duration::from_millis(3), &[]);
        let threads = sink.threads();
        let e = threads[0].events[0];
        assert_eq!(e.dur_micros / 1000, 3);
        assert_eq!(e.kind, EventKind::Span);
    }

    #[test]
    fn histogram_bucket_indexing_is_monotone_and_continuous() {
        let mut last = 0usize;
        for us in 0..100_000u64 {
            let idx = bucket_index(us);
            assert!(idx >= last, "index regressed at {us}");
            assert!(
                idx <= last + 1,
                "index skipped a bucket at {us}: {last} -> {idx}"
            );
            last = idx;
            // The value lies strictly below its bucket's upper bound.
            assert!((us as f64) / 1000.0 < bucket_upper_ms(idx) + 1e-12);
        }
    }

    #[test]
    fn histogram_quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ms() - 500.5).abs() < 1e-9, "mean is exact");
        assert_eq!(h.max_ms(), 1000.0);
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (1.0, 1000.0)] {
            let est = h.quantile(q);
            assert!(
                est >= exact && est <= exact * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(Histogram::new().quantile(0.99), 0.0);
    }

    #[test]
    fn histogram_merge_is_associative_and_lossless() {
        let mut rng = StdRng::seed_from_u64(0x4157_0001);
        let mut parts: Vec<Histogram> = Vec::new();
        let mut all = Histogram::new();
        for _ in 0..3 {
            let mut h = Histogram::new();
            for _ in 0..500 {
                let ms = (rng.gen_range(0..1_000_000) as f64) / 100.0;
                h.record(ms);
                all.record(ms);
            }
            parts.push(h);
        }
        // (a + b) + c == a + (b + c), field by field.
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // And the merge equals recording every sample into one histogram.
        assert_eq!(left.count, all.count);
        assert_eq!(left.buckets, all.buckets);
        assert_eq!(left.max_ms, all.max_ms);
        assert!((left.sum_ms - all.sum_ms).abs() < 1e-6);
    }

    #[test]
    fn histogram_json_has_summary_and_buckets() {
        let mut h = Histogram::new();
        h.record(12.0);
        h.record(18.0);
        let json = h.to_json().render();
        for key in ["count", "mean_ms", "p50_ms", "p99_ms", "max_ms", "buckets"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(h.nonzero_buckets().len(), 2);
    }
}
