//! Request-scoped tracing: per-request span records, deterministic
//! head-based sampling, a seqlock trace ring and a slow-request log.
//!
//! The metrics layer ([`crate::Histogram`] et al.) answers "how is the
//! fleet doing"; this module answers "where did *this* request's time
//! go". A [`Tracer`] stamps a [`TraceId`] on 1-in-N requests (head-based:
//! the decision is made once, at the first touch, and sticks for the
//! request's whole life), the traced code path laps [`SpanRecord`]s into
//! a [`Trace`], and finished traces land in two sinks:
//!
//! * a [`TraceRing`] — a bounded ring of the most recent completed
//!   traces. Readers are wait-free and writers never block: each slot is
//!   a seqlock (version word + fixed payload of atomics), so a torn read
//!   is detected and skipped rather than returned.
//! * a [`SlowLog`] — the K slowest traces seen so far, full per-stage
//!   breakdowns retained. Updated under a mutex on the (sampled-only)
//!   completion path; an entry is only ever evicted for a strictly
//!   slower one.
//!
//! Stage names are interned to small ids ([`intern_stage`]) so span
//! records are plain words that survive the atomic ring; callers intern
//! once (e.g. in a `OnceLock`-cached struct) and pass `Stage` values on
//! the hot path.
//!
//! Cost discipline: when sampling is off, [`Tracer::sample`] is a single
//! relaxed atomic load. When on, unsampled requests pay one extra relaxed
//! `fetch_add`. Only sampled requests allocate (one `Vec` of at most
//! [`MAX_SPANS`] records) — see the `trace` leg of
//! `results/BENCH_overhead.json`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime};

use crate::json::JsonValue;

/// Spans retained per trace; laps beyond this are counted, not stored.
pub const MAX_SPANS: usize = 16;

const HEADER_WORDS: usize = 3;
const SPAN_WORDS: usize = 4;
const SLOT_WORDS: usize = HEADER_WORDS + MAX_SPANS * SPAN_WORDS;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A nonzero 64-bit trace identifier, printed as 16 hex digits.
///
/// Ids are a deterministic function of the sample sequence number (no
/// clock, no RNG), so a given request stream produces the same ids run
/// to run — handy for pinning exemplars and `/debug/traces` in tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(u64);

impl TraceId {
    /// Derives an id from a sequence number (mixed so nearby sequence
    /// numbers do not produce nearby ids). Never zero.
    pub fn from_seq(seq: u64) -> TraceId {
        let h = splitmix64(seq.wrapping_add(1));
        TraceId(if h == 0 { 0x9e37_79b9_7f4a_7c15 } else { h })
    }

    /// Constructs from a raw nonzero value (zero is remapped).
    pub fn from_raw(raw: u64) -> TraceId {
        TraceId(if raw == 0 { 0x9e37_79b9_7f4a_7c15 } else { raw })
    }

    /// The raw id value (nonzero).
    pub fn get(self) -> u64 {
        self.0
    }

    /// The id as 16 lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// An interned stage (or span-field key) name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stage(u16);

static STAGES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns a stage name, returning a small stable id. Idempotent; call
/// once per name (cache the `Stage` in a `OnceLock`) — interning takes a
/// global lock and a linear scan, which is fine off the hot path.
pub fn intern_stage(name: &'static str) -> Stage {
    let mut v = STAGES.lock().expect("stage interner poisoned");
    if let Some(i) = v.iter().position(|s| *s == name) {
        return Stage(i as u16);
    }
    assert!(v.len() < u16::MAX as usize, "stage interner overflow");
    v.push(name);
    Stage((v.len() - 1) as u16)
}

/// Resolves an interned stage id back to its name (`"?"` if unknown —
/// only reachable for ids that never came from [`intern_stage`]).
pub fn stage_name(stage: Stage) -> &'static str {
    STAGES
        .lock()
        .expect("stage interner poisoned")
        .get(stage.0 as usize)
        .copied()
        .unwrap_or("?")
}

/// One recorded span: a stage, its start offset and duration (both in
/// microseconds relative to the trace), and up to two integer fields.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// The interned stage.
    pub stage: Stage,
    /// Start, microseconds after the trace began.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Up to two `(key, value)` fields; only the first `nfields` are live.
    pub fields: [(Stage, u64); 2],
    /// How many entries of `fields` are live (0..=2).
    pub nfields: u8,
}

/// An in-flight trace: the builder side of a sampled request.
///
/// The common idiom is lap-chaining — [`Trace::lap`] records a span from
/// the previous lap (or the trace start) to now, so consecutive stages
/// tile the timeline with one `Instant::now` per boundary. Out-of-band
/// durations measured elsewhere (e.g. a batch scored on another thread)
/// fan in through [`Trace::span_between`].
#[derive(Debug)]
pub struct Trace {
    id: TraceId,
    began: Instant,
    unix_us: u64,
    mark: Instant,
    spans: Vec<SpanRecord>,
    truncated: u32,
}

impl Trace {
    /// Begins a trace now.
    pub fn begin(id: TraceId) -> Trace {
        Trace::begin_at(id, Instant::now())
    }

    /// Begins a trace whose clock started at `began` (e.g. the instant
    /// the first request byte arrived, captured before the sampling
    /// decision was possible).
    pub fn begin_at(id: TraceId, began: Instant) -> Trace {
        let unix_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Trace {
            id,
            began,
            unix_us,
            mark: began,
            spans: Vec::with_capacity(MAX_SPANS),
            truncated: 0,
        }
    }

    /// This trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The instant the trace began.
    pub fn began(&self) -> Instant {
        self.began
    }

    /// Records a span from the previous lap mark to now, then advances
    /// the mark.
    pub fn lap(&mut self, stage: Stage) {
        self.lap_with(stage, &[]);
    }

    /// [`Trace::lap`] with up to two integer fields attached.
    pub fn lap_with(&mut self, stage: Stage, fields: &[(Stage, u64)]) {
        let now = Instant::now();
        self.span_between_with(stage, self.mark, now, fields);
        self.mark = now;
    }

    /// Moves the lap mark to now without recording (skips a gap that is
    /// deliberately untraced).
    pub fn rebase(&mut self) {
        self.mark = Instant::now();
    }

    /// Records a span over an explicit `[start, end]` window (for work
    /// timed on another thread and fanned back into this trace).
    pub fn span_between(&mut self, stage: Stage, start: Instant, end: Instant) {
        self.span_between_with(stage, start, end, &[]);
    }

    /// [`Trace::span_between`] with up to two integer fields attached.
    pub fn span_between_with(
        &mut self,
        stage: Stage,
        start: Instant,
        end: Instant,
        fields: &[(Stage, u64)],
    ) {
        if self.spans.len() >= MAX_SPANS {
            self.truncated += 1;
            return;
        }
        let start_us = start.saturating_duration_since(self.began).as_micros() as u64;
        let dur_us = end.saturating_duration_since(start).as_micros() as u64;
        let mut rec = SpanRecord {
            stage,
            start_us,
            dur_us,
            fields: [(Stage(0), 0); 2],
            nfields: fields.len().min(2) as u8,
        };
        for (i, f) in fields.iter().take(2).enumerate() {
            rec.fields[i] = *f;
        }
        self.spans.push(rec);
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans dropped past the [`MAX_SPANS`] cap.
    pub fn truncated(&self) -> u32 {
        self.truncated
    }

    fn total_us_at(&self, end: Instant) -> u64 {
        end.saturating_duration_since(self.began).as_micros() as u64
    }

    fn encode(&self, total_us: u64) -> [u64; SLOT_WORDS] {
        let mut w = [0u64; SLOT_WORDS];
        w[0] = self.id.get();
        w[1] = self.unix_us;
        let n = self.spans.len().min(MAX_SPANS);
        w[2] = (total_us & 0x00ff_ffff_ffff_ffff) | ((n as u64) << 56);
        for (i, s) in self.spans.iter().take(MAX_SPANS).enumerate() {
            let base = HEADER_WORDS + i * SPAN_WORDS;
            w[base] = s.stage.0 as u64
                | ((s.nfields as u64) << 16)
                | ((s.fields[0].0 .0 as u64) << 24)
                | ((s.fields[1].0 .0 as u64) << 40);
            let start = s.start_us.min(u32::MAX as u64);
            let dur = s.dur_us.min(u32::MAX as u64);
            w[base + 1] = start | (dur << 32);
            w[base + 2] = s.fields[0].1;
            w[base + 3] = s.fields[1].1;
        }
        w
    }

    fn to_finished(&self, total_us: u64) -> FinishedTrace {
        FinishedTrace {
            id: self.id,
            unix_us: self.unix_us,
            total_us,
            spans: self
                .spans
                .iter()
                .map(|s| FinishedSpan {
                    stage: stage_name(s.stage),
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                    fields: s.fields[..s.nfields as usize]
                        .iter()
                        .map(|(k, v)| (stage_name(*k), *v))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One span of a completed trace, names resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinishedSpan {
    /// Stage name.
    pub stage: &'static str,
    /// Start, microseconds after the trace began.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attached integer fields.
    pub fields: Vec<(&'static str, u64)>,
}

/// A completed trace: id, wall-clock anchor, total duration and spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The trace id.
    pub id: TraceId,
    /// Unix microseconds when the trace began (display anchor only).
    pub unix_us: u64,
    /// Total request duration in microseconds.
    pub total_us: u64,
    /// Per-stage spans in recording order.
    pub spans: Vec<FinishedSpan>,
}

impl FinishedTrace {
    /// Renders the trace as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("id".into(), JsonValue::Str(self.id.hex())),
            ("unix_us".into(), self.unix_us.into()),
            ("total_us".into(), self.total_us.into()),
            (
                "spans".into(),
                JsonValue::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let mut obj = vec![
                                ("stage".into(), s.stage.into()),
                                ("start_us".into(), s.start_us.into()),
                                ("dur_us".into(), s.dur_us.into()),
                            ];
                            if !s.fields.is_empty() {
                                obj.push((
                                    "fields".into(),
                                    JsonValue::Obj(
                                        s.fields
                                            .iter()
                                            .map(|(k, v)| ((*k).to_string(), (*v).into()))
                                            .collect(),
                                    ),
                                ));
                            }
                            JsonValue::Obj(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn decode(words: &[u64]) -> Option<FinishedTrace> {
    if words.len() < SLOT_WORDS || words[0] == 0 {
        return None;
    }
    let n = ((words[2] >> 56) as usize).min(MAX_SPANS);
    let total_us = words[2] & 0x00ff_ffff_ffff_ffff;
    let mut spans = Vec::with_capacity(n);
    for i in 0..n {
        let base = HEADER_WORDS + i * SPAN_WORDS;
        let w0 = words[base];
        let stage = Stage((w0 & 0xffff) as u16);
        let nfields = ((w0 >> 16) & 0xff).min(2) as usize;
        let keys = [Stage(((w0 >> 24) & 0xffff) as u16), Stage(((w0 >> 40) & 0xffff) as u16)];
        let vals = [words[base + 2], words[base + 3]];
        spans.push(FinishedSpan {
            stage: stage_name(stage),
            start_us: words[base + 1] & 0xffff_ffff,
            dur_us: words[base + 1] >> 32,
            fields: (0..nfields).map(|f| (stage_name(keys[f]), vals[f])).collect(),
        });
    }
    Some(FinishedTrace {
        id: TraceId::from_raw(words[0]),
        unix_us: words[1],
        total_us,
        spans,
    })
}

struct Slot {
    /// Seqlock version: 0 = never written, odd = write in progress.
    version: AtomicU64,
    words: Vec<AtomicU64>,
}

/// A bounded ring of the most recent completed traces.
///
/// Writers claim a slot by sequence number and publish under a per-slot
/// seqlock: the version word goes odd (claimed via CAS — a concurrent
/// writer lapping the ring skips rather than waits), the payload words
/// are stored, the version goes even. Readers snapshot the version,
/// copy the payload, and re-check: a mismatch or odd version means the
/// slot was mid-write and is skipped. No reader or writer ever blocks,
/// and a returned trace is never a mix of two writes.
pub struct TraceRing {
    slots: Vec<Slot>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring retaining up to `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(1);
        TraceRing {
            slots: (0..cap)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: (0..SLOT_WORDS).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity in traces.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn push_words(&self, words: &[u64; SLOT_WORDS]) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let v = slot.version.load(Ordering::Relaxed);
        if v & 1 == 1 {
            return; // another writer owns this slot right now: drop, don't wait
        }
        if slot
            .version
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        for (w, &val) in slot.words.iter().zip(words.iter()) {
            w.store(val, Ordering::Relaxed);
        }
        slot.version.store(v + 2, Ordering::Release);
    }

    fn read_slot(&self, index: usize) -> Option<FinishedTrace> {
        let slot = &self.slots[index];
        for _ in 0..4 {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 {
                return None; // never written
            }
            if v1 & 1 == 1 {
                continue; // mid-write: retry, then give up
            }
            let mut buf = [0u64; SLOT_WORDS];
            for (dst, src) in buf.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) == v1 {
                return decode(&buf);
            }
        }
        None
    }

    /// The most recent `n` completed traces, newest first. Slots being
    /// overwritten concurrently are skipped, never returned torn.
    pub fn recent(&self, n: usize) -> Vec<FinishedTrace> {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Relaxed);
        let take = (n as u64).min(cap).min(head);
        let mut out = Vec::with_capacity(take as usize);
        for back in 0..take {
            let seq = head - 1 - back;
            if let Some(t) = self.read_slot((seq % cap) as usize) {
                out.push(t);
            }
        }
        out
    }
}

/// The K slowest completed traces, full breakdowns retained.
///
/// Updated only on the sampled-request completion path, so a mutex is
/// fine. Invariant: an entry is evicted only when the incoming trace is
/// strictly slower than the current minimum — a strictly-slower resident
/// is never displaced.
pub struct SlowLog {
    cap: usize,
    entries: Mutex<Vec<FinishedTrace>>,
}

impl SlowLog {
    /// A log retaining the `capacity` slowest traces (minimum 1).
    pub fn new(capacity: usize) -> SlowLog {
        let cap = capacity.max(1);
        SlowLog {
            cap,
            entries: Mutex::new(Vec::with_capacity(cap)),
        }
    }

    /// Offers a completed trace; kept iff the log has room or the trace
    /// is strictly slower than the current fastest resident.
    pub fn offer(&self, trace: FinishedTrace) {
        let mut e = self.entries.lock().expect("slowlog poisoned");
        if e.len() < self.cap {
            e.push(trace);
            return;
        }
        let (min_i, min_us) = e
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.total_us))
            .min_by_key(|&(_, us)| us)
            .expect("cap >= 1");
        if trace.total_us > min_us {
            e[min_i] = trace;
        }
    }

    /// Retained traces, slowest first.
    pub fn slowest(&self) -> Vec<FinishedTrace> {
        let mut v = self.entries.lock().expect("slowlog poisoned").clone();
        v.sort_by_key(|t| std::cmp::Reverse(t.total_us));
        v
    }
}

/// The per-pipeline tracing front door: sampling decision, trace ring
/// and slow log in one shareable handle.
pub struct Tracer {
    /// Sample 1-in-`every` requests; 0 disables tracing entirely.
    every: u64,
    counter: AtomicU64,
    ring: TraceRing,
    slow: SlowLog,
}

impl Tracer {
    /// A tracer sampling 1-in-`sample_every` (0 = off) into a ring of
    /// `ring_capacity` recent traces and a log of `slow_capacity` slowest.
    pub fn new(sample_every: u64, ring_capacity: usize, slow_capacity: usize) -> Tracer {
        Tracer {
            every: sample_every,
            counter: AtomicU64::new(0),
            ring: TraceRing::new(ring_capacity),
            slow: SlowLog::new(slow_capacity),
        }
    }

    /// A tracer that never samples (the zero-cost default).
    pub fn disabled() -> Tracer {
        Tracer::new(0, 1, 1)
    }

    /// Whether sampling is enabled.
    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// The 1-in-N sampling rate (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.every
    }

    /// The head-based sampling decision: `None` for unsampled requests
    /// (a single branch when tracing is off), a fresh [`TraceId`]
    /// for every `every`-th request. Call once per request and carry the
    /// decision — never re-sample mid-request.
    pub fn sample(&self) -> Option<TraceId> {
        let every = self.every;
        if every == 0 {
            return None;
        }
        let c = self.counter.fetch_add(1, Ordering::Relaxed);
        (c % every == 0).then(|| TraceId::from_seq(c / every))
    }

    /// Samples and, if selected, begins a trace now.
    pub fn begin(&self) -> Option<Trace> {
        self.sample().map(Trace::begin)
    }

    /// Samples and, if selected, begins a trace whose clock started at
    /// `began`.
    pub fn begin_at(&self, began: Instant) -> Option<Trace> {
        self.sample().map(|id| Trace::begin_at(id, began))
    }

    /// Completes a trace now: totals it, publishes to the ring and
    /// offers it to the slow log. Returns `(id, total_us)` so the caller
    /// can attach an exemplar to its latency histogram.
    pub fn finish(&self, trace: Trace) -> (TraceId, u64) {
        self.finish_at(trace, Instant::now())
    }

    /// [`Tracer::finish`] with an explicit end instant.
    pub fn finish_at(&self, trace: Trace, end: Instant) -> (TraceId, u64) {
        let total_us = trace.total_us_at(end);
        self.ring.push_words(&trace.encode(total_us));
        self.slow.offer(trace.to_finished(total_us));
        (trace.id, total_us)
    }

    /// The most recent `n` completed traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<FinishedTrace> {
        self.ring.recent(n)
    }

    /// The slowest completed traces, slowest first.
    pub fn slowest(&self) -> Vec<FinishedTrace> {
        self.slow.slowest()
    }

    /// The underlying ring (for introspection and tests).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn st(name: &'static str) -> Stage {
        intern_stage(name)
    }

    #[test]
    fn interner_round_trips_and_is_idempotent() {
        let a = st("test.alpha");
        let b = st("test.beta");
        assert_ne!(a, b);
        assert_eq!(st("test.alpha"), a);
        assert_eq!(stage_name(a), "test.alpha");
        assert_eq!(stage_name(b), "test.beta");
    }

    #[test]
    fn trace_ids_are_nonzero_and_deterministic() {
        for seq in 0..1000u64 {
            let id = TraceId::from_seq(seq);
            assert_ne!(id.get(), 0);
            assert_eq!(id, TraceId::from_seq(seq));
            assert_eq!(id.hex().len(), 16);
        }
        assert_ne!(TraceId::from_seq(0), TraceId::from_seq(1));
    }

    #[test]
    fn laps_tile_the_timeline() {
        let mut t = Trace::begin(TraceId::from_seq(0));
        std::thread::sleep(Duration::from_millis(2));
        t.lap(st("test.one"));
        std::thread::sleep(Duration::from_millis(2));
        t.lap_with(st("test.two"), &[(st("test.k"), 42)]);
        assert_eq!(t.spans().len(), 2);
        let [a, b] = [t.spans()[0], t.spans()[1]];
        assert_eq!(a.start_us, 0);
        assert!(a.dur_us >= 1_000, "{}", a.dur_us);
        // The second span starts where the first ended.
        assert_eq!(b.start_us, a.dur_us);
        assert_eq!(b.nfields, 1);
        assert_eq!(b.fields[0], (st("test.k"), 42));
    }

    #[test]
    fn span_cap_truncates_instead_of_growing() {
        let mut t = Trace::begin(TraceId::from_seq(0));
        for _ in 0..(MAX_SPANS + 3) {
            t.lap(st("test.cap"));
        }
        assert_eq!(t.spans().len(), MAX_SPANS);
        assert_eq!(t.truncated(), 3);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut t = Trace::begin(TraceId::from_seq(7));
        t.lap_with(st("test.rt.a"), &[(st("test.rt.k1"), 11), (st("test.rt.k2"), 22)]);
        t.lap(st("test.rt.b"));
        let words = t.encode(1234);
        let d = decode(&words).expect("decodes");
        assert_eq!(d.id, TraceId::from_seq(7));
        assert_eq!(d.total_us, 1234);
        assert_eq!(d.spans.len(), 2);
        assert_eq!(d.spans[0].stage, "test.rt.a");
        assert_eq!(d.spans[0].fields, vec![("test.rt.k1", 11), ("test.rt.k2", 22)]);
        assert_eq!(d.spans[1].stage, "test.rt.b");
        assert!(d.spans[1].fields.is_empty());
    }

    #[test]
    fn ring_returns_newest_first_and_wraps() {
        let ring = TraceRing::new(4);
        for seq in 0..6u64 {
            let mut t = Trace::begin(TraceId::from_seq(seq));
            t.lap(st("test.ring"));
            ring.push_words(&t.encode(seq + 1));
        }
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 4);
        let totals: Vec<u64> = recent.iter().map(|t| t.total_us).collect();
        assert_eq!(totals, vec![6, 5, 4, 3]);
        assert_eq!(ring.recent(2).len(), 2);
        assert_eq!(ring.recent(2)[0].total_us, 6);
    }

    #[test]
    fn sampling_head_based_one_in_n() {
        let tr = Tracer::new(4, 8, 2);
        let decisions: Vec<bool> = (0..16).map(|_| tr.sample().is_some()).collect();
        let expected: Vec<bool> = (0..16).map(|i| i % 4 == 0).collect();
        assert_eq!(decisions, expected);
    }

    #[test]
    fn disabled_tracer_never_samples() {
        let tr = Tracer::disabled();
        assert!(!tr.enabled());
        assert!((0..1000).all(|_| tr.sample().is_none()));
    }

    #[test]
    fn finish_publishes_to_ring_and_slowlog() {
        let tr = Tracer::new(1, 8, 2);
        for i in 0..3 {
            let mut t = tr.begin().expect("1-in-1 samples everything");
            t.lap(st("test.pub"));
            std::thread::sleep(Duration::from_millis(1 + i));
            let (_id, total) = tr.finish(t);
            assert!(total >= 1_000);
        }
        assert_eq!(tr.recent(10).len(), 3);
        let slow = tr.slowest();
        assert_eq!(slow.len(), 2);
        assert!(slow[0].total_us >= slow[1].total_us);
    }

    #[test]
    fn slowlog_never_evicts_a_strictly_slower_trace() {
        // Deterministic pseudo-random offer stream; after every offer the
        // log must hold exactly the K largest totals seen so far.
        let log = SlowLog::new(4);
        let mut seen: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            let total = splitmix64(i) % 1000;
            seen.push(total);
            log.offer(FinishedTrace {
                id: TraceId::from_seq(i),
                unix_us: 0,
                total_us: total,
                spans: Vec::new(),
            });
            let mut want = seen.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            want.truncate(4);
            let mut got: Vec<u64> = log.slowest().iter().map(|t| t.total_us).collect();
            // Ties may resolve either way; compare as sorted multisets.
            got.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(got, want, "after offer #{i}");
        }
    }

    #[test]
    fn ring_under_concurrent_writers_never_tears() {
        // Each writer pushes raw slots whose words form a splitmix64
        // chain seeded by word 0 — any mix of two writes breaks the
        // chain. Readers hammer recent() and verify every slot decodes
        // from a consistent chain. (This drives push_words/read_slot
        // directly so payload consistency is fully checkable.)
        let ring = Arc::new(TraceRing::new(8));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut seed = splitmix64(w + 1) | 1;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let mut words = [0u64; SLOT_WORDS];
                        words[0] = seed;
                        let mut x = seed;
                        for slot in words.iter_mut().skip(1) {
                            x = splitmix64(x);
                            *slot = x;
                        }
                        ring.push_words(&words);
                        seed = splitmix64(seed) | 1;
                    }
                });
            }
            let ring_r = Arc::clone(&ring);
            let stop_r = Arc::clone(&stop);
            scope.spawn(move || {
                let mut checked = 0u64;
                while checked < 20_000 {
                    for i in 0..ring_r.slots.len() {
                        let slot = &ring_r.slots[i];
                        for _ in 0..4 {
                            let v1 = slot.version.load(Ordering::Acquire);
                            if v1 == 0 || v1 & 1 == 1 {
                                continue;
                            }
                            let mut buf = [0u64; SLOT_WORDS];
                            for (dst, src) in buf.iter_mut().zip(slot.words.iter()) {
                                *dst = src.load(Ordering::Relaxed);
                            }
                            fence(Ordering::Acquire);
                            if slot.version.load(Ordering::Relaxed) != v1 {
                                continue; // torn read detected and rejected
                            }
                            // An accepted read must be one writer's chain.
                            let mut x = buf[0];
                            for (j, &wv) in buf.iter().enumerate().skip(1) {
                                x = splitmix64(x);
                                assert_eq!(wv, x, "torn record at word {j}");
                            }
                            checked += 1;
                            break;
                        }
                    }
                }
                stop_r.store(1, Ordering::Relaxed);
            });
        });
    }

    #[test]
    fn trace_json_renders() {
        let mut t = Trace::begin(TraceId::from_raw(0xabcd));
        t.lap_with(st("test.json"), &[(st("test.json.k"), 5)]);
        let total = t.total_us_at(Instant::now());
        let json = t.to_finished(total).to_json().render();
        assert!(json.contains("\"id\":\"000000000000abcd\""), "{json}");
        assert!(json.contains("\"stage\":\"test.json\""), "{json}");
        assert!(json.contains("\"test.json.k\":5"), "{json}");
    }
}
