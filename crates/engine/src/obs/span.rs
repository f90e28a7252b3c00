//! Structured span recorder — per-thread lock-free ring buffers.
//!
//! A [`SpanRecorder`] collects begin/end events keyed by
//! `(stage, task, attempt, cohort)` from every execution layer: the stage
//! scheduler, both session round loops, and the surveillance service.
//! Recording must not perturb what it measures, so the design is:
//!
//! * **One lane per thread.** The first event a thread records against a
//!   recorder registers a [`WorkerLane`] for it (cached in TLS), and all
//!   of that thread's subsequent events go to its own lane — no sharing,
//!   no contention on the hot path.
//! * **Seqlock rings, no locks.** Each lane is a fixed ring of slots; a
//!   slot is a sequence word plus seven payload words, all atomics. The
//!   writer bumps the sequence odd, stores the payload, bumps it even;
//!   a concurrent snapshot re-checks the sequence and simply skips slots
//!   it caught mid-write. Nothing blocks, nothing allocates, and safe
//!   Rust throughout — a torn read is discarded, never observed.
//! * **Overwrite on wrap.** A lane that fills keeps recording over its
//!   oldest events; the overwritten count is exact (cursor minus
//!   capacity) and surfaced in the trace summary, so truncation is
//!   visible rather than silent.
//! * **Branch-on-atomic gating.** Every instrumentation site first asks
//!   [`SpanRecorder::enabled_at`] — a single relaxed load and compare —
//!   so `SBGT_TRACE=off` costs nothing measurable (bounded by the ≤2%
//!   bench-smoke assertion).
//!
//! Timestamps are nanoseconds since the recorder's creation instant,
//! shared by all lanes, so events from different threads order correctly
//! in the exported trace. Span names are interned to `u32` ids once
//! (typically at stage entry) and resolved at export time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use super::config::{ObsConfig, TraceLevel};

/// `task` value of events not tied to a task.
pub const NO_TASK: u32 = u32::MAX;
/// `cohort` value of events not tied to a cohort.
pub const NO_COHORT: u64 = u64::MAX;
/// `seq` value of events not tied to an engine stage sequence number.
pub const NO_SEQ: u64 = u64::MAX;

/// Salt folded into cohort ids before hashing so a trace id never equals
/// a raw cohort id (which would invite accidental joins on the wrong key).
const TRACE_SALT: u64 = 0x5B67_0B5E_7ACE_1D03;

/// splitmix64 finalizer — the standard 64-bit bijective mixer. Used for
/// trace-id derivation only; it never touches any RNG stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic trace id for a cohort. Every process derives the same id
/// from the same cohort with no RNG and no clock, so traces recorded on
/// different shards stitch together without any id-exchange protocol —
/// and chaos/replay draws can never shift because of tracing.
pub fn trace_id_for_cohort(cohort: u64) -> u64 {
    let id = splitmix64(cohort ^ TRACE_SALT);
    // Zero is reserved as "no trace"; remap the one colliding input.
    if id == 0 {
        1
    } else {
        id
    }
}

/// Cross-process trace identity carried in `sbgt-net` frames: which trace
/// a request belongs to and which client-side span emitted it. Ids are
/// pure functions of the cohort (see [`trace_id_for_cohort`]), so the
/// context is reconstructible, comparable, and replay-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace the request belongs to; `trace_id_for_cohort(cohort)` for
    /// cohort-scoped requests.
    pub trace_id: u64,
    /// Span id of the emitting client-side span, 0 when the client did
    /// not record one.
    pub parent_span: u64,
}

impl TraceContext {
    /// Context for a cohort-scoped request with no explicit parent span.
    pub fn for_cohort(cohort: u64) -> Self {
        TraceContext {
            trace_id: trace_id_for_cohort(cohort),
            parent_span: 0,
        }
    }

    /// Deterministic child span id `seq` steps under this context.
    pub fn child_span(&self, seq: u64) -> u64 {
        splitmix64(self.trace_id ^ seq.wrapping_add(1))
    }
}

/// What a recorded event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// An engine stage or job (driver-side, wraps all its attempts).
    Stage,
    /// One task attempt on an executor thread.
    Task,
    /// One full session round (dense or sharded).
    Round,
    /// A phase within a round: marginals, select, observe.
    Phase,
    /// A service-loop operation: batch-seal, checkpoint, restore.
    Service,
    /// An instantaneous marker: fault injected, shed, recovery.
    Mark,
    /// A counter sample: queue depth, live cohorts.
    Counter,
}

impl SpanKind {
    fn encode(self) -> u64 {
        match self {
            SpanKind::Stage => 0,
            SpanKind::Task => 1,
            SpanKind::Round => 2,
            SpanKind::Phase => 3,
            SpanKind::Service => 4,
            SpanKind::Mark => 5,
            SpanKind::Counter => 6,
        }
    }

    fn decode(v: u64) -> SpanKind {
        match v {
            0 => SpanKind::Stage,
            1 => SpanKind::Task,
            2 => SpanKind::Round,
            3 => SpanKind::Phase,
            4 => SpanKind::Service,
            5 => SpanKind::Mark,
            _ => SpanKind::Counter,
        }
    }

    /// Whether the event has duration (a begin/end pair in the export).
    pub fn is_span(self) -> bool {
        !matches!(self, SpanKind::Mark | SpanKind::Counter)
    }
}

/// Identity of a recorded event beyond its name: which task attempt it
/// was, which cohort it served, and which engine stage sequence number it
/// belongs to. All fields default to "not applicable".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMeta {
    /// Task index within the stage, [`NO_TASK`] if not task-scoped.
    pub task: u32,
    /// Attempt ordinal of the task (retries and speculation bump it).
    pub attempt: u16,
    /// Whether the attempt was a speculative duplicate.
    pub speculative: bool,
    /// Whether the span's operation failed.
    pub failed: bool,
    /// Cohort id the event served, [`NO_COHORT`] if not cohort-scoped.
    pub cohort: u64,
    /// Engine stage sequence number linking task attempts to their stage
    /// span, [`NO_SEQ`] when not stage-scoped.
    pub seq: u64,
}

impl Default for SpanMeta {
    fn default() -> Self {
        SpanMeta {
            task: NO_TASK,
            attempt: 0,
            speculative: false,
            failed: false,
            cohort: NO_COHORT,
            seq: NO_SEQ,
        }
    }
}

impl SpanMeta {
    /// Meta scoped to a cohort only.
    pub fn for_cohort(cohort: u64) -> Self {
        SpanMeta {
            cohort,
            ..Self::default()
        }
    }

    /// Meta scoped to an engine stage sequence number.
    pub fn for_seq(seq: u64) -> Self {
        SpanMeta {
            seq,
            ..Self::default()
        }
    }
}

/// One decoded event from a lane snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Interned name id (resolve with [`SpanRecorder::name_of`]).
    pub name: u32,
    /// Event kind.
    pub kind: SpanKind,
    /// Start time, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End time; equals `start_ns` for marks and counter samples.
    pub end_ns: u64,
    /// Counter value ([`SpanKind::Counter`] only).
    pub value: u64,
    /// See [`SpanMeta`].
    pub meta: SpanMeta,
}

const FLAG_SPECULATIVE: u64 = 1;
const FLAG_FAILED: u64 = 2;

/// Payload words per slot (plus the sequence word).
const SLOT_WORDS: usize = 7;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// One thread's ring buffer of events.
pub struct WorkerLane {
    name: String,
    /// Events ever pushed; slot index is `cursor % capacity`.
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl WorkerLane {
    fn new(name: String, capacity: usize) -> Self {
        WorkerLane {
            name,
            cursor: AtomicU64::new(0),
            slots: (0..capacity.max(16)).map(|_| Slot::new()).collect(),
        }
    }

    /// Record one event. Intended to be called only from the lane's
    /// owning thread; a violation cannot corrupt memory (every word is
    /// atomic), it can only waste a slot.
    fn push(&self, ev: &SpanEvent) {
        let cursor = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(cursor % self.slots.len() as u64) as usize];
        // Odd sequence marks the slot as mid-write; readers skip it.
        slot.seq.store(2 * cursor + 1, Ordering::Release);
        let m = &ev.meta;
        let flags = u64::from(m.speculative) * FLAG_SPECULATIVE + u64::from(m.failed) * FLAG_FAILED;
        let packed =
            ev.name as u64 | (ev.kind.encode() << 32) | (flags << 40) | ((m.attempt as u64) << 48);
        let words = [
            ev.start_ns,
            ev.end_ns,
            ev.value,
            packed,
            m.task as u64,
            m.cohort,
            m.seq,
        ];
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Release);
        }
        slot.seq.store(2 * cursor + 2, Ordering::Release);
        self.cursor.store(cursor + 1, Ordering::Release);
    }

    /// Copy out the retained events, oldest first, plus the count of
    /// events lost to ring wrap-around. Torn slots (caught mid-write) are
    /// skipped.
    fn snapshot(&self) -> (Vec<SpanEvent>, u64) {
        let cap = self.slots.len() as u64;
        let cursor = self.cursor.load(Ordering::Acquire);
        let first = cursor.saturating_sub(cap);
        let mut events = Vec::with_capacity((cursor - first) as usize);
        for i in first..cursor {
            let slot = &self.slots[(i % cap) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before != 2 * i + 2 {
                // Torn or already overwritten by a lap we didn't expect.
                continue;
            }
            let mut words = [0u64; SLOT_WORDS];
            for (w, s) in words.iter_mut().zip(slot.words.iter()) {
                *w = s.load(Ordering::Acquire);
            }
            if slot.seq.load(Ordering::Acquire) != seq_before {
                continue;
            }
            let packed = words[3];
            events.push(SpanEvent {
                name: (packed & 0xFFFF_FFFF) as u32,
                kind: SpanKind::decode((packed >> 32) & 0xFF),
                start_ns: words[0],
                end_ns: words[1],
                value: words[2],
                meta: SpanMeta {
                    task: words[4] as u32,
                    attempt: ((packed >> 48) & 0xFFFF) as u16,
                    speculative: (packed >> 40) & FLAG_SPECULATIVE != 0,
                    failed: (packed >> 40) & FLAG_FAILED != 0,
                    cohort: words[5],
                    seq: words[6],
                },
            });
        }
        (events, first)
    }
}

/// Decoded contents of one lane at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Thread name captured at lane registration.
    pub name: String,
    /// Retained events, oldest first.
    pub events: Vec<SpanEvent>,
    /// Events overwritten by ring wrap-around before the snapshot.
    pub dropped: u64,
}

/// A point-in-time copy of everything the recorder holds.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Recording level at snapshot time.
    pub level: TraceLevel,
    /// Process tag of the recorder (see [`SpanRecorder::set_process_tag`]);
    /// 0 when never set.
    pub process_tag: u64,
    /// One entry per registered thread, in registration order.
    pub lanes: Vec<LaneSnapshot>,
}

impl ObsSnapshot {
    /// Total retained events across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total events lost to ring wrap-around across all lanes.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// All events of every lane, flattened in lane order.
    pub fn all_events(&self) -> impl Iterator<Item = &SpanEvent> {
        self.lanes.iter().flat_map(|l| l.events.iter())
    }
}

/// Process-unique recorder ids, keying the TLS lane cache.
static RECORDER_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (recorder id, lane) pairs this thread has registered. Bounded so a
    /// thread outliving many engines cannot grow it without limit.
    static LANE_CACHE: RefCell<Vec<(u64, Arc<WorkerLane>)>> = const { RefCell::new(Vec::new()) };
}

/// Most recorder-lane registrations a single thread caches.
const LANE_CACHE_CAP: usize = 64;

#[derive(Default)]
struct NameTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

/// The recorder: owns the lanes, the name table, and the shared epoch.
/// One per [`crate::Engine`], shared with sessions and the service via
/// `Arc`.
pub struct SpanRecorder {
    id: u64,
    level: AtomicU8,
    lane_capacity: usize,
    epoch: Instant,
    process_tag: AtomicU64,
    lanes: Mutex<Vec<Arc<WorkerLane>>>,
    names: Mutex<NameTable>,
}

impl SpanRecorder {
    /// Recorder with the given configuration.
    pub fn new(config: ObsConfig) -> Self {
        SpanRecorder {
            id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
            level: AtomicU8::new(encode_level(config.level)),
            lane_capacity: config.lane_capacity.max(16),
            epoch: Instant::now(),
            process_tag: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            names: Mutex::new(NameTable::default()),
        }
    }

    /// Tag this recorder with a process identity (typically the OS pid, or
    /// a shard id in tests). The tag rides along in [`ObsSnapshot`] and
    /// `ObsFrame` exports so merged fleet traces can attribute lanes to
    /// their origin process. 0 means "never set".
    pub fn set_process_tag(&self, tag: u64) {
        self.process_tag.store(tag, Ordering::Relaxed);
    }

    /// The process tag, 0 when never set.
    pub fn process_tag(&self) -> u64 {
        self.process_tag.load(Ordering::Relaxed)
    }

    /// Current recording level.
    pub fn level(&self) -> TraceLevel {
        decode_level(self.level.load(Ordering::Relaxed))
    }

    /// Change the recording level at runtime (flips the gate atomically;
    /// already-recorded events are kept).
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(encode_level(level), Ordering::Relaxed);
    }

    /// Whether anything is being recorded.
    pub fn enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) != 0
    }

    /// Whether events at `min` verbosity are being recorded. This is the
    /// hot-path gate: one relaxed load and a compare.
    #[inline]
    pub fn enabled_at(&self, min: TraceLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= encode_level(min)
    }

    /// Nanoseconds since the recorder epoch (shared by all lanes).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Intern `name`, returning its stable id. Call once per call-site
    /// (not per event) when possible.
    pub fn intern(&self, name: &str) -> u32 {
        let mut table = self.names.lock();
        if let Some(&id) = table.index.get(name) {
            return id;
        }
        let id = table.names.len() as u32;
        table.names.push(name.to_string());
        table.index.insert(name.to_string(), id);
        id
    }

    /// Resolve an interned id back to its name.
    pub fn name_of(&self, id: u32) -> String {
        self.names
            .lock()
            .names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("name#{id}"))
    }

    /// Copy of the whole name table, indexed by interned id. Used by
    /// exports that ship events across a process boundary, where
    /// [`Self::name_of`] is not available at render time.
    pub fn name_table(&self) -> Vec<String> {
        self.names.lock().names.clone()
    }

    /// The calling thread's lane, registering one on first use.
    fn lane(&self) -> Arc<WorkerLane> {
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, lane)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(lane);
            }
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{}", self.lanes.lock().len()));
            let lane = Arc::new(WorkerLane::new(name, self.lane_capacity));
            self.lanes.lock().push(Arc::clone(&lane));
            if cache.len() >= LANE_CACHE_CAP {
                cache.remove(0);
            }
            cache.push((self.id, Arc::clone(&lane)));
            lane
        })
    }

    /// Record a completed span with explicit timestamps.
    pub fn record_span(
        &self,
        kind: SpanKind,
        name: u32,
        start_ns: u64,
        end_ns: u64,
        meta: SpanMeta,
    ) {
        self.lane().push(&SpanEvent {
            name,
            kind,
            start_ns,
            end_ns: end_ns.max(start_ns),
            value: 0,
            meta,
        });
    }

    /// Record a completed span ending now.
    pub fn record_span_ending_now(&self, kind: SpanKind, name: u32, start_ns: u64, meta: SpanMeta) {
        self.record_span(kind, name, start_ns, self.now_ns(), meta);
    }

    /// Record an instantaneous marker.
    pub fn mark(&self, name: u32, meta: SpanMeta) {
        self.mark_value(name, 0, meta);
    }

    /// Record an instantaneous marker carrying a payload value (a trace
    /// id, a burn rate in milli-units, a residual in nanos — anything that
    /// fits a `u64`).
    pub fn mark_value(&self, name: u32, value: u64, meta: SpanMeta) {
        let now = self.now_ns();
        self.lane().push(&SpanEvent {
            name,
            kind: SpanKind::Mark,
            start_ns: now,
            end_ns: now,
            value,
            meta,
        });
    }

    /// Record a counter sample (rendered as a counter track).
    pub fn counter(&self, name: u32, value: u64) {
        let now = self.now_ns();
        self.lane().push(&SpanEvent {
            name,
            kind: SpanKind::Counter,
            start_ns: now,
            end_ns: now,
            value,
            meta: SpanMeta::default(),
        });
    }

    /// Open a span guard that records on drop, or `None` when recording
    /// at `min` verbosity is off. The typical instrumentation site is
    /// one line: `let _s = obs.span(TraceLevel::Spans, kind, "name", meta);`.
    pub fn span(
        &self,
        min: TraceLevel,
        kind: SpanKind,
        name: &str,
        meta: SpanMeta,
    ) -> Option<SpanGuard<'_>> {
        if !self.enabled_at(min) {
            return None;
        }
        Some(SpanGuard {
            recorder: self,
            kind,
            name: self.intern(name),
            start_ns: self.now_ns(),
            meta,
        })
    }

    /// Decode everything currently retained.
    pub fn snapshot(&self) -> ObsSnapshot {
        let lanes = self.lanes.lock().clone();
        ObsSnapshot {
            level: self.level(),
            process_tag: self.process_tag(),
            lanes: lanes
                .iter()
                .map(|lane| {
                    let (events, dropped) = lane.snapshot();
                    LaneSnapshot {
                        name: lane.name.clone(),
                        events,
                        dropped,
                    }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("level", &self.level())
            .field("lanes", &self.lanes.lock().len())
            .finish()
    }
}

/// Records a span over its lexical scope; created by
/// [`SpanRecorder::span`].
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    kind: SpanKind,
    name: u32,
    start_ns: u64,
    meta: SpanMeta,
}

impl SpanGuard<'_> {
    /// Flag the span's operation as failed before it closes.
    pub fn set_failed(&mut self) {
        self.meta.failed = true;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder
            .record_span_ending_now(self.kind, self.name, self.start_ns, self.meta);
    }
}

fn encode_level(level: TraceLevel) -> u8 {
    match level {
        TraceLevel::Off => 0,
        TraceLevel::Spans => 1,
        TraceLevel::Full => 2,
    }
}

fn decode_level(v: u8) -> TraceLevel {
    match v {
        0 => TraceLevel::Off,
        1 => TraceLevel::Spans,
        _ => TraceLevel::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_recorder() -> SpanRecorder {
        SpanRecorder::new(ObsConfig::full())
    }

    #[test]
    fn gate_levels() {
        let rec = SpanRecorder::new(ObsConfig::off());
        assert!(!rec.enabled());
        assert!(!rec.enabled_at(TraceLevel::Spans));
        rec.set_level(TraceLevel::Spans);
        assert!(rec.enabled_at(TraceLevel::Spans));
        assert!(!rec.enabled_at(TraceLevel::Full));
        rec.set_level(TraceLevel::Full);
        assert!(rec.enabled_at(TraceLevel::Full));
        assert_eq!(rec.level(), TraceLevel::Full);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let rec = full_recorder();
        {
            let mut g = rec
                .span(
                    TraceLevel::Spans,
                    SpanKind::Stage,
                    "stage-a",
                    SpanMeta::for_seq(7),
                )
                .unwrap();
            g.set_failed();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.total_events(), 1);
        let ev = snap.lanes[0].events[0];
        assert_eq!(ev.kind, SpanKind::Stage);
        assert_eq!(rec.name_of(ev.name), "stage-a");
        assert_eq!(ev.meta.seq, 7);
        assert!(ev.meta.failed);
        assert!(ev.end_ns >= ev.start_ns);
    }

    #[test]
    fn disabled_span_returns_none() {
        let rec = SpanRecorder::new(ObsConfig::off());
        assert!(rec
            .span(TraceLevel::Spans, SpanKind::Stage, "x", SpanMeta::default())
            .is_none());
        assert_eq!(rec.snapshot().total_events(), 0);
    }

    #[test]
    fn intern_is_stable_and_reversible() {
        let rec = full_recorder();
        let a = rec.intern("alpha");
        let b = rec.intern("beta");
        assert_ne!(a, b);
        assert_eq!(rec.intern("alpha"), a);
        assert_eq!(rec.name_of(a), "alpha");
        assert_eq!(rec.name_of(b), "beta");
        assert_eq!(rec.name_of(999), "name#999");
    }

    #[test]
    fn meta_roundtrips_through_the_ring() {
        let rec = full_recorder();
        let name = rec.intern("task-span");
        let meta = SpanMeta {
            task: 11,
            attempt: 3,
            speculative: true,
            failed: false,
            cohort: 42,
            seq: 1234,
        };
        rec.record_span(SpanKind::Task, name, 100, 250, meta);
        let snap = rec.snapshot();
        let ev = snap.lanes[0].events[0];
        assert_eq!(ev.meta, meta);
        assert_eq!(ev.start_ns, 100);
        assert_eq!(ev.end_ns, 250);
        assert_eq!(ev.kind, SpanKind::Task);
    }

    #[test]
    fn counters_and_marks_are_instantaneous() {
        let rec = full_recorder();
        let q = rec.intern("queue_depth");
        rec.counter(q, 17);
        rec.mark(rec.intern("shed"), SpanMeta::for_cohort(3));
        let snap = rec.snapshot();
        let events = &snap.lanes[0].events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, SpanKind::Counter);
        assert_eq!(events[0].value, 17);
        assert_eq!(events[0].start_ns, events[0].end_ns);
        assert_eq!(events[1].kind, SpanKind::Mark);
        assert_eq!(events[1].meta.cohort, 3);
        assert!(!events[1].kind.is_span());
        assert!(SpanKind::Round.is_span());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = SpanRecorder::new(ObsConfig::full().with_lane_capacity(16));
        let name = rec.intern("e");
        for i in 0..40u64 {
            rec.record_span(SpanKind::Phase, name, i, i + 1, SpanMeta::default());
        }
        let snap = rec.snapshot();
        assert_eq!(snap.lanes[0].events.len(), 16);
        assert_eq!(snap.lanes[0].dropped, 24);
        // The retained window is the newest events, oldest first.
        assert_eq!(snap.lanes[0].events[0].start_ns, 24);
        assert_eq!(snap.lanes[0].events[15].start_ns, 39);
        assert!(snap.total_dropped() == 24);
        assert_eq!(snap.total_events(), 16);
    }

    #[test]
    fn each_thread_gets_its_own_lane() {
        let rec = Arc::new(full_recorder());
        let name = rec.intern("cross-thread");
        rec.record_span(SpanKind::Stage, name, 0, 1, SpanMeta::default());
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let rec = Arc::clone(&rec);
                std::thread::Builder::new()
                    .name(format!("obs-worker-{i}"))
                    .spawn(move || {
                        for j in 0..5 {
                            rec.record_span(SpanKind::Task, name, j, j + 1, SpanMeta::default());
                        }
                    })
                    .unwrap()
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.lanes.len(), 4);
        assert_eq!(snap.total_events(), 16);
        let names: Vec<_> = snap.lanes.iter().map(|l| l.name.as_str()).collect();
        for i in 0..3 {
            assert!(names.contains(&format!("obs-worker-{i}").as_str()));
        }
    }

    #[test]
    fn trace_ids_are_deterministic_nonzero_and_distinct() {
        // Pure derivation: same cohort -> same id, in any process, forever.
        let a = trace_id_for_cohort(0);
        let b = trace_id_for_cohort(1);
        let c = trace_id_for_cohort(u64::MAX);
        assert_eq!(a, trace_id_for_cohort(0));
        assert_ne!(a, b);
        assert_ne!(b, c);
        for id in [a, b, c] {
            assert_ne!(id, 0, "0 is reserved for 'no trace'");
        }
        let ctx = TraceContext::for_cohort(42);
        assert_eq!(ctx.trace_id, trace_id_for_cohort(42));
        assert_eq!(ctx.parent_span, 0);
        assert_ne!(ctx.child_span(0), ctx.child_span(1));
        assert_eq!(
            ctx.child_span(3),
            TraceContext::for_cohort(42).child_span(3)
        );
    }

    #[test]
    fn process_tag_rides_in_snapshots() {
        let rec = full_recorder();
        assert_eq!(rec.process_tag(), 0);
        assert_eq!(rec.snapshot().process_tag, 0);
        rec.set_process_tag(7001);
        assert_eq!(rec.process_tag(), 7001);
        assert_eq!(rec.snapshot().process_tag, 7001);
    }

    #[test]
    fn mark_value_carries_its_payload() {
        let rec = full_recorder();
        let name = rec.intern("net:trace-inherit");
        rec.mark_value(name, 0xDEAD_BEEF, SpanMeta::for_cohort(9));
        let snap = rec.snapshot();
        let ev = snap.lanes[0].events[0];
        assert_eq!(ev.kind, SpanKind::Mark);
        assert_eq!(ev.value, 0xDEAD_BEEF);
        assert_eq!(ev.meta.cohort, 9);
    }

    #[test]
    fn name_table_matches_interned_ids() {
        let rec = full_recorder();
        let a = rec.intern("alpha");
        let b = rec.intern("beta");
        let table = rec.name_table();
        assert_eq!(table[a as usize], "alpha");
        assert_eq!(table[b as usize], "beta");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn concurrent_snapshot_never_sees_torn_events() {
        // A writer hammers its lane while readers snapshot concurrently;
        // every decoded event must be internally consistent.
        let rec = Arc::new(SpanRecorder::new(ObsConfig::full().with_lane_capacity(64)));
        let name = rec.intern("hammer");
        let writer = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    // Every field derives from i, so a torn record would
                    // break the invariants below.
                    rec.record_span(
                        SpanKind::Task,
                        name,
                        i * 10,
                        i * 10 + 5,
                        SpanMeta {
                            task: i as u32,
                            attempt: (i % 7) as u16,
                            speculative: false,
                            failed: false,
                            cohort: i,
                            seq: i,
                        },
                    );
                }
            })
        };
        for _ in 0..200 {
            let snap = rec.snapshot();
            for ev in snap.all_events() {
                let i = ev.meta.cohort;
                assert_eq!(ev.start_ns, i * 10);
                assert_eq!(ev.end_ns, i * 10 + 5);
                assert_eq!(ev.meta.task, i as u32);
                assert_eq!(ev.meta.attempt, (i % 7) as u16);
                assert_eq!(ev.meta.seq, i);
            }
        }
        writer.join().unwrap();
    }
}
