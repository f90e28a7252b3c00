//! The SBGT wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! ┌─────────┬─────────┬────────┬──────────────┬───────────────┐
//! │ "SB"    │ version │ kind   │ payload len  │ payload       │
//! │ 2 bytes │ u8 = 3  │ u8     │ u32 LE       │ `len` bytes   │
//! └─────────┴─────────┴────────┴──────────────┴───────────────┘
//! ```
//!
//! Request kinds live in `0x01..=0x7F`, response kinds in `0x80..=0xFF`,
//! so a frame's direction is visible from its header. All integers are
//! little-endian; floats travel as raw IEEE-754 bits (never text), which
//! is what makes a report read over the wire **bit-for-bit** comparable
//! to one taken in-process.
//!
//! Decoding is total: every malformed input maps to a typed
//! [`DecodeError`], never a panic and never a truncated-but-accepted
//! message. A frame shorter than its header claims is [`DecodeError::Torn`]
//! — on a live stream the reader waits for more bytes; at EOF or in a
//! fixed buffer it is an error. A length field beyond [`MAX_PAYLOAD`] is
//! rejected as [`DecodeError::Oversized`] *before* any allocation, so a
//! hostile header cannot balloon memory.

use std::io::{self, Read};

use sbgt::SessionOutcome;
use sbgt_bayes::{CohortClassification, SubjectStatus};
use sbgt_engine::obs::hist::BUCKET_COUNT;
pub use sbgt_engine::obs::{LaneSnapshot as ObsLane, ObsHist};
use sbgt_engine::obs::{LogHistogram, PromSample, SpanEvent, SpanKind, SpanMeta, TraceContext};
use sbgt_lattice::bytes::{ByteError, Fault, Reader, Writer};
use sbgt_lattice::BigState;
use sbgt_service::{CohortReport, CohortSpec, ShedReason, Specimen};

/// Wire protocol version carried in every frame header. v3 appended a
/// fail-closed trailer block to the work-carrying requests (Submit,
/// PlaceCohort, Handoff) so a router can propagate a [`TraceContext`]
/// with the work, and added the [`Request::ObsExport`] /
/// [`Response::ObsFrame`] telemetry verbs. v2 widened the cohort ground
/// truth from one u64 to a length-prefixed word list so approximate
/// cohorts (more than 64 subjects) ship between shards. Older peers are
/// rejected with [`DecodeError::BadVersion`] at the header.
pub const WIRE_VERSION: u8 = 3;

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"SB";

/// Header size in bytes (magic + version + kind + payload length).
pub const HEADER_LEN: usize = 8;

/// Hard cap on a frame's payload, enforced before allocation. Sized for a
/// drain response carrying every live cohort's checkpoint on a loaded
/// shard, with an order of magnitude of headroom.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// A typed wire decoding failure. Every way an input byte stream can be
/// malformed maps to exactly one variant — the server answers with an
/// error frame (or closes) instead of panicking, and tests assert the
/// variant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ends before the frame does. On a live stream this means
    /// "read more"; at EOF it means the peer hung up mid-frame.
    Torn {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs (header + declared payload).
        need: usize,
    },
    /// The header declares a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: u32,
    },
    /// The first two bytes are not [`MAGIC`] — not an SBGT stream.
    BadMagic([u8; 2]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// A kind byte no message maps to.
    UnknownKind(u8),
    /// The payload is self-inconsistent (short fields, trailing bytes,
    /// invalid enum byte, non-UTF-8 text).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Torn { have, need } => {
                write!(f, "torn frame: have {have} bytes, need {need}")
            }
            DecodeError::Oversized { len } => {
                write!(f, "oversized frame: payload {len} exceeds {MAX_PAYLOAD}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A client-to-shard request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Submit raw specimens onto a tenant's lane; the shard batches them
    /// itself. Single-shard path — a fabric router uses
    /// [`Request::PlaceCohort`] instead so cohort ids stay globally unique.
    Submit {
        /// Tenant (QoS lane) the specimens belong to.
        tenant: u32,
        /// The specimens, in submission order.
        specimens: Vec<Specimen>,
        /// Trace context the sender's spans for this work run under, if
        /// any; the shard stamps its server-side spans with it so a
        /// merged fleet trace stitches both processes into one tree.
        trace: Option<TraceContext>,
    },
    /// Open a fully-formed cohort (id, seed, and tenant pre-assigned by
    /// the router) on this shard.
    PlaceCohort {
        /// The cohort's static identity.
        spec: CohortSpec,
        /// Trace context of the placement (see [`Request::Submit`]).
        trace: Option<TraceContext>,
    },
    /// Collect (and clear) the reports completed since the last poll.
    PollReports,
    /// Scrape the shard's metrics as Prometheus text exposition.
    Stats,
    /// Stop admitting, run live cohorts to the next round boundary, and
    /// return completed reports plus one `SBGTCKPT` blob per live cohort.
    /// Terminal: the shard refuses further work afterwards.
    Drain,
    /// Adopt cohorts drained from another shard, each an `SBGTCKPT` blob.
    Handoff {
        /// One serialized [`sbgt_service::CohortCheckpoint`] per cohort.
        checkpoints: Vec<Vec<u8>>,
        /// Trace context of the migration (see [`Request::Submit`]).
        trace: Option<TraceContext>,
    },
    /// Stop the shard server once the response is flushed.
    Shutdown,
    /// Export the shard's telemetry as one compact binary
    /// [`Response::ObsFrame`]: Prometheus samples, latency histograms in
    /// native bucket form (mergeable without re-parsing text), and the
    /// span-ring snapshot. The fleet scraper polls this.
    ObsExport,
}

/// A shard-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Outcome of a submit/place/handoff: how many specimens (or cohorts,
    /// for handoff) were admitted and how many shed, with the typed reason
    /// for the first shed.
    Accepted {
        /// Units admitted.
        accepted: u32,
        /// Units shed by admission control.
        shed: u32,
        /// Reason for the first shed, when any occurred.
        reason: Option<ShedReason>,
    },
    /// Completed cohort reports, sorted by cohort id.
    Reports {
        /// The reports, bit-for-bit as the shard computed them.
        reports: Vec<CohortReport>,
    },
    /// Prometheus text exposition of the shard's metrics registry.
    Stats {
        /// The scrape body.
        prometheus: String,
    },
    /// Result of [`Request::Drain`]: everything the shard had.
    Drained {
        /// Cohorts already classified, sorted by cohort id.
        reports: Vec<CohortReport>,
        /// One `SBGTCKPT` blob per still-live cohort, sorted by cohort id.
        checkpoints: Vec<Vec<u8>>,
    },
    /// The request could not be served (decode failure, closed service,
    /// restore error). The connection stays usable.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`Request::ObsExport`]: the shard's telemetry in native
    /// binary form.
    ObsFrame {
        /// The export.
        frame: ObsFrame,
    },
}

/// One shard's telemetry export: everything a fleet aggregator needs to
/// merge per-shard metrics and traces without text round-trips.
/// Histograms travel as native buckets, so the fleet merge is
/// [`LogHistogram::merge`] — exactly the union of the shard streams.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsFrame {
    /// The shard recorder's process tag
    /// ([`sbgt_engine::SpanRecorder::process_tag`]); 0 when never set.
    pub process_tag: u64,
    /// The scalar samples of the shard's [`sbgt_engine::obs::Scrape`]
    /// (counters/gauges; no histogram series).
    pub samples: Vec<PromSample>,
    /// The scrape's histograms, each once, in native bucket form.
    pub hists: Vec<ObsHist>,
    /// The recorder's interned span-name table; event `name` ids in
    /// [`Self::lanes`] index into it.
    pub names: Vec<String>,
    /// Span-ring snapshot, one entry per recorder lane (thread).
    pub lanes: Vec<ObsLane>,
}

const KIND_PING: u8 = 0x01;
const KIND_SUBMIT: u8 = 0x02;
const KIND_PLACE: u8 = 0x03;
const KIND_POLL: u8 = 0x04;
const KIND_STATS: u8 = 0x05;
const KIND_DRAIN: u8 = 0x06;
const KIND_HANDOFF: u8 = 0x07;
const KIND_SHUTDOWN: u8 = 0x08;
const KIND_OBS_EXPORT: u8 = 0x09;

const KIND_PONG: u8 = 0x81;
const KIND_ACCEPTED: u8 = 0x82;
const KIND_REPORTS: u8 = 0x83;
const KIND_STATS_RESP: u8 = 0x84;
const KIND_DRAINED: u8 = 0x85;
const KIND_ERROR: u8 = 0x86;
const KIND_OBS_FRAME: u8 = 0x87;

/// No-shed-reason sentinel on the wire (reasons encode as `0..=2`).
const NO_REASON: u8 = 0xFF;

/// Trailer tag carrying a [`TraceContext`] (16 bytes: trace id +
/// parent span id).
const TRAILER_TRACE: u8 = 0x01;

// ---------------------------------------------------------------------------
// Field codecs, on the shared byte layer (`sbgt_lattice::bytes`)
// ---------------------------------------------------------------------------

/// Within a complete frame the header's length is authoritative, so
/// running out of payload is corruption, not a torn stream.
impl From<ByteError> for DecodeError {
    fn from(e: ByteError) -> Self {
        DecodeError::Corrupt(match e.fault {
            Fault::Truncated { .. } => "field past end of payload",
            Fault::Count { .. } => "count exceeds payload",
            Fault::Trailing { .. } => "trailing bytes after message",
        })
    }
}

fn put_spec(w: &mut Writer, spec: &CohortSpec) {
    w.u64(spec.id);
    w.u64(spec.seed);
    w.u32(spec.tenant);
    w.u32(spec.risks.len() as u32);
    w.f64s(&spec.risks);
    let words = spec.truth.words();
    w.u32(words.len() as u32);
    w.u64s(words);
}

fn read_spec(r: &mut Reader<'_>) -> Result<CohortSpec, ByteError> {
    let id = r.u64()?;
    let seed = r.u64()?;
    let tenant = r.u32()?;
    let n_risks = r.count32(8, "risk")?;
    let risks = r.f64s(n_risks)?;
    let n_words = r.count32(8, "truth word")?;
    let truth = BigState::from_words(r.u64s(n_words)?);
    Ok(CohortSpec {
        id,
        seed,
        tenant,
        risks,
        truth,
    })
}

fn status_byte(s: SubjectStatus) -> u8 {
    match s {
        SubjectStatus::Negative => 0,
        SubjectStatus::Positive => 1,
        SubjectStatus::Undetermined => 2,
    }
}

fn status_from_byte(b: u8) -> Result<SubjectStatus, DecodeError> {
    match b {
        0 => Ok(SubjectStatus::Negative),
        1 => Ok(SubjectStatus::Positive),
        2 => Ok(SubjectStatus::Undetermined),
        _ => Err(DecodeError::Corrupt("invalid subject status byte")),
    }
}

fn put_report(w: &mut Writer, report: &CohortReport) {
    w.u64(report.cohort);
    w.u32(report.tenant);
    w.u32(report.subjects as u32);
    w.u64(report.recovered_rounds);
    w.u64(report.outcome.tests as u64);
    w.u64(report.outcome.stages as u64);
    w.u32(report.outcome.classification.statuses.len() as u32);
    for &s in &report.outcome.classification.statuses {
        w.u8(status_byte(s));
    }
    w.u32(report.outcome.marginals.len() as u32);
    w.f64s(&report.outcome.marginals);
}

fn read_report(r: &mut Reader<'_>) -> Result<CohortReport, DecodeError> {
    let cohort = r.u64()?;
    let tenant = r.u32()?;
    let subjects = r.u32()? as usize;
    let recovered_rounds = r.u64()?;
    let tests = r.u64()? as usize;
    let stages = r.u64()? as usize;
    let n_statuses = r.count32(1, "status")?;
    let statuses = r
        .take(n_statuses)?
        .iter()
        .map(|&b| status_from_byte(b))
        .collect::<Result<_, _>>()?;
    let n_marginals = r.count32(8, "marginal")?;
    let marginals = r.f64s(n_marginals)?;
    Ok(CohortReport {
        cohort,
        tenant,
        subjects,
        recovered_rounds,
        outcome: SessionOutcome {
            tests,
            stages,
            subjects,
            classification: CohortClassification { statuses },
            marginals,
        },
    })
}

fn put_reports(w: &mut Writer, reports: &[CohortReport]) {
    w.u32(reports.len() as u32);
    for report in reports {
        put_report(w, report);
    }
}

fn read_reports(r: &mut Reader<'_>) -> Result<Vec<CohortReport>, DecodeError> {
    // Smallest report: fixed fields + two empty vectors.
    let n = r.count32(48, "report")?;
    (0..n).map(|_| read_report(r)).collect()
}

fn put_blobs(w: &mut Writer, blobs: &[Vec<u8>]) {
    w.u32(blobs.len() as u32);
    for blob in blobs {
        w.bytes(blob);
    }
}

fn read_blobs(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, ByteError> {
    let n = r.count32(4, "blob")?;
    (0..n).map(|_| Ok(r.bytes()?.to_vec())).collect()
}

// ---------------------------------------------------------------------------
// Trailers (v3): optional tagged blocks appended after a request's base
// payload. Decoding is fail-closed: an unknown tag is Corrupt, not
// silently skipped — a peer that attaches a trailer this version does not
// understand must not have that trailer dropped on the floor.
// ---------------------------------------------------------------------------

fn put_trailers(w: &mut Writer, trace: &Option<TraceContext>) {
    match trace {
        None => w.u8(0),
        Some(ctx) => {
            w.u8(1);
            w.u8(TRAILER_TRACE);
            w.u32(16);
            w.u64(ctx.trace_id);
            w.u64(ctx.parent_span);
        }
    }
}

fn read_trailers(r: &mut Reader<'_>) -> Result<Option<TraceContext>, DecodeError> {
    let n = r.u8()?;
    let mut trace = None;
    for _ in 0..n {
        let tag = r.u8()?;
        let len = r.u32()? as usize;
        match tag {
            TRAILER_TRACE => {
                if len != 16 {
                    return Err(DecodeError::Corrupt("trace trailer has wrong length"));
                }
                if trace.is_some() {
                    return Err(DecodeError::Corrupt("duplicate trace trailer"));
                }
                trace = Some(TraceContext {
                    trace_id: r.u64()?,
                    parent_span: r.u64()?,
                });
            }
            _ => return Err(DecodeError::Corrupt("unknown trailer tag")),
        }
    }
    Ok(trace)
}

// ---------------------------------------------------------------------------
// ObsFrame codec
// ---------------------------------------------------------------------------

fn put_str(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    String::from_utf8(r.bytes()?.to_vec()).map_err(|_| DecodeError::Corrupt("string is not UTF-8"))
}

fn put_labels(w: &mut Writer, labels: &[(String, String)]) {
    w.u32(labels.len() as u32);
    for (k, v) in labels {
        put_str(w, k);
        put_str(w, v);
    }
}

fn read_labels(r: &mut Reader<'_>) -> Result<Vec<(String, String)>, DecodeError> {
    let n = r.count32(8, "label")?;
    (0..n).map(|_| Ok((read_str(r)?, read_str(r)?))).collect()
}

/// Histograms travel sparse: only non-empty buckets, as `(index, count)`
/// pairs, plus the scalar sum/min/max. The decoder rebuilds the dense
/// bucket array and funnels it through [`LogHistogram::from_raw_parts`],
/// so a tampered frame (bad index, inconsistent scalars, overflowing
/// counts) is a typed [`DecodeError::Corrupt`], never an inconsistent
/// histogram in memory.
fn put_hist(w: &mut Writer, hist: &LogHistogram) {
    let counts = hist.bucket_counts();
    let filled = counts.iter().filter(|&&c| c > 0).count();
    w.u32(filled as u32);
    for (idx, &count) in counts.iter().enumerate() {
        if count > 0 {
            w.u32(idx as u32);
            w.u64(count);
        }
    }
    w.u64(hist.sum());
    w.u64(hist.min().unwrap_or(u64::MAX));
    w.u64(hist.max().unwrap_or(0));
}

fn read_hist(r: &mut Reader<'_>) -> Result<LogHistogram, DecodeError> {
    let n = r.count32(12, "histogram bucket")?;
    let mut counts = vec![0u64; BUCKET_COUNT];
    for _ in 0..n {
        let idx = r.u32()? as usize;
        let count = r.u64()?;
        if idx >= BUCKET_COUNT {
            return Err(DecodeError::Corrupt("histogram bucket index out of range"));
        }
        if counts[idx] != 0 {
            return Err(DecodeError::Corrupt("duplicate histogram bucket"));
        }
        counts[idx] = count;
    }
    let sum = r.u64()?;
    let min = r.u64()?;
    let max = r.u64()?;
    LogHistogram::from_raw_parts(&counts, sum, min, max)
        .ok_or(DecodeError::Corrupt("inconsistent histogram"))
}

fn span_kind_byte(kind: SpanKind) -> u8 {
    match kind {
        SpanKind::Stage => 0,
        SpanKind::Task => 1,
        SpanKind::Round => 2,
        SpanKind::Phase => 3,
        SpanKind::Service => 4,
        SpanKind::Mark => 5,
        SpanKind::Counter => 6,
    }
}

fn span_kind_from_byte(b: u8) -> Result<SpanKind, DecodeError> {
    Ok(match b {
        0 => SpanKind::Stage,
        1 => SpanKind::Task,
        2 => SpanKind::Round,
        3 => SpanKind::Phase,
        4 => SpanKind::Service,
        5 => SpanKind::Mark,
        6 => SpanKind::Counter,
        _ => return Err(DecodeError::Corrupt("invalid span kind byte")),
    })
}

const EVENT_FLAG_SPECULATIVE: u8 = 1;
const EVENT_FLAG_FAILED: u8 = 2;

/// Fixed encoded size of one span event (the `min_item` for counts).
const EVENT_WIRE_LEN: usize = 4 + 1 + 1 + 4 + 2 + 8 + 8 + 8 + 8 + 8;

fn put_event(w: &mut Writer, e: &SpanEvent) {
    w.u32(e.name);
    w.u8(span_kind_byte(e.kind));
    let mut flags = 0u8;
    if e.meta.speculative {
        flags |= EVENT_FLAG_SPECULATIVE;
    }
    if e.meta.failed {
        flags |= EVENT_FLAG_FAILED;
    }
    w.u8(flags);
    w.u32(e.meta.task);
    w.u16(e.meta.attempt);
    w.u64(e.meta.cohort);
    w.u64(e.meta.seq);
    w.u64(e.start_ns);
    w.u64(e.end_ns);
    w.u64(e.value);
}

fn read_event(r: &mut Reader<'_>) -> Result<SpanEvent, DecodeError> {
    let name = r.u32()?;
    let kind = span_kind_from_byte(r.u8()?)?;
    let flags = r.u8()?;
    if flags & !(EVENT_FLAG_SPECULATIVE | EVENT_FLAG_FAILED) != 0 {
        return Err(DecodeError::Corrupt("invalid span flag bits"));
    }
    let task = r.u32()?;
    let attempt = r.u16()?;
    let cohort = r.u64()?;
    let seq = r.u64()?;
    let start_ns = r.u64()?;
    let end_ns = r.u64()?;
    let value = r.u64()?;
    Ok(SpanEvent {
        name,
        kind,
        start_ns,
        end_ns,
        value,
        meta: SpanMeta {
            task,
            attempt,
            speculative: flags & EVENT_FLAG_SPECULATIVE != 0,
            failed: flags & EVENT_FLAG_FAILED != 0,
            cohort,
            seq,
        },
    })
}

fn put_obs_frame(w: &mut Writer, f: &ObsFrame) {
    w.u64(f.process_tag);
    w.u32(f.samples.len() as u32);
    for s in &f.samples {
        put_str(w, &s.name);
        put_labels(w, &s.labels);
        w.f64(s.value);
    }
    w.u32(f.hists.len() as u32);
    for h in &f.hists {
        put_str(w, &h.name);
        put_labels(w, &h.labels);
        put_hist(w, &h.hist);
    }
    w.u32(f.names.len() as u32);
    for name in &f.names {
        put_str(w, name);
    }
    w.u32(f.lanes.len() as u32);
    for lane in &f.lanes {
        put_str(w, &lane.name);
        w.u64(lane.dropped);
        w.u32(lane.events.len() as u32);
        for e in &lane.events {
            put_event(w, e);
        }
    }
}

fn read_obs_frame(r: &mut Reader<'_>) -> Result<ObsFrame, DecodeError> {
    let process_tag = r.u64()?;
    let n_samples = r.count32(16, "sample")?;
    let samples = (0..n_samples)
        .map(|_| {
            Ok(PromSample {
                name: read_str(r)?,
                labels: read_labels(r)?,
                value: r.f64()?,
            })
        })
        .collect::<Result<_, DecodeError>>()?;
    let n_hists = r.count32(36, "histogram")?;
    let hists = (0..n_hists)
        .map(|_| {
            Ok(ObsHist {
                name: read_str(r)?,
                labels: read_labels(r)?,
                hist: read_hist(r)?,
            })
        })
        .collect::<Result<_, DecodeError>>()?;
    let n_names = r.count32(4, "span name")?;
    let names = (0..n_names)
        .map(|_| read_str(r))
        .collect::<Result<_, _>>()?;
    let n_lanes = r.count32(16, "lane")?;
    let lanes = (0..n_lanes)
        .map(|_| {
            let name = read_str(r)?;
            let dropped = r.u64()?;
            let n_events = r.count32(EVENT_WIRE_LEN, "span event")?;
            let events = (0..n_events)
                .map(|_| read_event(r))
                .collect::<Result<_, _>>()?;
            Ok(ObsLane {
                name,
                dropped,
                events,
            })
        })
        .collect::<Result<_, DecodeError>>()?;
    Ok(ObsFrame {
        process_tag,
        samples,
        hists,
        names,
        lanes,
    })
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

fn frame(kind: u8, payload: Writer) -> Vec<u8> {
    let payload = payload.into_bytes();
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
    let mut w = Writer::with_capacity(HEADER_LEN + payload.len());
    w.raw(&MAGIC);
    w.u8(WIRE_VERSION);
    w.u8(kind);
    w.bytes(&payload);
    w.into_bytes()
}

/// Split `buf` into a validated `(kind, payload)` plus the total bytes the
/// frame occupies. Shared by both directions; the caller matches the kind.
fn decode_header(buf: &[u8]) -> Result<(u8, &[u8], usize), DecodeError> {
    let torn = |need| DecodeError::Torn {
        have: buf.len(),
        need,
    };
    let mut r = Reader::new(buf);
    let (Ok(magic), Ok(version), Ok(kind), Ok(len)) = (r.take(2), r.u8(), r.u8(), r.u32()) else {
        return Err(torn(HEADER_LEN));
    };
    if magic != MAGIC {
        return Err(DecodeError::BadMagic([magic[0], magic[1]]));
    }
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    if len > MAX_PAYLOAD {
        return Err(DecodeError::Oversized { len });
    }
    let total = HEADER_LEN + len as usize;
    let payload = r.take(len as usize).map_err(|_| torn(total))?;
    Ok((kind, payload, total))
}

impl Request {
    /// Encode into one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping
            | Request::PollReports
            | Request::Stats
            | Request::Drain
            | Request::Shutdown
            | Request::ObsExport => {}
            Request::Submit {
                tenant,
                specimens,
                trace,
            } => {
                w.u32(*tenant);
                w.u32(specimens.len() as u32);
                for s in specimens {
                    w.f64(s.risk);
                    w.u8(u8::from(s.infected));
                }
                put_trailers(&mut w, trace);
            }
            Request::PlaceCohort { spec, trace } => {
                put_spec(&mut w, spec);
                put_trailers(&mut w, trace);
            }
            Request::Handoff { checkpoints, trace } => {
                put_blobs(&mut w, checkpoints);
                put_trailers(&mut w, trace);
            }
        }
        frame(self.kind(), w)
    }

    fn kind(&self) -> u8 {
        match self {
            Request::Ping => KIND_PING,
            Request::Submit { .. } => KIND_SUBMIT,
            Request::PlaceCohort { .. } => KIND_PLACE,
            Request::PollReports => KIND_POLL,
            Request::Stats => KIND_STATS,
            Request::Drain => KIND_DRAIN,
            Request::Handoff { .. } => KIND_HANDOFF,
            Request::Shutdown => KIND_SHUTDOWN,
            Request::ObsExport => KIND_OBS_EXPORT,
        }
    }

    /// Decode one request frame from the front of `buf`, returning it and
    /// the bytes consumed. [`DecodeError::Torn`] means "read more first".
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), DecodeError> {
        let (kind, payload, total) = decode_header(buf)?;
        let mut r = Reader::new(payload);
        let request = match kind {
            KIND_PING => Request::Ping,
            KIND_SUBMIT => {
                let tenant = r.u32()?;
                let n = r.count32(9, "specimen")?;
                let specimens = (0..n)
                    .map(|_| {
                        let risk = r.f64()?;
                        let infected = match r.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(DecodeError::Corrupt("invalid infected byte")),
                        };
                        Ok(Specimen { risk, infected })
                    })
                    .collect::<Result<_, _>>()?;
                let trace = read_trailers(&mut r)?;
                Request::Submit {
                    tenant,
                    specimens,
                    trace,
                }
            }
            KIND_PLACE => {
                let spec = read_spec(&mut r)?;
                let trace = read_trailers(&mut r)?;
                Request::PlaceCohort { spec, trace }
            }
            KIND_POLL => Request::PollReports,
            KIND_STATS => Request::Stats,
            KIND_DRAIN => Request::Drain,
            KIND_HANDOFF => {
                let checkpoints = read_blobs(&mut r)?;
                let trace = read_trailers(&mut r)?;
                Request::Handoff { checkpoints, trace }
            }
            KIND_SHUTDOWN => Request::Shutdown,
            KIND_OBS_EXPORT => Request::ObsExport,
            other => return Err(DecodeError::UnknownKind(other)),
        };
        r.finish()?;
        Ok((request, total))
    }
}

impl Response {
    /// Encode into one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong => {}
            Response::Accepted {
                accepted,
                shed,
                reason,
            } => {
                w.u32(*accepted);
                w.u32(*shed);
                w.u8(reason.map_or(NO_REASON, ShedReason::to_byte));
            }
            Response::Reports { reports } => put_reports(&mut w, reports),
            Response::Stats { prometheus } => put_str(&mut w, prometheus),
            Response::Drained {
                reports,
                checkpoints,
            } => {
                put_reports(&mut w, reports);
                put_blobs(&mut w, checkpoints);
            }
            Response::Error { message } => put_str(&mut w, message),
            Response::ObsFrame { frame } => put_obs_frame(&mut w, frame),
        }
        frame(self.kind(), w)
    }

    fn kind(&self) -> u8 {
        match self {
            Response::Pong => KIND_PONG,
            Response::Accepted { .. } => KIND_ACCEPTED,
            Response::Reports { .. } => KIND_REPORTS,
            Response::Stats { .. } => KIND_STATS_RESP,
            Response::Drained { .. } => KIND_DRAINED,
            Response::Error { .. } => KIND_ERROR,
            Response::ObsFrame { .. } => KIND_OBS_FRAME,
        }
    }

    /// Decode one response frame from the front of `buf`, returning it and
    /// the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Response, usize), DecodeError> {
        let (kind, payload, total) = decode_header(buf)?;
        let mut r = Reader::new(payload);
        let response = match kind {
            KIND_PONG => Response::Pong,
            KIND_ACCEPTED => {
                let accepted = r.u32()?;
                let shed = r.u32()?;
                let reason = match r.u8()? {
                    NO_REASON => None,
                    byte => Some(
                        ShedReason::from_byte(byte)
                            .ok_or(DecodeError::Corrupt("invalid shed reason byte"))?,
                    ),
                };
                Response::Accepted {
                    accepted,
                    shed,
                    reason,
                }
            }
            KIND_REPORTS => Response::Reports {
                reports: read_reports(&mut r)?,
            },
            KIND_STATS_RESP => Response::Stats {
                prometheus: read_str(&mut r)?,
            },
            KIND_DRAINED => Response::Drained {
                reports: read_reports(&mut r)?,
                checkpoints: read_blobs(&mut r)?,
            },
            KIND_ERROR => Response::Error {
                message: read_str(&mut r)?,
            },
            KIND_OBS_FRAME => Response::ObsFrame {
                frame: read_obs_frame(&mut r)?,
            },
            other => return Err(DecodeError::UnknownKind(other)),
        };
        r.finish()?;
        Ok((response, total))
    }
}

/// Least room [`read_frame`] offers a `read`: enough that a frame of a few
/// dozen reports arrives in one syscall, small enough that zeroing it per
/// call is noise. It is the buffer's own tail, not a chunk on the stack:
/// stack probing made every connection thread, parked or not, touch a
/// 64 KiB chunk's worth of stack.
const READ_ROOM: usize = 16 * 1024;

/// Read one frame off a blocking stream — the one reassembly loop both
/// ends of the wire use. `buf` carries bytes between calls; `decode` is
/// [`Request::decode`] or [`Response::decode`]. [`DecodeError::Torn`]
/// means "read more"; every other decode failure is an `InvalidData`
/// error whose message is the typed [`DecodeError`]'s, and a peer that
/// closes before a frame completes is `UnexpectedEof`. The buffer never
/// grows past one maximal frame (plus [`READ_ROOM`]), whatever the peer
/// sends.
pub(crate) fn read_frame<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<(T, usize), DecodeError>,
) -> io::Result<T> {
    loop {
        match decode(buf) {
            Ok((message, used)) => {
                buf.drain(..used);
                return Ok(message);
            }
            Err(DecodeError::Torn { need, .. }) => {
                if need > HEADER_LEN + MAX_PAYLOAD as usize {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "torn frame claims more than the largest frame",
                    ));
                }
                // Read straight into the buffer's tail: room for the rest
                // of this frame once its header has named the length.
                let have = buf.len();
                buf.resize(need.max(have + READ_ROOM), 0);
                let read = stream.read(&mut buf[have..]);
                buf.truncate(have + *read.as_ref().unwrap_or(&0));
                match read {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer closed before the frame completed",
                        ))
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Err(error) => return Err(io::Error::new(io::ErrorKind::InvalidData, error)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_lattice::bytes;

    fn sample_report() -> CohortReport {
        CohortReport {
            cohort: 42,
            tenant: 7,
            subjects: 3,
            recovered_rounds: 1,
            outcome: SessionOutcome {
                tests: 9,
                stages: 4,
                subjects: 3,
                classification: CohortClassification {
                    statuses: vec![
                        SubjectStatus::Negative,
                        SubjectStatus::Positive,
                        SubjectStatus::Undetermined,
                    ],
                },
                marginals: vec![0.001, 0.997, 0.5],
            },
        }
    }

    /// Every request verb; the work-carrying ones with and without the
    /// trace trailer.
    fn requests() -> Vec<Request> {
        let spec = CohortSpec::from_specimens(
            5,
            99,
            &[
                Specimen {
                    risk: 0.02,
                    infected: false,
                },
                Specimen {
                    risk: 0.12,
                    infected: true,
                },
            ],
        )
        .with_tenant(3);
        let specimens = vec![Specimen {
            risk: 0.05,
            infected: true,
        }];
        let checkpoints = vec![vec![1, 2, 3], vec![]];
        vec![
            Request::Ping,
            Request::Submit {
                tenant: 2,
                specimens: specimens.clone(),
                trace: None,
            },
            Request::Submit {
                tenant: 2,
                specimens,
                trace: Some(TraceContext::for_cohort(42)),
            },
            Request::PlaceCohort {
                spec: spec.clone(),
                trace: None,
            },
            Request::PlaceCohort {
                spec,
                trace: Some(TraceContext {
                    trace_id: u64::MAX,
                    parent_span: 1,
                }),
            },
            Request::PollReports,
            Request::Stats,
            Request::Drain,
            Request::Handoff {
                checkpoints: checkpoints.clone(),
                trace: None,
            },
            Request::Handoff {
                checkpoints,
                trace: Some(TraceContext {
                    trace_id: TraceContext::for_cohort(7).trace_id,
                    parent_span: TraceContext::for_cohort(7).child_span(3),
                }),
            },
            Request::Shutdown,
            Request::ObsExport,
        ]
    }

    /// Every response verb, the last one a populated [`ObsFrame`].
    fn responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Accepted {
                accepted: 10,
                shed: 2,
                reason: Some(ShedReason::SloExceeded),
            },
            Response::Accepted {
                accepted: 1,
                shed: 0,
                reason: None,
            },
            Response::Reports {
                reports: vec![sample_report()],
            },
            Response::Stats {
                prometheus: "sbgt_service_rounds_total 5\n".to_string(),
            },
            Response::Drained {
                reports: vec![sample_report()],
                checkpoints: vec![vec![9; 32]],
            },
            Response::Error {
                message: "no such cohort".to_string(),
            },
            Response::ObsFrame {
                frame: sample_obs_frame(),
            },
        ]
    }

    /// Whole-buffer decode → encode; a frame followed by anything is an
    /// error here (on a stream it would be the next frame's first bytes).
    fn whole<T>(decoded: (T, usize), len: usize) -> Result<T, DecodeError> {
        match decoded {
            (message, used) if used == len => Ok(message),
            _ => Err(DecodeError::Corrupt("bytes after the frame")),
        }
    }

    fn reencode_request(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
        Ok(whole(Request::decode(bytes)?, bytes.len())?.encode())
    }

    fn reencode_response(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
        Ok(whole(Response::decode(bytes)?, bytes.len())?.encode())
    }

    #[test]
    fn every_verb_round_trips_and_survives_the_tamper_harness() {
        for request in requests() {
            let bytes = request.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), (request, bytes.len()));
            bytes::check(&bytes, reencode_request);
        }
        for response in responses() {
            let bytes = response.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), (response, bytes.len()));
            bytes::check(&bytes, reencode_response);
        }
    }

    /// One frame of every verb as the commit before the shared byte layer
    /// (`ae8dcfc`) encoded it: no byte of the wire format may have moved.
    #[test]
    fn frames_match_the_bytes_the_parent_commit_wrote() {
        let mut recorded = include_str!("../tests/data/parent_frames.txt").lines();
        let mut expect = |direction: &str, bytes: Vec<u8>| {
            let line = recorded.next().expect("a recorded frame per sample");
            let hex = line.strip_prefix(direction).expect("recorded direction");
            let old = bytes::from_hex(hex.trim_start());
            assert!(bytes == old, "{direction} kind {:#04x} moved", bytes[3]);
        };
        for request in requests() {
            expect("REQUEST", request.encode());
        }
        for response in responses() {
            expect("RESPONSE", response.encode());
        }
        assert_eq!(recorded.next(), None);
    }

    /// Every strict prefix of every frame is `Torn` with exact arithmetic
    /// — `read_frame`'s "read more" signal — and a body cut short under a
    /// header re-declaring the shorter length is `Corrupt`, never a
    /// truncated-but-accepted message.
    #[test]
    fn prefixes_are_torn_and_short_bodies_corrupt() {
        let requests = requests().into_iter().map(|r| r.encode());
        let responses = responses().into_iter().map(|r| r.encode());
        for bytes in requests.chain(responses) {
            let is_request = bytes[3] < 0x80;
            let decode = |buf: &[u8]| {
                if is_request {
                    Request::decode(buf).map(|_| ())
                } else {
                    Response::decode(buf).map(|_| ())
                }
            };
            for cut in 0..bytes.len() {
                let need = if cut < HEADER_LEN {
                    HEADER_LEN
                } else {
                    bytes.len()
                };
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(DecodeError::Torn { have: cut, need })
                );
                if cut >= HEADER_LEN {
                    let mut short = Writer::new();
                    short.raw(&bytes[..4]);
                    short.bytes(&bytes[HEADER_LEN..cut]);
                    assert!(matches!(
                        decode(&short.into_bytes()),
                        Err(DecodeError::Corrupt(_))
                    ));
                }
            }
        }
    }

    /// `read_frame` on streams a socket can produce: two frames back to
    /// back, a peer that hangs up mid-frame, garbage, a large frame in small
    /// reads, and a length no frame may have.
    #[test]
    fn read_frame_reassembles_bounds_and_types_its_failures() {
        let ping = Request::Ping.encode();
        let mut two = ping.clone();
        two.extend_from_slice(&Request::Stats.encode());
        let (mut stream, mut buf) = (two.as_slice(), Vec::new());
        for expect in [Request::Ping, Request::Stats] {
            assert_eq!(
                read_frame(&mut stream, &mut buf, Request::decode).unwrap(),
                expect
            );
        }
        assert!(buf.is_empty(), "consumed frames leave the buffer");

        let cut = read_frame(&mut &ping[..5], &mut Vec::new(), Request::decode).unwrap_err();
        assert_eq!(cut.kind(), io::ErrorKind::UnexpectedEof);

        let garbage = read_frame(&mut &b"XXzzzzzz"[..], &mut Vec::new(), Request::decode);
        let garbage = garbage.unwrap_err();
        assert_eq!(garbage.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            garbage.to_string(),
            DecodeError::BadMagic(*b"XX").to_string()
        );

        // A frame larger than one read's room, arriving a little at a time.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let n = self.0.len().min(out.len()).min(1000);
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let big = Response::Stats {
            prometheus: "x".repeat(3 * READ_ROOM),
        };
        let bytes = big.encode();
        let mut buf = Vec::new();
        let got = read_frame(&mut Dribble(&bytes), &mut buf, Response::decode).unwrap();
        assert_eq!(got, big);
        assert!(buf.is_empty());

        // Whatever `decode` claims it needs, the buffer stops at one
        // maximal frame.
        let greedy = |buf: &[u8]| -> Result<((), usize), DecodeError> {
            Err(DecodeError::Torn {
                have: buf.len(),
                need: usize::MAX,
            })
        };
        let refused = read_frame(&mut io::repeat(0), &mut buf, greedy).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "refused before any allocation");
    }

    /// A bare header claiming `len` payload bytes.
    fn header(kind: u8, len: u32) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(&MAGIC);
        w.u8(WIRE_VERSION);
        w.u8(kind);
        w.u32(len);
        w.into_bytes()
    }

    #[test]
    fn oversized_rejected_before_allocation() {
        assert_eq!(
            Request::decode(&header(KIND_PING, MAX_PAYLOAD + 1)),
            Err(DecodeError::Oversized {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn garbage_headers_are_typed() {
        assert_eq!(
            Request::decode(b"XX\x01\x01\x00\x00\x00\x00"),
            Err(DecodeError::BadMagic(*b"XX"))
        );
        assert_eq!(
            Request::decode(b"SB\x63\x01\x00\x00\x00\x00"),
            Err(DecodeError::BadVersion(0x63))
        );
        assert_eq!(
            Request::decode(b"SB\x01\x7e\x00\x00\x00\x00"),
            Err(DecodeError::BadVersion(0x01)),
            "v1 (single-word truth) is rejected at the header"
        );
        assert_eq!(
            Request::decode(b"SB\x02\x7e\x00\x00\x00\x00"),
            Err(DecodeError::BadVersion(0x02)),
            "v2 (no trailers, no telemetry verbs) is rejected at the header"
        );
        assert_eq!(
            Request::decode(b"SB\x03\x7e\x00\x00\x00\x00"),
            Err(DecodeError::UnknownKind(0x7e))
        );
    }

    #[test]
    fn corrupt_payloads_are_typed() {
        // Submit frame whose count promises more specimens than the
        // payload holds.
        let mut payload = Writer::new();
        payload.u32(0);
        payload.u32(1000);
        assert_eq!(
            Request::decode(&frame(KIND_SUBMIT, payload)),
            Err(DecodeError::Corrupt("count exceeds payload"))
        );
        // Trailing bytes after a complete message.
        let mut bytes = header(KIND_PING, 1);
        bytes.push(0);
        assert_eq!(
            Request::decode(&bytes),
            Err(DecodeError::Corrupt("trailing bytes after message"))
        );
        // A shed-reason byte outside the known range.
        let mut payload = Writer::new();
        payload.u32(1);
        payload.u32(1);
        payload.u8(7);
        assert_eq!(
            Response::decode(&frame(KIND_ACCEPTED, payload)),
            Err(DecodeError::Corrupt("invalid shed reason byte"))
        );
    }

    fn sample_obs_frame() -> ObsFrame {
        let mut hist = LogHistogram::new();
        for v in [3u64, 70, 900, 900, 12_345, u64::MAX] {
            hist.record(v);
        }
        ObsFrame {
            process_tag: 0xFEED_BEEF,
            samples: vec![
                PromSample {
                    name: "sbgt_service_rounds_total".to_string(),
                    labels: vec![("tenant".to_string(), "7".to_string())],
                    value: 5.0,
                },
                PromSample {
                    name: "sbgt_tenant_slo_burn_rate".to_string(),
                    labels: vec![
                        ("tenant".to_string(), "3".to_string()),
                        ("shard".to_string(), "a\\b\"c\nd".to_string()),
                    ],
                    value: f64::INFINITY,
                },
            ],
            hists: vec![
                ObsHist {
                    name: "sbgt_service_round_latency_us".to_string(),
                    labels: vec![("tenant".to_string(), "7".to_string())],
                    hist,
                },
                ObsHist {
                    name: "sbgt_bp_sweeps".to_string(),
                    labels: vec![],
                    hist: LogHistogram::new(),
                },
            ],
            names: vec!["round".to_string(), "bp:sweep".to_string()],
            lanes: vec![
                ObsLane {
                    name: "worker-0".to_string(),
                    dropped: 3,
                    events: vec![SpanEvent {
                        name: 1,
                        kind: SpanKind::Mark,
                        start_ns: 10,
                        end_ns: 10,
                        value: 42,
                        meta: SpanMeta {
                            task: 2,
                            attempt: 1,
                            speculative: true,
                            failed: false,
                            cohort: 5,
                            seq: 9,
                        },
                    }],
                },
                ObsLane {
                    name: "worker-1".to_string(),
                    dropped: 0,
                    events: vec![],
                },
            ],
        }
    }

    /// A Submit payload with no specimens, then `trailers`.
    fn submit_with(trailers: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.u32(2); // tenant
        payload.u32(0); // no specimens
        trailers(&mut payload);
        frame(KIND_SUBMIT, payload)
    }

    #[test]
    fn trailer_decoding_is_fail_closed() {
        // Unknown trailer tag: rejected, not skipped.
        let bytes = submit_with(|p| {
            p.u8(1);
            p.u8(0x7F);
            p.u32(0);
        });
        assert_eq!(
            Request::decode(&bytes),
            Err(DecodeError::Corrupt("unknown trailer tag"))
        );
        // Trace trailer with the wrong length.
        let bytes = submit_with(|p| {
            p.u8(1);
            p.u8(TRAILER_TRACE);
            p.u32(8);
            p.u64(1);
        });
        assert_eq!(
            Request::decode(&bytes),
            Err(DecodeError::Corrupt("trace trailer has wrong length"))
        );
        // Duplicate trace trailer.
        let bytes = submit_with(|p| {
            p.u8(2);
            for _ in 0..2 {
                p.u8(TRAILER_TRACE);
                p.u32(16);
                p.u64(1);
                p.u64(2);
            }
        });
        assert_eq!(
            Request::decode(&bytes),
            Err(DecodeError::Corrupt("duplicate trace trailer"))
        );
        // Missing trailer block entirely (a v2-shaped Submit payload):
        // typed Corrupt, not a misparse.
        assert!(matches!(
            Request::decode(&submit_with(|_| {})),
            Err(DecodeError::Corrupt(_))
        ));
    }

    /// An ObsFrame payload: process tag, then the four counted sections
    /// as `sections` writes them.
    fn obs_frame_with(sections: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut payload = Writer::new();
        payload.u64(0); // process_tag
        sections(&mut payload);
        frame(KIND_OBS_FRAME, payload)
    }

    #[test]
    fn tampered_obs_frames_are_typed() {
        // Histogram bucket index out of range.
        let bytes = obs_frame_with(|p| {
            p.u32(0); // samples
            p.u32(1); // one hist
            put_str(p, "h");
            p.u32(0); // labels
            p.u32(1); // one bucket pair
            p.u32(BUCKET_COUNT as u32); // index past the end
            p.u64(1);
            p.u64s(&[1, 1, 1]); // sum, min, max
            p.u32(0); // names
            p.u32(0); // lanes
        });
        assert_eq!(
            Response::decode(&bytes),
            Err(DecodeError::Corrupt("histogram bucket index out of range"))
        );
        // Scalars inconsistent with the buckets (empty buckets, sum 5):
        // LogHistogram::from_raw_parts fails closed.
        let bytes = obs_frame_with(|p| {
            p.u32(0);
            p.u32(1);
            put_str(p, "h");
            p.u32(0);
            p.u32(0); // no bucket pairs
            p.u64s(&[5, u64::MAX, 0]); // but sum claims samples
            p.u32(0);
            p.u32(0);
        });
        assert_eq!(
            Response::decode(&bytes),
            Err(DecodeError::Corrupt("inconsistent histogram"))
        );
        // Span event with an invalid kind byte.
        let bytes = obs_frame_with(|p| {
            p.u32(0);
            p.u32(0);
            p.u32(0);
            p.u32(1); // one lane
            put_str(p, "lane");
            p.u64(0); // dropped
            p.u32(1); // one event
            p.u32(0); // name id
            p.u8(7); // kind byte past Counter
            p.raw(&[0; EVENT_WIRE_LEN - 5]);
        });
        assert_eq!(
            Response::decode(&bytes),
            Err(DecodeError::Corrupt("invalid span kind byte"))
        );
        // Non-UTF-8 metric name.
        let bytes = obs_frame_with(|p| {
            p.u32(1); // one sample
            p.bytes(&[0xFF, 0xFE]);
            p.u32(0);
            p.f64(1.0);
            p.u32(0);
            p.u32(0);
            p.u32(0);
        });
        assert_eq!(
            Response::decode(&bytes),
            Err(DecodeError::Corrupt("string is not UTF-8"))
        );
    }

    mod trailer_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Trace trailers round-trip for arbitrary contexts on every
            /// work-carrying verb.
            #[test]
            fn trace_trailers_round_trip(
                trace_id in any::<u64>(),
                parent in any::<u64>(),
                present in any::<bool>(),
            ) {
                let trace = present.then_some(TraceContext { trace_id, parent_span: parent });
                let requests = [
                    Request::Submit { tenant: 1, specimens: vec![], trace },
                    Request::Handoff { checkpoints: vec![vec![1]], trace },
                ];
                for request in requests {
                    let (decoded, _) = Request::decode(&request.encode()).unwrap();
                    prop_assert_eq!(decoded, request);
                }
            }
        }
    }
}
