//! The wire protocol: length-prefixed, versioned, CRC-guarded frames.
//!
//! On-the-wire frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length in bytes (u32)
//! 4       4     protocol version (u32)
//! 8       4     CRC-32 (IEEE) over length ‖ version ‖ payload (u32)
//! 12      n     payload: one kind byte, then that kind's body
//! ```
//!
//! The CRC covers the length and version fields as well as the payload, so
//! a bit flip anywhere in the frame is detected — the same discipline as
//! `cqm-persist`'s journal records, applied to a socket instead of a file.
//! A foreign version is believed only once the CRC vouches for it: a flip
//! in the version word is corruption, not version skew.
//!
//! Payload layout. The classify frames have a fixed little-endian layout
//! that carries every `f64` as its raw bits, so a served quality value is
//! the in-process one bit for bit by construction. The control frames
//! carry JSON bodies.
//!
//! ```text
//! kind  message                       body
//! 0x01  Request::Classify             id tenant cues
//! 0x02  Request::ClassifyBatch        id tenant u32:rows, rows × cues
//! 0x03  Request::Snapshot             (empty)
//! 0x04  Request::Health               (empty)
//! 0x05  Request::Shutdown             (empty)
//! 0x81  Response::Classified          answer
//! 0x82  Response::ClassifiedBatch     u32:count, count × answer
//! 0x83  Response::ClassifiedDegraded  answer
//! 0x84  Response::Snapshot            JSON of SnapshotInfo
//! 0x85  Response::Health              JSON of ServerHealth
//! 0x86  Response::ShuttingDown        (empty)
//! 0x87  Response::Error               JSON of WireError
//!
//! id      u64:session u64:request
//! tenant  u8:0 (None) | u8:1 u32:len, len × UTF-8 byte
//! cues    u32:len, len × f64 bits (u64)
//! answer  u64:class u8:quality tag (0 = ε, 1 = value) u64:f64 bits (0 for ε)
//!         u8:decision (0 = discard, 1 = accept)
//! ```
//!
//! Request and response kinds are disjoint, so a frame read in the wrong
//! direction is a typed decode error. Each cue row carries its own length,
//! so a ragged batch still reaches the engine, which refuses it with a
//! typed `BadRequest`. Every count and length is checked against the bytes
//! left in the payload before anything is allocated for it, and leftover
//! bytes are refused. The encoder refuses non-finite cues with
//! [`ServeError::Decode`], locally and before any round trip, because no
//! engine would accept them.
//!
//! Reading distinguishes three non-frame outcomes, all typed and none a
//! panic: a clean EOF before any header byte ([`FrameRead::Eof`], the peer
//! hung up between frames), a read timeout before any header byte
//! ([`FrameRead::Idle`], nothing in flight — the server's shutdown poll
//! tick), and everything else — torn headers, truncated payloads, CRC
//! mismatches, impossible lengths — as [`ServeError`] values.
//!
//! A reader asks for the header and the payload in two reads, which on a
//! bare socket are two `recv` calls per frame. The server session and the
//! client therefore read through a per-connection `BufReader`, where one
//! `recv` usually brings in the whole frame.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cqm_core::classifier::ClassId;
use cqm_core::filter::Decision;
use cqm_core::normalize::Quality;
use cqm_core::pipeline::QualifiedClassification;
use cqm_persist::crc32::Crc32;

use crate::{Result, ServeError};

/// Current protocol version, stamped into every frame.
///
/// Version history:
///
/// * **1** — PR 5: anonymous `Classify`/`ClassifyBatch` requests.
/// * **2** — PR 7: classify requests carry a client-assigned
///   [`RequestId`] so retries are idempotent; responses gained
///   [`Response::ClassifiedDegraded`] (a last-good answer served in
///   Failsafe, flagged as degraded on the wire); [`ServerHealth`] gained
///   the dedup/ladder counters.
/// * **3** — PR 8: classify requests carry an optional tenant key routed
///   through the model registry (`None` = the default tenant); errors
///   gained [`WireErrorKind::UnsupportedVersion`] and
///   [`WireErrorKind::TenantQuarantined`]; [`ServerHealth`] gained the
///   fleet counters. v2 `Classify` frames omit the tenant field, which
///   would decode as `None` here — semantically compatible — but the
///   dedup-window and degraded-answer semantics are keyed per tenant now,
///   so cross-version traffic is refused outright (see
///   [`MIN_PROTOCOL_VERSION`]) rather than half-supported.
/// * **4** — release 0.11.0: every payload starts with a kind byte; the
///   classify frames (`Classify`, `ClassifyBatch`, `Classified`,
///   `ClassifiedBatch`, `ClassifiedDegraded`) drop JSON for the fixed
///   binary layout in the module docs, and the control frames keep JSON
///   bodies. No JSON classify frame decodes any more, so v3 peers are
///   refused.
pub const PROTOCOL_VERSION: u32 = 4;

/// Oldest protocol version this build still accepts. Frames older than
/// this (and newer than [`PROTOCOL_VERSION`]) are rejected with a typed
/// [`ServeError::ProtocolVersion`] — before any payload allocation, once
/// the CRC has confirmed the version word — which the server answers with
/// a [`WireErrorKind::UnsupportedVersion`] goodbye instead of hanging.
pub const MIN_PROTOCOL_VERSION: u32 = 4;

/// Bytes before the payload: length, version, CRC.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 4;

/// Refuse frames beyond this payload size (a corrupt or hostile length
/// field must not turn into an OOM): 16 MiB.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Consecutive mid-frame read timeouts tolerated before the peer is
/// declared gone. Only reachable on sockets with a read timeout set (the
/// server polls at ~50 ms, so this is roughly a five-second stall budget).
///
/// This counter resets on any byte of progress, so on its own it does not
/// stop a slow-loris peer trickling one byte per poll interval; the
/// overall frame deadline of [`read_frame_within`] is the real defense,
/// and this is the backstop for callers without one.
const MAX_MID_FRAME_STALLS: u32 = 100;

/// Payload kind bytes: requests below 0x80, responses above.
mod kind {
    pub const CLASSIFY: u8 = 0x01;
    pub const CLASSIFY_BATCH: u8 = 0x02;
    pub const SNAPSHOT: u8 = 0x03;
    pub const HEALTH: u8 = 0x04;
    pub const SHUTDOWN: u8 = 0x05;
    pub const CLASSIFIED: u8 = 0x81;
    pub const CLASSIFIED_BATCH: u8 = 0x82;
    pub const CLASSIFIED_DEGRADED: u8 = 0x83;
    pub const SNAPSHOT_INFO: u8 = 0x84;
    pub const HEALTH_REPORT: u8 = 0x85;
    pub const SHUTTING_DOWN: u8 = 0x86;
    pub const ERROR: u8 = 0x87;
}

const TENANT_NONE: u8 = 0;
const TENANT_SOME: u8 = 1;
const QUALITY_EPSILON: u8 = 0;
const QUALITY_VALUE: u8 = 1;
const DECISION_DISCARD: u8 = 0;
const DECISION_ACCEPT: u8 = 1;

/// Encoded size of one answer: class, quality tag, quality bits, decision.
const ANSWER_LEN: usize = 8 + 1 + 8 + 1;

/// A parsed frame header, CRC not yet verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Protocol version the frame was written with.
    pub version: u32,
    /// CRC-32 over length ‖ version ‖ payload.
    pub crc: u32,
}

/// A client-assigned idempotency key: `(session, request)`.
///
/// The client owns both halves — `session` is unique per client instance,
/// `request` increments per logical call — and a retry *reuses* the id of
/// the call it retries. The server's dedup window keys on the pair, so a
/// request whose answer was lost in transit is replayed from cache rather
/// than executed twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// The issuing client session (unique per client instance).
    pub session: u64,
    /// Monotone per-session call counter.
    pub request: u64,
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.session, self.request)
    }
}

/// What a client asks the service.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one cue vector.
    Classify {
        /// Idempotency key; retries reuse it.
        id: RequestId,
        /// Which tenant's model answers; `None` routes to the default
        /// tenant.
        tenant: Option<String>,
        /// The cue vector `v_C`.
        cues: Vec<f64>,
    },
    /// Classify a batch atomically: all rows answer or none do.
    ClassifyBatch {
        /// Idempotency key; retries reuse it.
        id: RequestId,
        /// Which tenant's model answers; `None` routes to the default
        /// tenant.
        tenant: Option<String>,
        /// One cue vector per row.
        rows: Vec<Vec<f64>>,
    },
    /// Describe the model being served.
    Snapshot,
    /// Report server load counters.
    Health,
    /// Ask the server to drain and stop.
    Shutdown,
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Classify`].
    Classified {
        /// Class, quality and filter verdict.
        result: QualifiedClassification,
    },
    /// Answer to [`Request::ClassifyBatch`].
    ClassifiedBatch {
        /// One result per request row, in request order.
        results: Vec<QualifiedClassification>,
    },
    /// A *degraded* answer to [`Request::Classify`]: the server is in
    /// Failsafe and serves its last known-good classification instead of
    /// evaluating. The degradation is typed on the wire — a consumer can
    /// (and should) treat this with the suspicion the quality measure
    /// exists to encode, rather than mistake it for a fresh answer.
    ClassifiedDegraded {
        /// The last fresh classification the server produced.
        result: QualifiedClassification,
    },
    /// Answer to [`Request::Snapshot`].
    Snapshot {
        /// The served model's description.
        info: SnapshotInfo,
    },
    /// Answer to [`Request::Health`].
    Health {
        /// Load counters at the time of the request.
        health: ServerHealth,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Any request the server could not serve, with a typed reason.
    Error {
        /// Why the request failed.
        error: WireError,
    },
}

/// Why a request failed, in vocabulary a client can act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireErrorKind {
    /// The bounded queue was full and admission control rejected the
    /// request. Retryable.
    Overloaded,
    /// The request itself was unserviceable (wrong cue dimension,
    /// non-finite cues, uncovered input, malformed frame). Not retryable.
    BadRequest,
    /// The server failed internally. Not the client's fault.
    Internal,
    /// The server is draining; no new work is admitted. Not retryable on
    /// this server instance.
    ShuttingDown,
    /// The peer spoke a protocol version outside
    /// [`MIN_PROTOCOL_VERSION`]..=[`PROTOCOL_VERSION`]. Not retryable on
    /// this connection; upgrade (or downgrade) the client.
    UnsupportedVersion,
    /// The addressed tenant's model is quarantined (its checkpoint failed
    /// to load and the per-tenant breaker is open). Retryable after the
    /// breaker cooldown; peers are unaffected.
    TenantQuarantined,
}

/// A typed error shipped back over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-actionable category.
    pub kind: WireErrorKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl WireError {
    /// An admission-control rejection.
    pub fn overloaded() -> Self {
        WireError {
            kind: WireErrorKind::Overloaded,
            detail: "request queue full".into(),
        }
    }

    /// A request the server refuses on its merits.
    pub fn bad_request(detail: impl Into<String>) -> Self {
        WireError {
            kind: WireErrorKind::BadRequest,
            detail: detail.into(),
        }
    }

    /// A server-side failure.
    pub fn internal(detail: impl Into<String>) -> Self {
        WireError {
            kind: WireErrorKind::Internal,
            detail: detail.into(),
        }
    }

    /// The drain-phase refusal.
    pub fn shutting_down() -> Self {
        WireError {
            kind: WireErrorKind::ShuttingDown,
            detail: "server is draining".into(),
        }
    }

    /// The version-negotiation refusal, naming the offending version and
    /// the window this build accepts.
    pub fn unsupported_version(found: u32) -> Self {
        WireError {
            kind: WireErrorKind::UnsupportedVersion,
            detail: format!(
                "frame version {found} outside supported \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}"
            ),
        }
    }

    /// The bulkhead refusal for a quarantined tenant.
    pub fn tenant_quarantined(tenant: &str, reason: impl Into<String>) -> Self {
        WireError {
            kind: WireErrorKind::TenantQuarantined,
            detail: format!("tenant {tenant:?} quarantined: {}", reason.into()),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            WireErrorKind::Overloaded => "overloaded",
            WireErrorKind::BadRequest => "bad request",
            WireErrorKind::Internal => "internal",
            WireErrorKind::ShuttingDown => "shutting down",
            WireErrorKind::UnsupportedVersion => "unsupported version",
            WireErrorKind::TenantQuarantined => "tenant quarantined",
        };
        write!(f, "{kind}: {}", self.detail)
    }
}

/// Description of the model a server is holding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Checkpoint sequence the server started from (0 = fresh).
    pub checkpoint_seq: u64,
    /// Whether the model came from a checkpoint rather than a fresh load.
    pub warm_started: bool,
    /// Cue dimensionality `n` the model expects.
    pub cue_dim: usize,
    /// Number of context classes the classifier can emit.
    pub num_classes: usize,
    /// The quality filter's operating threshold.
    pub threshold: f64,
    /// Provenance note carried by the model.
    pub note: String,
}

/// Server load counters, as answered to [`Request::Health`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerHealth {
    /// Requests admitted into the queue.
    pub requests: u64,
    /// Cue rows successfully classified.
    pub rows_classified: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Admitted requests later evicted by [`DropOldest`].
    ///
    /// [`DropOldest`]: crate::queue::AdmissionPolicy::DropOldest
    pub shed: u64,
    /// Deepest the queue has been.
    pub queue_highwater: u64,
    /// Sessions that ended on a protocol or I/O error.
    pub session_errors: u64,
    /// Retried requests answered from the dedup window instead of being
    /// re-executed.
    pub dedup_hits: u64,
    /// Requests the server executed more than once. The exactly-once
    /// invariant is precisely "this stays 0"; the chaos soak asserts it.
    pub duplicate_executions: u64,
    /// Failsafe answers served from the last-good cache, flagged as
    /// [`Response::ClassifiedDegraded`] on the wire.
    pub degraded_served: u64,
    /// Current degradation-ladder state (`"healthy"`, `"degraded"`,
    /// `"failsafe"`, `"recovering"`), or `None` when no ladder is
    /// configured.
    pub ladder: Option<String>,
    /// Execution permits: how many sessions may evaluate queued work at
    /// once.
    pub workers: usize,
    /// Whether the server is draining toward shutdown.
    pub draining: bool,
    /// Tenants known to the registry (active + cold + quarantined).
    pub tenants: u64,
    /// Tenants currently quarantined.
    pub tenants_quarantined: u64,
    /// Models loaded from the checkpoint store (cold → active).
    pub warm_loads: u64,
    /// Active models evicted back to their checkpoints by the LRU.
    pub evictions: u64,
    /// Hot swaps that flipped a tenant's routing slot.
    pub swaps: u64,
    /// Hot swaps that failed validation and rolled back to last-good.
    pub swap_rollbacks: u64,
    /// Requests shed by a per-tenant admission budget (the global queue
    /// counters above are untouched by these).
    pub tenant_overloads: u64,
    /// Requests answered with [`WireErrorKind::TenantQuarantined`].
    pub quarantined_answers: u64,
    /// Connections refused for speaking an unsupported protocol version.
    pub version_rejections: u64,
}

/// A message that travels as a frame payload: [`Request`] or [`Response`].
pub trait Message: Sized {
    /// Append this message's payload — kind byte and body — to `out`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Decode`] if the message cannot be represented: a
    ///   non-finite cue, or a control body that does not serialize;
    /// * [`ServeError::FrameTooLarge`] if a count or length overflows its
    ///   `u32` field.
    fn write_payload(&self, out: &mut Vec<u8>) -> Result<()>;

    /// Decode a CRC-verified payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Decode`] if the payload is not exactly one message of
    /// this type.
    fn read_payload(payload: &[u8]) -> Result<Self>;
}

impl Message for Request {
    fn write_payload(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Request::Classify { id, tenant, cues } => {
                out.push(kind::CLASSIFY);
                put_id(out, id);
                put_tenant(out, tenant.as_deref())?;
                put_cues(out, cues)?;
            }
            Request::ClassifyBatch { id, tenant, rows } => {
                out.push(kind::CLASSIFY_BATCH);
                put_id(out, id);
                put_tenant(out, tenant.as_deref())?;
                put_len(out, rows.len())?;
                for row in rows {
                    put_cues(out, row)?;
                }
            }
            Request::Snapshot => out.push(kind::SNAPSHOT),
            Request::Health => out.push(kind::HEALTH),
            Request::Shutdown => out.push(kind::SHUTDOWN),
        }
        Ok(())
    }

    fn read_payload(payload: &[u8]) -> Result<Self> {
        let mut r = Reader { rest: payload };
        let request = match r.u8("kind")? {
            kind::CLASSIFY => Request::Classify {
                id: r.id()?,
                tenant: r.tenant()?,
                cues: r.cues()?,
            },
            kind::CLASSIFY_BATCH => Request::ClassifyBatch {
                id: r.id()?,
                tenant: r.tenant()?,
                rows: r.rows()?,
            },
            kind::SNAPSHOT => Request::Snapshot,
            kind::HEALTH => Request::Health,
            kind::SHUTDOWN => Request::Shutdown,
            other => return Err(malformed(format!("unknown request kind {other:#04x}"))),
        };
        r.finish(request)
    }
}

impl Message for Response {
    fn write_payload(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Response::Classified { result } => {
                out.push(kind::CLASSIFIED);
                put_answer(out, result);
            }
            Response::ClassifiedBatch { results } => {
                out.push(kind::CLASSIFIED_BATCH);
                put_len(out, results.len())?;
                out.reserve(results.len().saturating_mul(ANSWER_LEN));
                results.iter().for_each(|result| put_answer(out, result));
            }
            Response::ClassifiedDegraded { result } => {
                out.push(kind::CLASSIFIED_DEGRADED);
                put_answer(out, result);
            }
            Response::Snapshot { info } => {
                out.push(kind::SNAPSHOT_INFO);
                put_json(out, info)?;
            }
            Response::Health { health } => {
                out.push(kind::HEALTH_REPORT);
                put_json(out, health)?;
            }
            Response::ShuttingDown => out.push(kind::SHUTTING_DOWN),
            Response::Error { error } => {
                out.push(kind::ERROR);
                put_json(out, error)?;
            }
        }
        Ok(())
    }

    fn read_payload(payload: &[u8]) -> Result<Self> {
        let mut r = Reader { rest: payload };
        let response = match r.u8("kind")? {
            kind::CLASSIFIED => Response::Classified {
                result: r.answer()?,
            },
            kind::CLASSIFIED_BATCH => Response::ClassifiedBatch {
                results: r.answers()?,
            },
            kind::CLASSIFIED_DEGRADED => Response::ClassifiedDegraded {
                result: r.answer()?,
            },
            kind::SNAPSHOT_INFO => Response::Snapshot { info: r.json()? },
            kind::HEALTH_REPORT => Response::Health { health: r.json()? },
            kind::SHUTTING_DOWN => Response::ShuttingDown,
            kind::ERROR => Response::Error { error: r.json()? },
            other => return Err(malformed(format!("unknown response kind {other:#04x}"))),
        };
        r.finish(response)
    }
}

fn malformed(detail: String) -> ServeError {
    ServeError::Decode(format!("malformed payload: {detail}"))
}

fn too_large(len: u64) -> ServeError {
    ServeError::FrameTooLarge {
        len,
        max: u64::from(MAX_FRAME_LEN),
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A count or length in its `u32` field.
fn put_len(out: &mut Vec<u8>, len: usize) -> Result<()> {
    let field = u32::try_from(len).map_err(|_| too_large(len as u64))?;
    out.extend_from_slice(&field.to_le_bytes());
    Ok(())
}

fn put_id(out: &mut Vec<u8>, id: &RequestId) {
    put_u64(out, id.session);
    put_u64(out, id.request);
}

fn put_tenant(out: &mut Vec<u8>, tenant: Option<&str>) -> Result<()> {
    match tenant {
        None => out.push(TENANT_NONE),
        Some(key) => {
            out.push(TENANT_SOME);
            put_len(out, key.len())?;
            out.extend_from_slice(key.as_bytes());
        }
    }
    Ok(())
}

fn put_cues(out: &mut Vec<u8>, cues: &[f64]) -> Result<()> {
    put_len(out, cues.len())?;
    out.reserve(cues.len().saturating_mul(8));
    for &x in cues {
        if !x.is_finite() {
            return Err(ServeError::Decode(format!(
                "cue {x} is not finite; the protocol carries finite cues only"
            )));
        }
        put_u64(out, x.to_bits());
    }
    Ok(())
}

fn put_answer(out: &mut Vec<u8>, answer: &QualifiedClassification) {
    put_u64(out, answer.class.0 as u64);
    let (tag, bits) = match answer.quality {
        Quality::Value(q) => (QUALITY_VALUE, q.to_bits()),
        Quality::Epsilon => (QUALITY_EPSILON, 0),
    };
    out.push(tag);
    put_u64(out, bits);
    out.push(match answer.decision {
        Decision::Accept => DECISION_ACCEPT,
        Decision::Discard => DECISION_DISCARD,
    });
}

fn put_json<T: Serialize>(out: &mut Vec<u8>, body: &T) -> Result<()> {
    let text = serde_json::to_string(body).map_err(|e| ServeError::Decode(e.to_string()))?;
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

/// A cursor over a CRC-verified payload. Every read is bounds-checked, and
/// every count is checked against the bytes left before anything is
/// allocated for it, so a hostile count is a typed error, never an OOM.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let Some((head, tail)) = self.rest.split_at_checked(n) else {
            return Err(malformed(format!(
                "{what} needs {n} bytes, {} left",
                self.rest.len()
            )));
        };
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(malformed(format!(
                "{what} needs {N} bytes, {} left",
                self.rest.len()
            )));
        };
        self.rest = tail;
        Ok(*head)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A `u32` count of items of at least `item_len` bytes each, refused
    /// unless the rest of the payload could hold that many.
    fn count(&mut self, what: &str, item_len: usize) -> Result<usize> {
        let n = u32::from_le_bytes(self.array(what)?) as usize;
        match n.checked_mul(item_len) {
            Some(need) if need <= self.rest.len() => Ok(n),
            _ => Err(malformed(format!(
                "{what} {n} needs more than the {} bytes left",
                self.rest.len()
            ))),
        }
    }

    fn id(&mut self) -> Result<RequestId> {
        Ok(RequestId {
            session: self.u64("session id")?,
            request: self.u64("request id")?,
        })
    }

    fn tenant(&mut self) -> Result<Option<String>> {
        match self.u8("tenant tag")? {
            TENANT_NONE => Ok(None),
            TENANT_SOME => {
                let len = self.count("tenant length", 1)?;
                let key = std::str::from_utf8(self.take(len, "tenant")?)
                    .map_err(|e| malformed(format!("tenant is not UTF-8: {e}")))?;
                Ok(Some(key.to_owned()))
            }
            tag => Err(malformed(format!("unknown tenant tag {tag:#04x}"))),
        }
    }

    fn cues(&mut self) -> Result<Vec<f64>> {
        let n = self.count("cue count", 8)?;
        let (words, _) = self.take(n * 8, "cues")?.as_chunks::<8>();
        Ok(words
            .iter()
            .map(|&word| f64::from_bits(u64::from_le_bytes(word)))
            .collect())
    }

    fn rows(&mut self) -> Result<Vec<Vec<f64>>> {
        // Every row holds at least its own 4-byte length.
        let n = self.count("row count", 4)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.cues()?);
        }
        Ok(rows)
    }

    fn answer(&mut self) -> Result<QualifiedClassification> {
        let class = self.u64("class")?;
        let class = usize::try_from(class)
            .map_err(|_| malformed(format!("class {class} does not fit this platform")))?;
        let quality = match (self.u8("quality tag")?, self.u64("quality bits")?) {
            (QUALITY_VALUE, bits) => Quality::Value(f64::from_bits(bits)),
            (QUALITY_EPSILON, 0) => Quality::Epsilon,
            (tag, bits) => {
                return Err(malformed(format!(
                    "bad quality tag {tag:#04x} with bits {bits:#018x}"
                )))
            }
        };
        let decision = match self.u8("decision")? {
            DECISION_ACCEPT => Decision::Accept,
            DECISION_DISCARD => Decision::Discard,
            tag => return Err(malformed(format!("unknown decision tag {tag:#04x}"))),
        };
        Ok(QualifiedClassification {
            class: ClassId(class),
            quality,
            decision,
        })
    }

    fn answers(&mut self) -> Result<Vec<QualifiedClassification>> {
        let n = self.count("answer count", ANSWER_LEN)?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(self.answer()?);
        }
        Ok(answers)
    }

    /// The rest of the payload as one JSON body.
    fn json<T: Deserialize>(&mut self) -> Result<T> {
        let text = std::str::from_utf8(std::mem::take(&mut self.rest))
            .map_err(|e| malformed(format!("control body is not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| ServeError::Decode(e.to_string()))
    }

    fn finish<T>(self, message: T) -> Result<T> {
        if self.rest.is_empty() {
            Ok(message)
        } else {
            Err(malformed(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

/// CRC-32 over length ‖ version ‖ payload, as stored in the header.
fn frame_crc(payload_len: u32, version: u32, payload: &[u8]) -> Crc32 {
    let mut crc = Crc32::new();
    crc.update(&payload_len.to_le_bytes());
    crc.update(&version.to_le_bytes());
    crc.update(payload);
    crc
}

fn verify_crc(header: &FrameHeader, actual: u32) -> Result<()> {
    if actual == header.crc {
        Ok(())
    } else {
        Err(ServeError::Protocol(format!(
            "frame CRC mismatch (stored {:#010x}, computed {actual:#010x})",
            header.crc
        )))
    }
}

/// Encode one message as a complete frame.
///
/// # Errors
///
/// * [`ServeError::Decode`] if the message cannot be represented (see
///   [`Message::write_payload`]);
/// * [`ServeError::FrameTooLarge`] if the payload exceeds
///   [`MAX_FRAME_LEN`].
pub fn encode_frame<T: Message>(msg: &T) -> Result<Vec<u8>> {
    encode_frame_with_version(PROTOCOL_VERSION, msg)
}

/// Encode one message as a frame stamped with an explicit `version` — the
/// cross-version test surface (build the frames an older or newer peer
/// would send) and the version-rejection goodbye path (a goodbye stamped
/// with *our* version so the peer's own header check types the mismatch).
///
/// # Errors
///
/// Same conditions as [`encode_frame`].
pub fn encode_frame_with_version<T: Message>(version: u32, msg: &T) -> Result<Vec<u8>> {
    let mut frame = vec![0; FRAME_HEADER_LEN];
    msg.write_payload(&mut frame)?;
    seal(version, frame)
}

/// Fill in the header of `frame`, whose payload follows
/// [`FRAME_HEADER_LEN`] placeholder bytes.
fn seal(version: u32, mut frame: Vec<u8>) -> Result<Vec<u8>> {
    let Some((head, payload)) = frame.split_first_chunk_mut::<FRAME_HEADER_LEN>() else {
        return Err(ServeError::Protocol("frame shorter than its header".into()));
    };
    let payload_len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| too_large(payload.len() as u64))?;
    let crc = frame_crc(payload_len, version, payload).finalize();
    head[..4].copy_from_slice(&payload_len.to_le_bytes());
    head[4..8].copy_from_slice(&version.to_le_bytes());
    head[8..].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Frame an arbitrary payload, valid CRC included — the test surface for
/// hand-built and hostile payloads the encoder would never write.
#[cfg(test)]
pub(crate) fn frame_raw_payload(version: u32, payload: &[u8]) -> Result<Vec<u8>> {
    let mut frame = vec![0; FRAME_HEADER_LEN];
    frame.extend_from_slice(payload);
    seal(version, frame)
}

impl FrameHeader {
    fn from_bytes(bytes: &[u8; FRAME_HEADER_LEN]) -> FrameHeader {
        let [l0, l1, l2, l3, v0, v1, v2, v3, c0, c1, c2, c3] = *bytes;
        FrameHeader {
            payload_len: u32::from_le_bytes([l0, l1, l2, l3]),
            version: u32::from_le_bytes([v0, v1, v2, v3]),
            crc: u32::from_le_bytes([c0, c1, c2, c3]),
        }
    }
}

/// Parse and sanity-check a frame header.
///
/// # Errors
///
/// * [`ServeError::FrameTooLarge`] on a length beyond [`MAX_FRAME_LEN`]
///   (rejected before any allocation);
/// * [`ServeError::ProtocolVersion`] on a frame outside
///   [`MIN_PROTOCOL_VERSION`]..=[`PROTOCOL_VERSION`], in either direction.
///   The header alone cannot tell version skew from a corrupted version
///   word; [`read_frame_within`] checks the CRC before it reports one.
pub fn parse_header(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<FrameHeader> {
    let header = FrameHeader::from_bytes(bytes);
    if header.payload_len > MAX_FRAME_LEN {
        return Err(too_large(u64::from(header.payload_len)));
    }
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&header.version) {
        return Err(ServeError::ProtocolVersion {
            found: header.version,
            supported: PROTOCOL_VERSION,
        });
    }
    Ok(header)
}

/// Verify the CRC and decode the payload.
///
/// # Errors
///
/// * [`ServeError::Protocol`] on CRC mismatch;
/// * [`ServeError::Decode`] if the intact payload is not a `T`.
pub fn decode_payload<T: Message>(header: &FrameHeader, payload: &[u8]) -> Result<T> {
    verify_crc(
        header,
        frame_crc(header.payload_len, header.version, payload).finalize(),
    )?;
    T::read_payload(payload)
}

/// Write one message as a frame and flush it.
///
/// # Errors
///
/// Same conditions as [`encode_frame`], plus [`ServeError::Io`] on the
/// socket write.
pub fn write_frame<W: Write, T: Message>(w: &mut W, msg: &T) -> Result<()> {
    let bytes = encode_frame(msg)?;
    w.write_all(&bytes)
        .map_err(|e| ServeError::io("writing frame", &e))?;
    w.flush().map_err(|e| ServeError::io("flushing frame", &e))
}

/// Outcome of one read attempt.
#[derive(Debug)]
pub enum FrameRead<T> {
    /// A complete, CRC-verified, decoded frame.
    Frame(T),
    /// Clean EOF before any header byte: the peer hung up between frames.
    Eof,
    /// Read timeout before any header byte: nothing in flight. Only
    /// reachable on sockets with a read timeout configured.
    Idle,
}

/// How far a fill got.
enum Fill {
    Done,
    Eof { got: usize },
    Idle,
}

/// Read exactly `buf.len()` bytes, tolerating interrupts and bounded
/// mid-frame stalls. `started` says whether earlier bytes of this frame
/// were already consumed (a timeout then is a stall, not idleness).
///
/// `deadline` is the shared per-frame deadline: it is armed from `budget`
/// the moment the first byte of the frame has been consumed (never while
/// idling between frames) and then carried across the header and payload
/// fills, so a peer cannot reset the clock with one byte of progress.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    started: bool,
    budget: Option<Duration>,
    deadline: &mut Option<Instant>,
) -> Result<Fill> {
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < buf.len() {
        if started || got > 0 {
            if deadline.is_none() {
                *deadline = budget.map(|b| Instant::now() + b);
            }
            if let Some(d) = *deadline {
                if Instant::now() >= d {
                    return Err(ServeError::Protocol(
                        "torn frame: per-frame deadline exceeded mid-frame".into(),
                    ));
                }
            }
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(Fill::Eof { got }),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if got == 0 && !started {
                    return Ok(Fill::Idle);
                }
                stalls += 1;
                if stalls >= MAX_MID_FRAME_STALLS {
                    return Err(ServeError::Protocol(
                        "torn frame: peer stalled mid-frame".into(),
                    ));
                }
            }
            Err(e) => return Err(ServeError::io("reading frame", &e)),
        }
    }
    Ok(Fill::Done)
}

/// Fill `buf` with the payload bytes that follow the `before` already
/// read; anything short of the whole buffer is a torn frame.
fn fill_payload<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    before: usize,
    header: &FrameHeader,
    budget: Option<Duration>,
    deadline: &mut Option<Instant>,
) -> Result<()> {
    match fill(r, buf, true, budget, deadline)? {
        Fill::Done => Ok(()),
        Fill::Eof { got } => Err(ServeError::Protocol(format!(
            "torn frame: EOF after {} of {} payload bytes",
            before + got,
            header.payload_len
        ))),
        // Unreachable with started=true, but typed rather than asserted.
        Fill::Idle => Err(ServeError::Protocol(
            "torn frame: peer stalled before payload".into(),
        )),
    }
}

/// Read and discard the payload of a frame this build will not decode,
/// through a fixed stack buffer, checking its CRC on the way. The length
/// already passed the [`MAX_FRAME_LEN`] cap, so the drain is bounded.
fn drain_checked<R: Read>(
    r: &mut R,
    header: &FrameHeader,
    budget: Option<Duration>,
    deadline: &mut Option<Instant>,
) -> Result<()> {
    let mut crc = frame_crc(header.payload_len, header.version, &[]);
    let total = header.payload_len as usize;
    let mut done = 0usize;
    let mut scratch = [0u8; 4096];
    while done < total {
        let take = (total - done).min(scratch.len());
        let (chunk, _) = scratch.split_at_mut(take);
        fill_payload(r, chunk, done, header, budget, deadline)?;
        crc.update(chunk);
        done += chunk.len();
    }
    verify_crc(header, crc.finalize())
}

/// Read one frame, distinguishing idle and EOF from corruption.
///
/// Equivalent to [`read_frame_within`] with no frame deadline: the only
/// stall defense is the [`MAX_MID_FRAME_STALLS`] backstop.
///
/// # Errors
///
/// * [`ServeError::Protocol`] on a torn header or payload (EOF or a stall
///   mid-frame) and on CRC mismatch;
/// * [`ServeError::FrameTooLarge`] / [`ServeError::ProtocolVersion`] /
///   [`ServeError::Decode`] as for [`parse_header`] and
///   [`decode_payload`];
/// * [`ServeError::Io`] on any other socket failure.
pub fn read_frame<R: Read, T: Message>(r: &mut R) -> Result<FrameRead<T>> {
    read_frame_within(r, None)
}

/// Read one frame with an overall per-frame deadline — the slow-loris
/// defense.
///
/// The clock starts when the first byte of a frame arrives (idling
/// between frames costs nothing) and covers the whole frame: header and
/// payload share one budget, and byte-at-a-time progress does **not**
/// reset it, unlike the stall counter. A peer that starts a frame and
/// cannot finish it within `budget` gets a typed torn-frame error.
///
/// `budget: None` disables the deadline and behaves as [`read_frame`].
///
/// # Errors
///
/// As [`read_frame`], plus [`ServeError::Protocol`] with a
/// "deadline exceeded" detail when the budget runs out mid-frame. A frame
/// with a foreign version is [`ServeError::ProtocolVersion`] only if its
/// CRC holds; otherwise it is the CRC's [`ServeError::Protocol`].
pub fn read_frame_within<R: Read, T: Message>(
    r: &mut R,
    budget: Option<Duration>,
) -> Result<FrameRead<T>> {
    let mut deadline: Option<Instant> = None;
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    match fill(r, &mut header_bytes, false, budget, &mut deadline)? {
        Fill::Done => {}
        Fill::Eof { got: 0 } => return Ok(FrameRead::Eof),
        Fill::Eof { got } => {
            return Err(ServeError::Protocol(format!(
                "torn frame: EOF after {got} of {FRAME_HEADER_LEN} header bytes"
            )));
        }
        Fill::Idle => return Ok(FrameRead::Idle),
    }
    let header = match parse_header(&header_bytes) {
        Ok(header) => header,
        Err(version_err @ ServeError::ProtocolVersion { .. }) => {
            // Drain the payload before surfacing the error, leaving the
            // stream at a frame boundary. Closing the socket with unread
            // bytes resets the connection, which can destroy the typed
            // `UnsupportedVersion` goodbye still in flight to the peer.
            // The drain also checks the CRC: a bit flip in the version
            // word must read as corruption, which a client retries, not
            // as version skew, which it treats as final.
            drain_checked(
                r,
                &FrameHeader::from_bytes(&header_bytes),
                budget,
                &mut deadline,
            )?;
            return Err(version_err);
        }
        Err(other) => return Err(other),
    };
    let mut payload = vec![0u8; header.payload_len as usize];
    fill_payload(r, &mut payload, 0, &header, budget, &mut deadline)?;
    Ok(FrameRead::Frame(decode_payload(&header, &payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn rid(request: u64) -> RequestId {
        RequestId {
            session: 11,
            request,
        }
    }

    fn request() -> Request {
        Request::ClassifyBatch {
            id: rid(1),
            tenant: Some("office-7".into()),
            rows: vec![vec![0.25, 1.0 / 3.0], vec![-7.5e-3, 42.0]],
        }
    }

    fn read_one<T: Message>(bytes: &[u8]) -> Result<FrameRead<T>> {
        read_frame(&mut Cursor::new(bytes))
    }

    /// `Classify { id: 7/42, tenant: Some("pen"), cues: [0.25, -1.5] }`.
    #[rustfmt::skip]
    const GOLDEN_CLASSIFY: &[u8] = &[
        45, 0, 0, 0,                            // payload length
        4, 0, 0, 0,                             // version
        0xb1, 0x0b, 0xfc, 0x8f,                 // CRC-32
        0x01,                                   // kind: Classify
        7, 0, 0, 0, 0, 0, 0, 0,                 // session 7
        42, 0, 0, 0, 0, 0, 0, 0,                // request 42
        1, 3, 0, 0, 0, b'p', b'e', b'n',        // tenant Some("pen")
        2, 0, 0, 0,                             // 2 cues
        0, 0, 0, 0, 0, 0, 0xd0, 0x3f,           // 0.25
        0, 0, 0, 0, 0, 0, 0xf8, 0xbf,           // -1.5
    ];

    /// `ClassifyBatch { id: 7/43, tenant: None, rows: [[0.5], [1.0, 2.0]] }`:
    /// a ragged batch, which only the engine may refuse.
    #[rustfmt::skip]
    const GOLDEN_BATCH: &[u8] = &[
        54, 0, 0, 0,                            // payload length
        4, 0, 0, 0,                             // version
        0x0c, 0xc4, 0x7d, 0xca,                 // CRC-32
        0x02,                                   // kind: ClassifyBatch
        7, 0, 0, 0, 0, 0, 0, 0,                 // session 7
        43, 0, 0, 0, 0, 0, 0, 0,                // request 43
        0,                                      // tenant None
        2, 0, 0, 0,                             // 2 rows
        1, 0, 0, 0,                             // row 0: 1 cue
        0, 0, 0, 0, 0, 0, 0xe0, 0x3f,           // 0.5
        2, 0, 0, 0,                             // row 1: 2 cues
        0, 0, 0, 0, 0, 0, 0xf0, 0x3f,           // 1.0
        0, 0, 0, 0, 0, 0, 0x00, 0x40,           // 2.0
    ];

    /// `ClassifiedBatch` with a `Value` answer and an `Epsilon` answer.
    #[rustfmt::skip]
    const GOLDEN_ANSWERS: &[u8] = &[
        41, 0, 0, 0,                            // payload length
        4, 0, 0, 0,                             // version
        0x5c, 0x46, 0xb9, 0xf0,                 // CRC-32
        0x82,                                   // kind: ClassifiedBatch
        2, 0, 0, 0,                             // 2 answers
        1, 0, 0, 0, 0, 0, 0, 0,                 // class 1
        1, 0, 0, 0, 0, 0, 0, 0xe8, 0x3f,        // Value(0.75)
        1,                                      // Accept
        0, 0, 0, 0, 0, 0, 0, 0,                 // class 0
        0, 0, 0, 0, 0, 0, 0, 0, 0,              // Epsilon
        0,                                      // Discard
    ];

    /// `ClassifiedDegraded { class 2, Value(1/3), Discard }`.
    #[rustfmt::skip]
    const GOLDEN_DEGRADED: &[u8] = &[
        19, 0, 0, 0,                            // payload length
        4, 0, 0, 0,                             // version
        0xf1, 0xef, 0x86, 0xf3,                 // CRC-32
        0x83,                                   // kind: ClassifiedDegraded
        2, 0, 0, 0, 0, 0, 0, 0,                 // class 2
        1, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, // Value(1/3)
        0,                                      // Discard
    ];

    /// A request or a response: the fuzz tables hold both directions.
    #[derive(Debug, Clone, PartialEq)]
    enum Either {
        Request(Request),
        Response(Response),
    }

    impl Either {
        fn encode(&self) -> Vec<u8> {
            match self {
                Either::Request(m) => encode_frame(m),
                Either::Response(m) => encode_frame(m),
            }
            .unwrap()
        }

        /// Read `bytes` as a frame in this message's direction; `None` for
        /// EOF or idle.
        fn read_like(&self, bytes: &[u8]) -> Result<Option<Either>> {
            Ok(match self {
                Either::Request(_) => match read_one::<Request>(bytes)? {
                    FrameRead::Frame(m) => Some(Either::Request(m)),
                    FrameRead::Eof | FrameRead::Idle => None,
                },
                Either::Response(_) => match read_one::<Response>(bytes)? {
                    FrameRead::Frame(m) => Some(Either::Response(m)),
                    FrameRead::Eof | FrameRead::Idle => None,
                },
            })
        }

        /// The bits of every float the message carries, in wire order.
        fn float_bits(&self) -> Vec<u64> {
            let answer_bits = |a: &QualifiedClassification| a.quality.value().map(f64::to_bits);
            match self {
                Either::Request(Request::Classify { cues, .. }) => {
                    cues.iter().map(|x| x.to_bits()).collect()
                }
                Either::Request(Request::ClassifyBatch { rows, .. }) => {
                    rows.iter().flatten().map(|x| x.to_bits()).collect()
                }
                Either::Response(
                    Response::Classified { result } | Response::ClassifiedDegraded { result },
                ) => answer_bits(result).into_iter().collect(),
                Either::Response(Response::ClassifiedBatch { results }) => {
                    results.iter().filter_map(answer_bits).collect()
                }
                _ => Vec::new(),
            }
        }
    }

    fn answer(class: usize, quality: Quality, decision: Decision) -> QualifiedClassification {
        QualifiedClassification {
            class: ClassId(class),
            quality,
            decision,
        }
    }

    /// The golden frames with the messages they must decode to.
    fn golden() -> Vec<(&'static [u8], Either)> {
        let id = |request| RequestId {
            session: 7,
            request,
        };
        vec![
            (
                GOLDEN_CLASSIFY,
                Either::Request(Request::Classify {
                    id: id(42),
                    tenant: Some("pen".into()),
                    cues: vec![0.25, -1.5],
                }),
            ),
            (
                GOLDEN_BATCH,
                Either::Request(Request::ClassifyBatch {
                    id: id(43),
                    tenant: None,
                    rows: vec![vec![0.5], vec![1.0, 2.0]],
                }),
            ),
            (
                GOLDEN_ANSWERS,
                Either::Response(Response::ClassifiedBatch {
                    results: vec![
                        answer(1, Quality::Value(0.75), Decision::Accept),
                        answer(0, Quality::Epsilon, Decision::Discard),
                    ],
                }),
            ),
            (
                GOLDEN_DEGRADED,
                Either::Response(Response::ClassifiedDegraded {
                    result: answer(2, Quality::Value(1.0 / 3.0), Decision::Discard),
                }),
            ),
        ]
    }

    /// Every golden frame plus one control frame (a JSON body).
    fn fuzz_table() -> Vec<(Vec<u8>, Either)> {
        let control = Either::Response(Response::Error {
            error: WireError::overloaded(),
        });
        let mut table: Vec<(Vec<u8>, Either)> = golden()
            .into_iter()
            .map(|(frame, message)| (frame.to_vec(), message))
            .collect();
        table.push((control.encode(), control));
        table
    }

    #[test]
    fn golden_frames_decode_bit_exactly_and_reencode_byte_for_byte() {
        for (frame, expected) in golden() {
            let back = expected
                .read_like(frame)
                .unwrap_or_else(|e| panic!("{expected:?}: {e}"))
                .expect("a frame");
            assert_eq!(back, expected);
            assert_eq!(back.float_bits(), expected.float_bits(), "{expected:?}");
            assert_eq!(back.encode(), frame, "{expected:?} re-encodes differently");
        }
    }

    #[test]
    fn round_trip_preserves_floats_bit_exactly() {
        let sent = Either::Request(request());
        let back = sent.read_like(&sent.encode()).unwrap().expect("a frame");
        assert_eq!(back, sent);
        assert_eq!(back.float_bits(), sent.float_bits());
    }

    #[test]
    fn clean_eof_between_frames_is_not_an_error() {
        assert!(matches!(read_one::<Request>(&[]).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn every_truncation_is_torn_or_eof_never_a_panic() {
        for (bytes, message) in fuzz_table() {
            for keep in 1..bytes.len() {
                let r = message.read_like(&bytes[..keep]);
                assert!(
                    r.is_err(),
                    "{message:?}: truncation to {keep} of {} bytes went undetected",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        for (bytes, message) in fuzz_table() {
            for i in 0..bytes.len() {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 0x01;
                match message.read_like(&corrupted) {
                    Err(_) => {}
                    Ok(back) => panic!("{message:?}: byte {i} flip read as {back:?}"),
                }
            }
        }
    }

    #[test]
    fn version_word_bit_flips_are_crc_errors_not_version_skew() {
        // A flipped version bit is corruption: the CRC decides, so the
        // client retries it instead of giving up on a phantom version.
        for byte in 4..8 {
            for bit in 0..8 {
                let mut corrupted = GOLDEN_CLASSIFY.to_vec();
                corrupted[byte] ^= 1 << bit;
                let err = read_one::<Request>(&corrupted).unwrap_err();
                assert!(
                    matches!(&err, ServeError::Protocol(msg) if msg.contains("CRC")),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(&Request::Health).unwrap();
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(matches!(err, ServeError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        // A frame claiming a future version with a valid CRC, so the
        // version check (not the CRC) is what rejects it.
        let bytes = encode_frame_with_version(PROTOCOL_VERSION + 1, &Request::Health).unwrap();
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(
            matches!(err, ServeError::ProtocolVersion { found, .. } if found == PROTOCOL_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn below_min_version_rejected() {
        // An old v3 peer's frame: valid CRC, version below the window.
        // Rejected at the header, not as a CRC failure or a hang.
        let bytes = encode_frame_with_version(MIN_PROTOCOL_VERSION - 1, &Request::Health).unwrap();
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::ProtocolVersion { found, supported }
                    if found == MIN_PROTOCOL_VERSION - 1 && supported == PROTOCOL_VERSION
            ),
            "{err}"
        );
    }

    #[test]
    fn explicit_current_version_is_identical_to_default_encode() {
        let a = encode_frame(&request()).unwrap();
        let b = encode_frame_with_version(PROTOCOL_VERSION, &request()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_type_payload_is_decode_error_not_panic() {
        let bytes = encode_frame(&Response::ShuttingDown).unwrap();
        let err = read_one::<Request>(&bytes).unwrap_err();
        assert!(matches!(err, ServeError::Decode(_)), "{err}");
        let err = read_one::<Response>(GOLDEN_CLASSIFY).unwrap_err();
        assert!(matches!(err, ServeError::Decode(_)), "{err}");
    }

    #[test]
    fn back_to_back_frames_stream() {
        let mut bytes = encode_frame(&Request::Health).unwrap();
        bytes.extend_from_slice(&encode_frame(&Request::Snapshot).unwrap());
        let mut cursor = Cursor::new(&bytes[..]);
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            FrameRead::Frame(Request::Health)
        ));
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            FrameRead::Frame(Request::Snapshot)
        ));
        assert!(matches!(
            read_frame::<_, Request>(&mut cursor).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_message_refused_at_encode_time() {
        let rows = vec![vec![1.0 / 3.0; 1 << 16]; 40];
        let req = Request::ClassifyBatch {
            id: rid(9),
            tenant: None,
            rows,
        };
        // 40 rows of 2^16 floats at 8 bytes each is 20 MiB, past the
        // 16 MiB cap.
        assert!(matches!(
            encode_frame(&req),
            Err(ServeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn non_finite_cues_are_refused_at_encode_time() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let req = Request::Classify {
                id: rid(3),
                tenant: None,
                cues: vec![0.5, bad],
            };
            assert!(
                matches!(encode_frame(&req), Err(ServeError::Decode(_))),
                "{bad}"
            );
        }
    }

    /// Frame `payload` with a valid CRC, read it as a `T` and return the
    /// decode error it must produce.
    fn refused<T: Message + std::fmt::Debug>(payload: &[u8]) -> String {
        let frame = frame_raw_payload(PROTOCOL_VERSION, payload).unwrap();
        match read_one::<T>(&frame) {
            Err(ServeError::Decode(detail)) => detail,
            other => panic!("payload {payload:02x?} read as {other:?}, want a decode error"),
        }
    }

    /// A payload with its first `head` bytes taken from `frame`'s payload
    /// and `tail` appended.
    fn spliced(frame: &[u8], head: usize, tail: &[u8]) -> Vec<u8> {
        let payload = &frame[FRAME_HEADER_LEN..];
        [&payload[..head], tail].concat()
    }

    #[test]
    fn claimed_counts_beyond_the_payload_are_refused_before_allocation() {
        // Most counts claim u32::MAX items. Allocating for the claim
        // before checking it against the bytes left would abort the test
        // process; a typed decode error proves the check came first.
        let huge = u32::MAX.to_le_bytes();
        // GOLDEN_CLASSIFY's payload: kind, id (16), tenant tag, tenant
        // length (4), "pen", cue count (4), cues.
        let tenant_length = spliced(GOLDEN_CLASSIFY, 18, &huge);
        let cue_count = spliced(GOLDEN_CLASSIFY, 25, &huge);
        let mut one_cue_short = spliced(GOLDEN_CLASSIFY, 45, &[]);
        one_cue_short[25] = 3;
        // GOLDEN_BATCH's payload: kind, id (16), tenant tag, row count
        // (4), then each row's length and cues.
        let row_count = spliced(GOLDEN_BATCH, 18, &huge);
        let row_length = spliced(GOLDEN_BATCH, 22, &[&huge[..], &[0; 4]].concat());
        let answer_count = spliced(GOLDEN_ANSWERS, 1, &huge);
        for (payload, field) in [
            (&tenant_length, "tenant length"),
            (&cue_count, "cue count"),
            (&one_cue_short, "cue count 3"),
            (&row_count, "row count"),
            (&row_length, "cue count 4294967295"),
        ] {
            let detail = refused::<Request>(payload);
            assert!(
                detail.contains(field) && detail.contains("left"),
                "{detail}"
            );
        }
        let detail = refused::<Response>(&answer_count);
        assert!(detail.contains("answer count"), "{detail}");
    }

    #[test]
    fn unknown_kinds_are_decode_errors_in_both_directions() {
        for kind in [0x00, 0x06, 0x7f, 0x80, 0x88, 0xff] {
            refused::<Request>(&[kind]);
            refused::<Response>(&[kind]);
        }
        // Request and response kinds are disjoint.
        for kind in [0x01, 0x02, 0x03, 0x04, 0x05] {
            refused::<Response>(&[kind]);
        }
        for kind in [0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87] {
            refused::<Request>(&[kind]);
        }
        refused::<Request>(&[]);
        refused::<Response>(&[]);
    }

    #[test]
    fn trailing_bytes_are_refused() {
        for (frame, message) in golden() {
            let mut payload = frame[FRAME_HEADER_LEN..].to_vec();
            payload.push(0);
            let detail = match message {
                Either::Request(_) => refused::<Request>(&payload),
                Either::Response(_) => refused::<Response>(&payload),
            };
            assert!(detail.contains("trailing"), "{detail}");
        }
        refused::<Request>(&[0x04, 0x00]);
        refused::<Response>(&[0x86, 0x00]);
    }

    #[test]
    fn bad_quality_and_decision_tags_are_refused() {
        // GOLDEN_DEGRADED's payload: kind, class (8), tag, bits (8), decision.
        let degraded = &GOLDEN_DEGRADED[FRAME_HEADER_LEN..];
        let with = |at: usize, byte: u8| {
            let mut payload = degraded.to_vec();
            payload[at] = byte;
            payload
        };
        for tag in [2, 0x80, 0xff] {
            refused::<Response>(&with(9, tag));
        }
        // ε carries zero bits; anything else is not a canonical answer.
        refused::<Response>(&with(9, QUALITY_EPSILON));
        for decision in [2, 0xff] {
            refused::<Response>(&with(18, decision));
        }
        // A bad tenant tag, for completeness of the tag checks.
        let mut classify = GOLDEN_CLASSIFY[FRAME_HEADER_LEN..].to_vec();
        classify[17] = 2;
        refused::<Request>(&classify);
    }

    #[test]
    fn json_bodies_under_hot_kinds_are_refused() {
        let json = br#"{"id":{"session":1,"request":1},"tenant":null,"cues":[0.5]}"#;
        for kind in [0x01, 0x02] {
            refused::<Request>(&[&[kind][..], json].concat());
        }
        let answer = br#"{"result":{"class":1,"quality":{"Value":0.5},"decision":"Accept"}}"#;
        for kind in [0x81, 0x82, 0x83] {
            refused::<Response>(&[&[kind][..], answer].concat());
        }
        // A v3 JSON payload, as a v3 peer would send it, is no v4 message.
        refused::<Request>(
            br#"{"Classify":{"id":{"session":1,"request":1},"tenant":null,"cues":[0.5]}}"#,
        );
    }

    /// Yields one byte per read call, sleeping `delay` before each — a
    /// slow-loris peer that always makes progress (so the stall counter
    /// never fires) but never finishes in time.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(self.delay);
            if self.pos >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_deadline_cuts_off_a_byte_at_a_time_trickler() {
        let mut trickle = Trickle {
            bytes: encode_frame(&request()).unwrap(),
            pos: 0,
            delay: Duration::from_millis(5),
        };
        let err = read_frame_within::<_, Request>(&mut trickle, Some(Duration::from_millis(25)))
            .unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(msg) if msg.contains("deadline")),
            "expected a deadline error, got {err}"
        );
        // Progress was made (the deadline, not the first read, cut it off)
        // but the frame never completed.
        assert!(trickle.pos > 0 && trickle.pos < trickle.bytes.len());
    }

    #[test]
    fn frame_deadline_does_not_fire_on_a_frame_that_fits_the_budget() {
        let mut trickle = Trickle {
            bytes: encode_frame(&Request::Health).unwrap(),
            pos: 0,
            delay: Duration::from_millis(0),
        };
        let got =
            read_frame_within::<_, Request>(&mut trickle, Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(got, FrameRead::Frame(Request::Health)));
    }
}
