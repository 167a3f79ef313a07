//! `cqm-serve` — the CQM inference service.
//!
//! The paper's §2 pipeline answers one question — "what is the context, and
//! how much should I trust it?" — but after training, that answer has to
//! reach the appliances that act on it. This crate is the service layer in
//! between: a std-only TCP server that loads a trained classifier + quality
//! measure (optionally warm-started from a `cqm-persist` checkpoint), fields
//! concurrent classify requests over a CRC-guarded binary protocol, and
//! answers every one with the full [`QualifiedClassification`] — class,
//! quality `q`, and the filter's accept/discard verdict — so downstream
//! consumers can act on quality, not just on class.
//!
//! Layering, bottom to top:
//!
//! * [`protocol`] — length-prefixed, versioned, CRC-32-guarded frames and
//!   the request/response vocabulary. Torn and corrupt frames are typed
//!   errors, never panics, reusing the discipline of `cqm-persist`'s
//!   journal.
//! * [`queue`] — a bounded request queue with explicit admission control
//!   ([`AdmissionPolicy::Reject`] / [`AdmissionPolicy::DropOldest`] /
//!   [`AdmissionPolicy::Block`], the `EventBus` policy vocabulary applied to
//!   ingress): under overload clients get a typed `Overloaded` answer,
//!   never unbounded buffering.
//! * [`model`] — the served artifact ([`ServedModel`]) and where it comes
//!   from ([`ModelSource`]): fresh, or warm-started from a checkpoint.
//! * [`batch`] — the evaluation engine: allocation-free
//!   `ClassifierKernel`/`QualityKernel` paths that answer each popped
//!   micro-batch job by job, bit-identical to the in-process `CqmSystem`
//!   answers.
//! * [`dedup`] — the bounded per-session exactly-once window: a retried
//!   `(session, request)` id replays the cached answer instead of
//!   executing twice.
//! * [`server`] / [`client`] — the run-to-completion server (each session
//!   evaluates queued micro-batches under one of a fixed number of
//!   execution permits; no worker threads) with per-frame deadlines,
//!   dedup, a degradation ladder on admission, and graceful
//!   drain-then-checkpoint shutdown; and the blocking client with a
//!   per-call deadline budget, capped exponential backoff with seeded
//!   jitter, and idempotent retries on transient transport faults.
//!
//! [`QualifiedClassification`]: cqm_core::pipeline::QualifiedClassification
//! [`AdmissionPolicy::Reject`]: queue::AdmissionPolicy::Reject
//! [`AdmissionPolicy::DropOldest`]: queue::AdmissionPolicy::DropOldest
//! [`AdmissionPolicy::Block`]: queue::AdmissionPolicy::Block
//! [`ServedModel`]: model::ServedModel
//! [`ModelSource`]: model::ModelSource

pub mod batch;
pub mod client;
pub mod dedup;
pub mod model;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;

pub use batch::{Engine, EngineScratch};
pub use client::{ClientConfig, CqmClient, ServedAnswer};
pub use dedup::{Claim, DedupConfig, DedupStats, DedupWindow};
pub use model::{ModelSource, ResolvedModel, ServeCheckpoint, ServedModel};
pub use protocol::{
    Request, RequestId, Response, ServerHealth, SnapshotInfo, WireError, WireErrorKind,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
pub use queue::{Admission, AdmissionPolicy, BoundedQueue, QueueStats};
pub use registry::{FleetConfig, FleetStats, DEFAULT_TENANT};
pub use server::{CqmServer, ServerConfig};

/// Everything that can go wrong serving or consuming the service.
#[derive(Debug)]
pub enum ServeError {
    /// An OS-level I/O failure, annotated with the operation that failed.
    Io {
        /// What the service was doing.
        op: String,
        /// The underlying error rendered to text.
        detail: String,
    },
    /// A malformed frame: torn, truncated, or failing its CRC.
    Protocol(String),
    /// A frame announced a payload larger than the protocol allows.
    FrameTooLarge {
        /// Claimed payload length.
        len: u64,
        /// The protocol's cap.
        max: u64,
    },
    /// A frame stamped with a protocol version outside this build's
    /// supported window (older than the minimum or newer than the maximum).
    ProtocolVersion {
        /// Version found in the frame header.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// An intact frame whose payload does not decode as the expected type.
    Decode(String),
    /// The peer answered with a typed error (overload, bad request, ...).
    Remote(WireError),
    /// The connection closed while a response was still owed.
    ConnectionClosed,
    /// A blocking operation ran out of time.
    Timeout(String),
    /// The client's retry budget — attempts and/or the per-call deadline —
    /// ran out. Carries the budget it exhausted and the last failure.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// Wall-clock time spent across all attempts.
        elapsed: std::time::Duration,
        /// The per-call deadline budget that bounded the attempts.
        deadline: std::time::Duration,
        /// The error the final attempt died on.
        last: Box<ServeError>,
    },
    /// The service was configured inconsistently.
    InvalidConfig(String),
    /// A failure in the underlying CQM evaluation machinery.
    Core(cqm_core::CqmError),
    /// A checkpoint load/store failure.
    Persist(cqm_persist::PersistError),
}

impl ServeError {
    pub(crate) fn io(op: impl Into<String>, e: &std::io::Error) -> Self {
        ServeError::Io {
            op: op.into(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { op, detail } => write!(f, "I/O failure while {op}: {detail}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame claims {len}-byte payload, protocol caps at {max}")
            }
            ServeError::ProtocolVersion { found, supported } => {
                write!(
                    f,
                    "frame version {found} outside the supported window (this build \
                     speaks up to {supported})"
                )
            }
            ServeError::Decode(msg) => write!(f, "payload decode failure: {msg}"),
            ServeError::Remote(e) => write!(f, "server error: {e}"),
            ServeError::ConnectionClosed => write!(f, "connection closed mid-exchange"),
            ServeError::Timeout(what) => write!(f, "timed out {what}"),
            ServeError::RetriesExhausted {
                attempts,
                elapsed,
                deadline,
                last,
            } => write!(
                f,
                "retry budget exhausted after {attempts} attempt(s) in {elapsed:?} \
                 (deadline {deadline:?}); last error: {last}"
            ),
            ServeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ServeError::Core(e) => write!(f, "evaluation failure: {e}"),
            ServeError::Persist(e) => write!(f, "persistence failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Persist(e) => Some(e),
            ServeError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<cqm_core::CqmError> for ServeError {
    fn from(e: cqm_core::CqmError) -> Self {
        ServeError::Core(e)
    }
}

impl From<cqm_persist::PersistError> for ServeError {
    fn from(e: cqm_persist::PersistError) -> Self {
        ServeError::Persist(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
