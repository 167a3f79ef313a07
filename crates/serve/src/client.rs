//! The blocking client: deadlines, idempotent retries, typed errors.
//!
//! One [`CqmClient`] owns one connection and one in-flight request at a
//! time (the protocol is strictly request/response per connection; open
//! more clients for more concurrency). Every call runs under one
//! per-call deadline budget ([`ClientConfig::call_deadline`]) that covers
//! connects, reconnects, I/O and backoff sleeps together — a retry never
//! gets a fresh clock, it inherits whatever the budget has left.
//!
//! Three failure families are kept apart deliberately:
//!
//! * **Typed overload** — the server answered `Overloaded`. Retried with
//!   capped exponential backoff and seeded decorrelated jitter, up to
//!   [`ClientConfig::retries`] extra attempts within the deadline; on
//!   exhaustion the last typed answer is returned (so callers still see
//!   [`ServeError::Remote`]).
//! * **Transient transport faults** — resets, torn frames, timeouts,
//!   corrupt payloads and length words. The connection is poisoned and, for *idempotent*
//!   requests, the call reconnects (with the connect budget shrunk to the
//!   remaining deadline) and retries under the same backoff schedule.
//!   Classify requests are idempotent **because** they carry a
//!   client-assigned [`RequestId`] the retry reuses: the server's dedup
//!   window turns a re-send of an already-executed request into a replay,
//!   never a second execution. On exhaustion the call fails with
//!   [`ServeError::RetriesExhausted`], carrying the budget it spent and
//!   the last underlying error.
//! * **Settled refusals** — `BadRequest` and friends. Never retried.
//!
//! `Shutdown` is the one non-idempotent request; it is sent exactly once
//! and any transport failure is surfaced as-is.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cqm_core::pipeline::QualifiedClassification;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::protocol::{
    encode_frame, read_frame_within, FrameRead, Request, RequestId, Response, ServerHealth,
    SnapshotInfo, WireErrorKind,
};
use crate::{Result, ServeError};

/// Distinguishes client instances within one process so their default
/// session ids never collide (two clients sharing a session id would
/// collide in the server's dedup window).
static NEXT_CLIENT: AtomicU64 = AtomicU64::new(1);

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Longest to wait for the initial TCP connect. Reconnects inside a
    /// call get `min(connect_timeout, remaining deadline)`.
    pub connect_timeout: Duration,
    /// Per-attempt read/write timeout, further clamped to the remaining
    /// call deadline.
    pub io_timeout: Duration,
    /// Extra attempts after the first (0 = one attempt, no retries).
    pub retries: u32,
    /// First backoff sleep; also the floor of every later sleep.
    pub backoff_base: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Overall wall-clock budget for one logical call, shared by every
    /// attempt, reconnect and backoff sleep within it.
    pub call_deadline: Duration,
    /// Whether transient transport faults on idempotent requests are
    /// retried (typed `Overloaded` answers are always retried).
    pub retry_transport: bool,
    /// Session half of the [`RequestId`] this client stamps on classify
    /// requests. `None` derives a process-unique id.
    pub session_id: Option<u64>,
    /// Seed for the backoff jitter; fixed seed → replayable sleeps.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            call_deadline: Duration::from_secs(60),
            retry_transport: true,
            session_id: None,
            seed: 0xC0FF_EE00_D15E_A5E5,
        }
    }
}

/// A classification as served over the wire, carrying the degradation
/// flag: `degraded` means the server was in Failsafe and replayed its
/// last-good answer instead of evaluating the cues — trust accordingly.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedAnswer {
    /// Class, quality and filter verdict.
    pub result: QualifiedClassification,
    /// Whether this is a Failsafe last-good answer rather than a fresh
    /// evaluation of the submitted cues.
    pub degraded: bool,
}

/// A connected client; see the module docs for the failure model.
pub struct CqmClient {
    addr: SocketAddr,
    /// `None` after a transport fault poisoned the connection; the next
    /// attempt reconnects within the remaining deadline.
    conn: Option<Connection>,
    config: ClientConfig,
    session: u64,
    next_request: u64,
    rng: StdRng,
    last_attempts: u32,
}

/// One TCP connection. Responses are read through a `BufReader`, so a
/// frame that has arrived costs one `recv`; requests are written to the
/// socket directly.
struct Connection {
    reader: BufReader<TcpStream>,
    /// The read/write timeout last set on this socket, `None` until the
    /// first exchange sets it. It belongs to the socket, so a reconnect
    /// starts unarmed.
    armed: Option<Duration>,
}

impl Connection {
    /// Send one encoded request and read its response, with `io_budget`
    /// as the socket's read and write timeout and the response's frame
    /// deadline. The timeouts are set only when the budget changes.
    fn exchange(&mut self, frame: &[u8], io_budget: Duration) -> Result<Response> {
        if self.armed != Some(io_budget) {
            let socket = self.reader.get_ref();
            socket
                .set_read_timeout(Some(io_budget))
                .and_then(|()| socket.set_write_timeout(Some(io_budget)))
                .map_err(|e| ServeError::io("configuring call timeouts", &e))?;
            self.armed = Some(io_budget);
        }
        self.reader
            .get_mut()
            .write_all(frame)
            .map_err(|e| ServeError::io("writing frame", &e))?;
        // The io budget also caps the whole response frame: a corrupted
        // length prefix otherwise leaves the client stalling for bytes the
        // server never sent, and only the 100-stall backstop would end it.
        match read_frame_within::<_, Response>(&mut self.reader, Some(io_budget))? {
            FrameRead::Frame(response) => Ok(response),
            FrameRead::Eof => Err(ServeError::ConnectionClosed),
            FrameRead::Idle => Err(ServeError::Timeout("waiting for the response".into())),
        }
    }
}

/// Transport failures that may be transient: worth a retry when the
/// request is idempotent. Settled answers (`Remote`) and local
/// misconfiguration are not in this family. A response that claims more
/// than the frame cap is in it: the server's encoder never writes such a
/// frame, so its length word was corrupted in transit.
fn transient(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io { .. }
            | ServeError::Protocol(_)
            | ServeError::Timeout(_)
            | ServeError::ConnectionClosed
            | ServeError::Decode(_)
            | ServeError::FrameTooLarge { .. }
    )
}

impl CqmClient {
    /// Connect with the configured timeouts.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the connection cannot be established
    /// or the timeouts cannot be set.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Self> {
        let session = config.session_id.unwrap_or_else(|| {
            // Process id ‖ counter: unique across concurrent clients on
            // one host without consulting clocks or entropy.
            (u64::from(std::process::id()) << 32)
                | (NEXT_CLIENT.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)
        });
        let rng = StdRng::seed_from_u64(config.seed ^ session);
        let mut client = CqmClient {
            addr,
            conn: None,
            config,
            session,
            next_request: 0,
            rng,
            last_attempts: 0,
        };
        client.reconnect(client.config.connect_timeout)?;
        Ok(client)
    }

    /// The session half of the ids this client stamps on requests.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Attempts the most recent retried call consumed (1 = first try
    /// succeeded). Diagnostic for benches and tests.
    pub fn last_attempts(&self) -> u32 {
        self.last_attempts
    }

    fn reconnect(&mut self, budget: Duration) -> Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, budget.max(Duration::from_millis(1)))
            .map_err(|e| ServeError::io(format!("connecting to {}", self.addr), &e))?;
        self.conn = Some(Connection {
            reader: BufReader::new(stream),
            armed: None,
        });
        Ok(())
    }

    /// One pre-encoded request/response exchange within `remaining` of
    /// the call deadline; reconnects first if the connection is poisoned.
    /// Any transport failure poisons the connection before propagating.
    fn exchange(&mut self, frame: &[u8], remaining: Duration) -> Result<Response> {
        if self.conn.is_none() {
            let budget = self.config.connect_timeout.min(remaining);
            self.reconnect(budget)?;
        }
        let io_budget = self
            .config
            .io_timeout
            .min(remaining)
            .max(Duration::from_millis(1));
        let Some(conn) = self.conn.as_mut() else {
            return Err(ServeError::ConnectionClosed); // reconnect just set it; typed fallback
        };
        let outcome = conn.exchange(frame, io_budget);
        if outcome.is_err() {
            // The exchange may have died mid-frame; nothing more can be
            // trusted on this connection, its buffered bytes included.
            self.conn = None;
        }
        outcome
    }

    /// Next decorrelated-jitter sleep: uniform in
    /// `[base, min(cap, prev * 3)]`, the AWS "decorrelated jitter"
    /// schedule — exponential in expectation, seeded and replayable here.
    fn next_backoff(&mut self, prev: Duration) -> Duration {
        let base = self.config.backoff_base.max(Duration::from_millis(1));
        let cap = self.config.backoff_cap.max(base);
        let ceiling = (prev * 3).clamp(base, cap);
        let span = ceiling.saturating_sub(base);
        let unit: f64 = self.rng.gen();
        base + span.mul_f64(unit.clamp(0.0, 1.0))
    }

    /// Run `request` under the call deadline, retrying typed overloads
    /// and (when `idempotent`) transient transport faults.
    fn call_retrying(&mut self, request: &Request, idempotent: bool) -> Result<Response> {
        // Encode once, outside the retry loop: a request the protocol
        // cannot represent (say, a NaN cue) is a deterministic local
        // failure — retrying it would only re-fail — and every retry
        // re-sends byte-identical frames.
        let frame = encode_frame(request)?;
        let start = Instant::now();
        let deadline = self.config.call_deadline;
        let mut attempts = 0u32;
        let mut prev_sleep = self.config.backoff_base;
        loop {
            let remaining = deadline.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                self.last_attempts = attempts;
                return Err(ServeError::RetriesExhausted {
                    attempts,
                    elapsed: start.elapsed(),
                    deadline,
                    last: Box::new(ServeError::Timeout("call deadline exhausted".into())),
                });
            }
            attempts += 1;
            let last_error = match self.exchange(&frame, remaining) {
                Ok(Response::Error { error })
                    if error.kind == WireErrorKind::Overloaded
                        && attempts <= self.config.retries =>
                {
                    // Typed overload: retryable, but if the budget runs
                    // out the typed answer itself is the result.
                    None
                }
                Ok(response) => {
                    self.last_attempts = attempts;
                    return Ok(response);
                }
                Err(e)
                    if idempotent
                        && self.config.retry_transport
                        && transient(&e)
                        && attempts <= self.config.retries =>
                {
                    Some(e)
                }
                Err(e) => {
                    self.last_attempts = attempts;
                    if attempts > 1 {
                        return Err(ServeError::RetriesExhausted {
                            attempts,
                            elapsed: start.elapsed(),
                            deadline,
                            last: Box::new(e),
                        });
                    }
                    return Err(e);
                }
            };
            // Back off inside the remaining budget; a sleep that would
            // cross the deadline is clamped so the final attempt still
            // happens before (not after) the budget expires.
            let sleep = self.next_backoff(prev_sleep);
            prev_sleep = sleep;
            let room = deadline.saturating_sub(start.elapsed());
            if room.is_zero() {
                self.last_attempts = attempts;
                return match last_error {
                    Some(e) => Err(ServeError::RetriesExhausted {
                        attempts,
                        elapsed: start.elapsed(),
                        deadline,
                        last: Box::new(e),
                    }),
                    None => Ok(Response::Error {
                        error: crate::protocol::WireError::overloaded(),
                    }),
                };
            }
            std::thread::sleep(sleep.min(room));
        }
    }

    fn next_id(&mut self) -> RequestId {
        self.next_request += 1;
        RequestId {
            session: self.session,
            request: self.next_request,
        }
    }

    /// Classify one cue vector, surfacing the degradation flag.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] for typed refusals (including exhausted
    /// overload retries), [`ServeError::RetriesExhausted`] when the retry
    /// budget dies on transport faults, or the transport failure itself
    /// on a non-retryable first attempt.
    pub fn classify_answer(&mut self, cues: &[f64]) -> Result<ServedAnswer> {
        self.classify_answer_for(None, cues)
    }

    /// Classify one cue vector against a named tenant's model (`None`
    /// routes to the server's default tenant), surfacing the degradation
    /// flag. Per-tenant sheds come back typed: `Overloaded` (the tenant's
    /// bulkhead budget, retried like any overload) or `TenantQuarantined`
    /// (the tenant's checkpoint failed to load — surfaced immediately as
    /// [`ServeError::Remote`]; retrying is the caller's policy decision).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::classify_answer`].
    pub fn classify_answer_for(
        &mut self,
        tenant: Option<&str>,
        cues: &[f64],
    ) -> Result<ServedAnswer> {
        let request = Request::Classify {
            id: self.next_id(),
            tenant: tenant.map(str::to_string),
            cues: cues.to_vec(),
        };
        match self.call_retrying(&request, true)? {
            Response::Classified { result } => Ok(ServedAnswer {
                result,
                degraded: false,
            }),
            Response::ClassifiedDegraded { result } => Ok(ServedAnswer {
                result,
                degraded: true,
            }),
            Response::Error { error } => Err(ServeError::Remote(error)),
            other => Err(unexpected("Classified", &other)),
        }
    }

    /// Classify one cue vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::classify_answer`], whose
    /// `degraded` flag this discards.
    pub fn classify(&mut self, cues: &[f64]) -> Result<QualifiedClassification> {
        Ok(self.classify_answer(cues)?.result)
    }

    /// Classify one cue vector against a named tenant's model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::classify_answer_for`], whose
    /// `degraded` flag this discards.
    pub fn classify_for(
        &mut self,
        tenant: Option<&str>,
        cues: &[f64],
    ) -> Result<QualifiedClassification> {
        Ok(self.classify_answer_for(tenant, cues)?.result)
    }

    /// Classify a batch atomically; all rows answer or the batch fails.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::classify_answer`].
    pub fn classify_batch(&mut self, rows: &[Vec<f64>]) -> Result<Vec<QualifiedClassification>> {
        self.classify_batch_for(None, rows)
    }

    /// Classify a batch atomically against a named tenant's model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::classify_answer_for`].
    pub fn classify_batch_for(
        &mut self,
        tenant: Option<&str>,
        rows: &[Vec<f64>],
    ) -> Result<Vec<QualifiedClassification>> {
        let request = Request::ClassifyBatch {
            id: self.next_id(),
            tenant: tenant.map(str::to_string),
            rows: rows.to_vec(),
        };
        match self.call_retrying(&request, true)? {
            Response::ClassifiedBatch { results } => Ok(results),
            Response::Error { error } => Err(ServeError::Remote(error)),
            other => Err(unexpected("ClassifiedBatch", &other)),
        }
    }

    /// Describe the served model. Read-only, so transport faults are
    /// retried like any idempotent request.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::classify_answer`].
    pub fn snapshot(&mut self) -> Result<SnapshotInfo> {
        match self.call_retrying(&Request::Snapshot, true)? {
            Response::Snapshot { info } => Ok(info),
            Response::Error { error } => Err(ServeError::Remote(error)),
            other => Err(unexpected("Snapshot", &other)),
        }
    }

    /// Read the server's load counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmClient::snapshot`].
    pub fn health(&mut self) -> Result<ServerHealth> {
        match self.call_retrying(&Request::Health, true)? {
            Response::Health { health } => Ok(health),
            Response::Error { error } => Err(ServeError::Remote(error)),
            other => Err(unexpected("Health", &other)),
        }
    }

    /// Ask the server to drain and stop. Not idempotent — sent exactly
    /// once, transport faults surface as-is. The acknowledgement only
    /// means the drain has begun; the server's owner observes completion
    /// via `CqmServer::join`.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ServeError::Remote`] on a typed refusal.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call_retrying(&Request::Shutdown, false)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { error } => Err(ServeError::Remote(error)),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    ServeError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_client(config: ClientConfig) -> (CqmClient, std::net::TcpListener) {
        // A listener that never answers: enough to exercise connect and
        // the backoff schedule without a real server. Returned so it
        // outlives the client.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = CqmClient::connect(addr, config).expect("connect");
        (client, listener)
    }

    #[test]
    fn backoff_is_capped_bounded_below_and_replayable() {
        let config = ClientConfig {
            seed: 42,
            session_id: Some(7),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..ClientConfig::default()
        };
        let (mut a, _la) = test_client(config.clone());
        let (mut b, _lb) = test_client(config);
        let mut prev_a = a.config.backoff_base;
        let mut prev_b = b.config.backoff_base;
        for _ in 0..32 {
            let sa = a.next_backoff(prev_a);
            let sb = b.next_backoff(prev_b);
            assert_eq!(sa, sb, "same seed must give the same schedule");
            assert!(sa >= Duration::from_millis(10));
            assert!(sa <= Duration::from_millis(80));
            prev_a = sa;
            prev_b = sb;
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let (mut a, _la) = test_client(ClientConfig {
            seed: 1,
            session_id: Some(7),
            ..ClientConfig::default()
        });
        let (mut b, _lb) = test_client(ClientConfig {
            seed: 2,
            session_id: Some(7),
            ..ClientConfig::default()
        });
        let mut prev = Duration::from_millis(10);
        let mut diverged = false;
        for _ in 0..16 {
            if a.next_backoff(prev) != b.next_backoff(prev) {
                diverged = true;
                break;
            }
            prev += Duration::from_millis(1);
        }
        assert!(diverged, "seeds 1 and 2 produced identical jitter");
    }

    #[test]
    fn default_session_ids_are_unique_per_client() {
        let (a, _la) = test_client(ClientConfig::default());
        let (b, _lb) = test_client(ClientConfig::default());
        assert_ne!(a.session_id(), b.session_id());
    }

    #[test]
    fn a_corrupt_response_length_is_retried_on_a_fresh_connection() {
        use crate::protocol::{read_frame, FrameRead};
        use cqm_core::{ClassId, Decision, Quality};
        use std::io::Write;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let result = QualifiedClassification {
            class: ClassId(1),
            quality: Quality::Value(0.75),
            decision: Decision::Accept,
        };
        let reply = encode_frame(&Response::Classified { result }).expect("encode");
        // The first answer's length word has bit 29 flipped, so it claims
        // more than the 16 MiB cap; the second answer is intact.
        let fake_server = std::thread::spawn(move || {
            for flip in [0x20u8, 0] {
                let (mut stream, _peer) = listener.accept().expect("accept");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("timeout");
                match read_frame::<_, Request>(&mut stream) {
                    Ok(FrameRead::Frame(Request::Classify { .. })) => {}
                    other => panic!("fake server expected a classify, got {other:?}"),
                }
                let mut frame = reply.clone();
                frame[3] ^= flip;
                stream.write_all(&frame).expect("write reply");
            }
        });
        let mut client = CqmClient::connect(
            addr,
            ClientConfig {
                backoff_base: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        assert_eq!(client.classify(&[0.5]).expect("retried"), result);
        assert_eq!(client.last_attempts(), 2);
        fake_server.join().expect("fake server");
    }

    #[test]
    fn a_reconnected_call_that_is_never_answered_ends_typed_within_its_deadline() {
        use crate::protocol::read_frame;
        use cqm_core::{ClassId, Decision, Quality};
        use std::sync::mpsc;

        fn read_classify(stream: &mut TcpStream) {
            match read_frame::<_, Request>(stream) {
                Ok(FrameRead::Frame(Request::Classify { .. })) => {}
                other => panic!("fake server expected a classify, got {other:?}"),
            }
        }

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let result = QualifiedClassification {
            class: ClassId(2),
            quality: Quality::Value(0.5),
            decision: Decision::Accept,
        };
        let reply = encode_frame(&Response::Classified { result }).expect("encode");
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let fake_server = std::thread::spawn(move || {
            // The first connection answers one call, which arms its
            // timeouts, then hangs up on the next request.
            let (mut first, _peer) = listener.accept().expect("accept");
            read_classify(&mut first);
            first.write_all(&reply).expect("write reply");
            read_classify(&mut first);
            drop(first);
            // The reconnect reads the retry and never answers it.
            let (mut second, _peer) = listener.accept().expect("accept");
            read_classify(&mut second);
            let _released = release_rx.recv_timeout(Duration::from_secs(30));
        });
        let config = ClientConfig {
            io_timeout: Duration::from_millis(200),
            call_deadline: Duration::from_secs(5),
            retries: 1,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let deadline = config.call_deadline;
        let mut client = CqmClient::connect(addr, config).expect("connect");
        assert_eq!(client.classify(&[0.5]).expect("first call"), result);

        // Same io budget on both connections: a client that took the
        // first socket's armed timeout for the second's would leave the
        // fresh socket blocking forever.
        let (done_tx, done_rx) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            let started = Instant::now();
            let outcome = client.classify(&[0.5]);
            done_tx.send((outcome, started.elapsed())).expect("report");
        });
        let finished = done_rx.recv_timeout(deadline + Duration::from_secs(5));
        // Unblocks the fake server (and with it a hung caller) either way.
        let _sent = release_tx.send(());
        let (outcome, elapsed) =
            finished.expect("the call on the unanswered fresh connection never returned");
        assert!(
            matches!(
                outcome,
                Err(ServeError::RetriesExhausted { .. } | ServeError::Timeout(_))
            ),
            "expected a typed timeout, got {outcome:?}"
        );
        assert!(elapsed <= deadline, "took {elapsed:?} against {deadline:?}");
        caller.join().expect("caller");
        fake_server.join().expect("fake server");
    }

    #[test]
    fn request_ids_increment_within_a_session() {
        let (mut c, _lc) = test_client(ClientConfig {
            session_id: Some(99),
            ..ClientConfig::default()
        });
        let first = c.next_id();
        let second = c.next_id();
        assert_eq!(first.session, 99);
        assert_eq!((first.request, second.request), (1, 2));
    }
}
