//! The TCP server: acceptor, run-to-completion sessions, graceful
//! shutdown.
//!
//! Thread architecture:
//!
//! * one **acceptor** thread owns the listener and spawns a session thread
//!   per connection;
//! * each **session** thread speaks the frame protocol with one client and
//!   evaluates the work itself. A classify request is admitted through the
//!   bounded queue like any other; the session then runs
//!   [`run_to_completion`] until its own answer arrives. While it holds one
//!   of the `workers` execution permits it pops a micro-batch from the
//!   queue head and answers every job in it — its own and other sessions'
//!   — on their reply channels. Sessions poll with a short read timeout,
//!   so an idle connection notices shutdown within one tick.
//!
//! There are no worker threads: a request costs no thread hand-off when a
//! permit is free, and the permits bound how many sessions evaluate at
//! once.
//!
//! Shutdown ordering (see DESIGN.md §10): mark draining (sessions answer
//! `ShuttingDown` to new work) → close the queue (admission refuses, and
//! the sessions that own queued jobs run them to completion) → unblock and
//! join the acceptor → join the sessions → write the checkpoint. Every
//! admitted request is answered before the checkpoint is written; nothing
//! is dropped silently.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use cqm_core::pipeline::QualifiedClassification;
use cqm_persist::CheckpointHandle;
use cqm_resilience::degrade::{DegradationLadder, DegradationPolicy, HealthState};

use crate::batch::{answer_next_batch, BatchScratch, Job, Work};
use crate::dedup::{Claim, DedupConfig, DedupWindow};
use crate::model::{ModelSource, ServeCheckpoint, ServedModel};
use crate::protocol::{
    read_frame_within, write_frame, FrameRead, Request, RequestId, Response, ServerHealth,
    SnapshotInfo, WireError,
};
use crate::queue::{Admission, AdmissionPolicy, BoundedQueue};
use crate::registry::{FleetConfig, ModelRegistry, DEFAULT_TENANT};
use crate::{Result, ServeError};

/// How often an idle session wakes to check for shutdown.
const SESSION_POLL: Duration = Duration::from_millis(50);

/// Longest a duplicate request waits for its executing twin's answer.
/// The twin answers every admitted job, so this only fires if the dedup
/// slot was lost — it converts a hung client into a typed internal error.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Execution permits: how many sessions may evaluate queued work at
    /// once (clamped to at least 1). No thread is started per permit.
    pub workers: usize,
    /// Bounded queue capacity (clamped to at least 1): how many admitted
    /// jobs may wait for a permit holder to evaluate them.
    pub queue_capacity: usize,
    /// What happens to requests arriving at a full queue.
    pub admission: AdmissionPolicy,
    /// Most jobs a permit holder pops from the queue head per permit and
    /// answers one after another (clamped to at least 1).
    pub micro_batch: usize,
    /// Where to write the shutdown checkpoint; `None` disables it.
    pub checkpoint: Option<PathBuf>,
    /// Artificial per-micro-batch evaluation delay, slept by the permit
    /// holder while it holds the permit — a load-shaping knob for overload
    /// tests. `None` in production.
    pub eval_delay: Option<Duration>,
    /// Overall budget for reading one frame once its first byte arrived —
    /// the slow-loris defense. `None` leaves only the stall-count backstop.
    pub frame_deadline: Option<Duration>,
    /// Socket write timeout for responses; a peer that stops draining its
    /// receive buffer is cut off rather than parking the session forever.
    pub write_timeout: Option<Duration>,
    /// Bounds of the exactly-once dedup window.
    pub dedup: DedupConfig,
    /// Degradation ladder driven by admission outcomes: sustained overload
    /// tightens the effective queue limit, Failsafe serves typed last-good
    /// answers. `None` disables the ladder (admission behaves as PR 5).
    pub ladder: Option<DegradationPolicy>,
    /// Multi-tenant fleet knobs: per-tenant bulkheads, the LRU model
    /// capacity, the checkpoint store, and swap validation (DESIGN.md §13).
    pub fleet: FleetConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 256,
            admission: AdmissionPolicy::Reject,
            micro_batch: 16,
            checkpoint: None,
            eval_delay: None,
            frame_deadline: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            dedup: DedupConfig::default(),
            ladder: None,
            fleet: FleetConfig::default(),
        }
    }
}

/// The execution permits ([`ServerConfig::workers`]) and the condvar a
/// session waits on when none is free or when its own job is in another
/// holder's hands.
struct Permits {
    free: Mutex<usize>,
    changed: Condvar,
}

impl Permits {
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every waiting session after answering another session's job
    /// outside a permit (the `DropOldest` shedder). Taking the lock first
    /// is what makes the wake-up reliable: a waiter checks its reply
    /// channel under this lock, so it has either seen the answer already
    /// or is parked on the condvar by the time the lock is free.
    fn wake_all(&self) {
        let _free = self.lock();
        self.changed.notify_all();
    }
}

/// What one session keeps across requests: the one-slot reply channel its
/// queued job is answered on, and the buffers it evaluates micro-batches
/// with.
struct SessionState {
    reply_tx: mpsc::SyncSender<Response>,
    reply_rx: mpsc::Receiver<Response>,
    batch: BatchScratch,
}

/// State shared by the acceptor and the sessions.
struct Shared {
    /// The tenant router: every classify admission passes through it and
    /// comes back with an engine lease (or a typed bulkhead answer).
    registry: ModelRegistry,
    queue: BoundedQueue<Job>,
    admission: AdmissionPolicy,
    permits: Permits,
    micro_batch: usize,
    eval_delay: Option<Duration>,
    /// Set first during shutdown: sessions refuse new work, the acceptor
    /// stops accepting.
    draining: AtomicBool,
    /// Signalled when somebody (a client's `Shutdown` request, or the
    /// owner) asks the server to stop; `join` waits on it.
    stop_requested: Mutex<bool>,
    stop_cv: Condvar,
    requests: AtomicU64,
    rows_classified: AtomicU64,
    session_errors: AtomicU64,
    degraded_served: AtomicU64,
    snapshot: SnapshotInfo,
    workers: usize,
    /// The exactly-once window; every Classify/ClassifyBatch id passes
    /// through it.
    dedup: DedupWindow,
    /// Admission-driven degradation ladder; `None` when not configured.
    ladder: Option<Mutex<DegradationLadder>>,
    /// Last fresh single classification, served (typed as degraded) in
    /// Failsafe instead of a bare rejection.
    last_good: Mutex<Option<QualifiedClassification>>,
    frame_deadline: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Feed one admission outcome into the ladder (if any) and map the
    /// resulting state onto the queue's effective limit. Returns the state
    /// after the event. The ladder lock is released before touching the
    /// queue, so no lock is ever held across another lock or a notify.
    fn ladder_event(&self, success: bool) -> Option<HealthState> {
        let ladder = self.ladder.as_ref()?;
        let state = {
            let mut guard = ladder.lock().unwrap_or_else(PoisonError::into_inner);
            if success {
                guard.on_success()
            } else {
                guard.on_fault()
            }
        };
        let cap = self.queue.capacity();
        let limit = match state {
            HealthState::Healthy => cap,
            HealthState::Degraded | HealthState::Recovering => (cap / 2).max(1),
            HealthState::Failsafe => 1,
        };
        self.queue.set_limit(limit);
        Some(state)
    }

    fn ladder_name(&self) -> Option<String> {
        let ladder = self.ladder.as_ref()?;
        let guard = ladder.lock().unwrap_or_else(PoisonError::into_inner);
        Some(guard.state().name().to_string())
    }

    /// The Failsafe answer: the last fresh classification, if any, typed
    /// as degraded on the wire.
    fn degraded_answer(&self) -> Option<Response> {
        let cached = *self
            .last_good
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let result = cached?;
        self.degraded_served.fetch_add(1, Ordering::Relaxed);
        Some(Response::ClassifiedDegraded { result })
    }

    fn remember_good(&self, result: &QualifiedClassification) {
        let mut guard = self
            .last_good
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some(*result);
    }

    fn request_stop(&self) {
        let mut stop = self
            .stop_requested
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *stop = true;
        self.stop_cv.notify_all();
    }

    fn wait_for_stop(&self) {
        let mut stop = self
            .stop_requested
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*stop {
            stop = self
                .stop_cv
                .wait(stop)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn health(&self) -> ServerHealth {
        let qs = self.queue.stats();
        let ds = self.dedup.stats();
        let fleet = self.registry.stats();
        ServerHealth {
            requests: self.requests.load(Ordering::Relaxed),
            rows_classified: self.rows_classified.load(Ordering::Relaxed),
            rejected: qs.rejected,
            shed: qs.shed,
            queue_highwater: qs.highwater,
            session_errors: self.session_errors.load(Ordering::Relaxed),
            dedup_hits: ds.dedup_hits,
            duplicate_executions: ds.duplicate_executions,
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            ladder: self.ladder_name(),
            workers: self.workers,
            draining: self.draining(),
            tenants: fleet.tenants,
            tenants_quarantined: fleet.tenants_quarantined,
            warm_loads: fleet.warm_loads,
            evictions: fleet.evictions,
            swaps: fleet.swaps,
            swap_rollbacks: fleet.swap_rollbacks,
            tenant_overloads: fleet.tenant_overloads,
            quarantined_answers: fleet.quarantined_answers,
            version_rejections: self.registry.version_rejections(),
        }
    }
}

/// A running server. Dropping it performs a full graceful shutdown; call
/// [`CqmServer::shutdown`] to get the final health and checkpoint result
/// explicitly.
pub struct CqmServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    checkpoint: Option<CheckpointHandle>,
    model: ServedModel,
    start_seq: u64,
    finished: bool,
}

impl CqmServer {
    /// Resolve the model, bind the listener, start the acceptor.
    ///
    /// # Errors
    ///
    /// * model resolution failures (see [`ModelSource::resolve`]);
    /// * [`ServeError::Io`] if the address cannot be bound.
    pub fn start(source: ModelSource, config: ServerConfig) -> Result<CqmServer> {
        let resolved = source.resolve()?;
        let registry = ModelRegistry::new(config.fleet)?;
        registry.install(DEFAULT_TENANT, resolved.model.clone(), resolved.seq)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::io(format!("binding {}", config.addr), &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("reading bound address", &e))?;

        let workers = config.workers.max(1);
        let snapshot = SnapshotInfo {
            checkpoint_seq: resolved.seq,
            warm_started: resolved.warm_started,
            cue_dim: resolved.model.cue_dim(),
            num_classes: resolved.model.num_classes(),
            threshold: resolved.model.model().threshold,
            note: resolved.model.model().note.clone(),
        };
        let shared = Arc::new(Shared {
            registry,
            queue: BoundedQueue::new(config.queue_capacity),
            admission: config.admission,
            permits: Permits {
                free: Mutex::new(workers),
                changed: Condvar::new(),
            },
            micro_batch: config.micro_batch.max(1),
            eval_delay: config.eval_delay,
            draining: AtomicBool::new(false),
            stop_requested: Mutex::new(false),
            stop_cv: Condvar::new(),
            requests: AtomicU64::new(0),
            rows_classified: AtomicU64::new(0),
            session_errors: AtomicU64::new(0),
            degraded_served: AtomicU64::new(0),
            snapshot,
            workers,
            dedup: DedupWindow::new(config.dedup),
            ladder: config
                .ladder
                .map(|policy| Mutex::new(DegradationLadder::new(policy))),
            last_good: Mutex::new(None),
            frame_deadline: config.frame_deadline,
            write_timeout: config.write_timeout,
        });

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            std::thread::spawn(move || accept_loop(&listener, &shared, &sessions))
        };

        Ok(CqmServer {
            addr,
            shared,
            acceptor: Some(acceptor),
            sessions,
            checkpoint: config.checkpoint.map(CheckpointHandle::new),
            model: resolved.model,
            start_seq: resolved.seq,
            finished: false,
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current load counters.
    pub fn health(&self) -> ServerHealth {
        self.shared.health()
    }

    /// Install (or replace, *without* swap validation) a tenant's model.
    /// This is the cold-provisioning path: the model is persisted to the
    /// fleet store (when one is configured) and the slot flips immediately.
    /// For a validated, zero-drop replacement of a live model use
    /// [`CqmServer::swap_model`].
    ///
    /// # Errors
    ///
    /// See [`FleetConfig`]: invalid tenant key, or a store write failure.
    pub fn install_model(&self, tenant: &str, model: ServedModel) -> Result<()> {
        self.shared.registry.install(tenant, model, 0)
    }

    /// Zero-drop hot swap of `tenant`'s live model: the candidate is built
    /// and validated beside the live engine (construction revalidation, a
    /// bit-exact replay probe over `FleetConfig::probe_cues`, persist +
    /// reload verification), then the routing slot flips atomically.
    /// In-flight requests finish on the old engine; no request is dropped
    /// and none is answered by a half-loaded model. A tenant evicted to
    /// its checkpoint is an equally valid target: the new generation is
    /// validated and persisted, and the next warm-load serves it. A
    /// quarantined tenant is repaired by a successful swap — the verified
    /// checkpoint replaces the corrupt one and its breaker closes.
    /// Returns the new checkpoint generation.
    ///
    /// # Errors
    ///
    /// Any validation or persistence failure rolls back to last-good and
    /// leaves routing untouched; see `ModelRegistry::swap` in
    /// `registry.rs` for the variants.
    pub fn swap_model(&self, tenant: &str, model: ServedModel) -> Result<u64> {
        self.shared.registry.swap(tenant, model)
    }

    /// Block until a client's `Shutdown` request (or a concurrent
    /// [`CqmServer::shutdown`]) stops the server, then finish the drain
    /// and return the final health.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Persist`] if the shutdown checkpoint cannot
    /// be written; the drain itself always completes.
    pub fn join(mut self) -> Result<ServerHealth> {
        self.shared.wait_for_stop();
        self.finish()
    }

    /// Drain and stop now: refuse new work, answer everything admitted,
    /// tear down the threads, write the checkpoint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmServer::join`].
    pub fn shutdown(mut self) -> Result<ServerHealth> {
        self.shared.request_stop();
        self.finish()
    }

    fn finish(&mut self) -> Result<ServerHealth> {
        if self.finished {
            return Ok(self.shared.health());
        }
        self.finished = true;
        // 1. No new work: sessions answer ShuttingDown, acceptor stops.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.request_stop();
        // 2. Admission refuses from here on; every session that owns a
        //    queued job stays in its run-to-completion loop until the job
        //    is answered.
        self.shared.queue.close();
        // 3. The acceptor is parked in accept(); a throwaway connection
        //    wakes it so it can observe the draining flag. A failed
        //    connect only means the listener is already gone. Bounded, so
        //    a pathological network stack cannot park shutdown forever.
        drop(TcpStream::connect_timeout(
            &self.addr,
            Duration::from_secs(2),
        ));
        if let Some(h) = self.acceptor.take() {
            let _joined = h.join();
        }
        // 4. Join the sessions: each returns only after writing every
        //    answer it owes.
        let handles: Vec<JoinHandle<()>> = {
            let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            sessions.drain(..).collect()
        };
        for h in handles {
            let _joined = h.join();
        }
        // 5. Only now — with every answer delivered — write the
        //    checkpoint the next instance warm-starts from. The default
        //    tenant's *current* slot is what the next instance should
        //    serve, so a hot swap survives the restart; the boot model is
        //    only a fallback if that slot was evicted mid-drain.
        if let Some(handle) = &self.checkpoint {
            let (model, seq) = self
                .shared
                .registry
                .current(DEFAULT_TENANT)
                .unwrap_or((self.model.clone(), self.start_seq));
            let ck = ServeCheckpoint {
                seq: seq + 1,
                model,
            };
            handle.save(&ck)?;
        }
        Ok(self.shared.health())
    }
}

impl Drop for CqmServer {
    fn drop(&mut self) {
        // Best-effort graceful shutdown for servers dropped without an
        // explicit call; Drop cannot propagate the checkpoint error.
        if !self.finished {
            let _result = self.finish();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining() {
                    // The shutdown self-connect (or a late client); the
                    // connection is dropped unanswered.
                    break;
                }
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || run_session(stream, &shared));
                sessions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(_accept_error) => {
                // Transient accept failures (e.g. aborted handshake) are
                // not fatal; leave only when shutting down.
                if shared.draining() {
                    break;
                }
            }
        }
    }
}

fn run_session(stream: TcpStream, shared: &Shared) {
    if let Err(e) = session(&stream, shared) {
        shared.session_errors.fetch_add(1, Ordering::Relaxed);
        // Best-effort typed goodbye: tell the client *why* before closing.
        // The transport may already be gone, in which case there is nobody
        // left to tell and the counter above is the only trace.
        let goodbye = match &e {
            // Version negotiation: a frame from an older (or newer) build
            // gets the typed refusal immediately — no retries, no parsing
            // of a payload we do not understand.
            ServeError::ProtocolVersion { found, .. } => {
                shared.registry.note_version_rejection();
                Response::Error {
                    error: WireError::unsupported_version(*found),
                }
            }
            _ => Response::Error {
                error: WireError::bad_request(format!("closing connection: {e}")),
            },
        };
        if write_frame(&mut &stream, &goodbye).is_err() {
            // Connection unusable; already counted.
        }
    }
}

/// Speak the protocol with one client until EOF, shutdown, or a protocol
/// error (which the caller turns into a typed goodbye).
///
/// Frames are read through one `BufReader` kept for the whole session, so
/// a frame that has arrived costs one `recv` (header and payload come out
/// of the same buffer fill) and frames a client sent back to back are
/// served from the buffer in order. Answers are written to the socket
/// directly.
fn session(stream: &TcpStream, shared: &Shared) -> Result<()> {
    stream
        .set_read_timeout(Some(SESSION_POLL))
        .map_err(|e| ServeError::io("configuring session socket", &e))?;
    stream
        .set_write_timeout(shared.write_timeout)
        .map_err(|e| ServeError::io("configuring session socket", &e))?;
    // One reply channel per session: a session has at most one job in
    // flight and stays in `run_to_completion` until that job's answer
    // arrives, so the channel is empty whenever a job is pushed. Capacity
    // 1 — one slot for that single answer, which its answerer `try_send`s.
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
    let mut state = SessionState {
        reply_tx,
        reply_rx,
        batch: BatchScratch::default(),
    };
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        match read_frame_within::<_, Request>(&mut reader, shared.frame_deadline)? {
            FrameRead::Idle => {
                if shared.draining() {
                    return Ok(());
                }
            }
            FrameRead::Eof => return Ok(()),
            FrameRead::Frame(request) => {
                let response = handle_request(request, shared, &mut state);
                write_frame(&mut writer, &response)?;
            }
        }
    }
}

fn handle_request(request: Request, shared: &Shared, state: &mut SessionState) -> Response {
    match request {
        Request::Classify { id, tenant, cues } => with_dedup(shared, id, || {
            submit(shared, tenant.as_deref(), Work::One(cues), state)
        }),
        Request::ClassifyBatch { id, tenant, rows } => with_dedup(shared, id, || {
            submit(shared, tenant.as_deref(), Work::Many(rows), state)
        }),
        Request::Snapshot => Response::Snapshot {
            info: shared.snapshot.clone(),
        },
        Request::Health => Response::Health {
            health: shared.health(),
        },
        Request::Shutdown => {
            shared.request_stop();
            Response::ShuttingDown
        }
    }
}

/// Route one classify request through the exactly-once window: first
/// arrival executes, concurrent duplicates park for the same answer,
/// later duplicates replay the cache.
fn with_dedup(shared: &Shared, id: RequestId, run: impl FnOnce() -> Response) -> Response {
    match shared.dedup.begin(id) {
        Claim::Execute => {
            let response = run();
            shared.dedup.complete(id, &response);
            response
        }
        Claim::Replay(response) => response,
        Claim::Wait(rx) => match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(response) => response,
            // The executing arrival's slot was evicted (window overflow)
            // or it never completed; answer typed rather than hanging.
            Err(_) => Response::Error {
                error: WireError::internal("duplicate request lost its executing twin"),
            },
        },
    }
}

/// Admit one classify job and run it to completion. No fast path: there
/// is no other way to evaluate a request, so every job goes through the
/// bounded queue, and admission, the ladder and the queue counters see
/// all of them.
fn submit(shared: &Shared, tenant: Option<&str>, work: Work, state: &mut SessionState) -> Response {
    if shared.draining() {
        return Response::Error {
            error: WireError::shutting_down(),
        };
    }
    // The bulkhead: admit through the tenant's slot first. A typed shed
    // here (Overloaded / TenantQuarantined / BadRequest) is that tenant's
    // private problem — it never touches the shared queue or the global
    // ladder, so peers are unaffected. The lease pins the engine for the
    // whole exchange and releases the tenant budget when this fn returns.
    let lease = match shared.registry.admit(tenant.unwrap_or(DEFAULT_TENANT)) {
        Ok(lease) => lease,
        Err(error) => return Response::Error { error },
    };
    let job = Job {
        work,
        reply: state.reply_tx.clone(),
        engine: Arc::clone(&lease.engine),
    };
    match shared.queue.push(job, &shared.admission) {
        Admission::Enqueued => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            settle(shared, run_to_completion(shared, state))
        }
        Admission::Shed(evicted) => {
            // The evicted job's owner waits in its run-to-completion loop
            // and nobody else will answer it: send the typed overload
            // answer, then wake the waiters (no lost answer).
            let _ = evicted.reply.try_send(Response::Error {
                error: WireError::overloaded(),
            });
            shared.permits.wake_all();
            shared.requests.fetch_add(1, Ordering::Relaxed);
            settle(shared, run_to_completion(shared, state))
        }
        Admission::Rejected(job) => {
            let state = shared.ladder_event(false);
            // In Failsafe a rejected *single* classify is served the
            // last-good answer, typed as degraded; batches and cold
            // caches still get the honest overload error.
            if state == Some(HealthState::Failsafe) {
                if let Work::One(_) = &job.work {
                    if let Some(degraded) = shared.degraded_answer() {
                        return degraded;
                    }
                }
            }
            Response::Error {
                error: WireError::overloaded(),
            }
        }
    }
}

/// Post-process an answered job: remember fresh singles for Failsafe and
/// feed the ladder (success for served classifications, fault for
/// overload/internal outcomes).
fn settle(shared: &Shared, response: Response) -> Response {
    match &response {
        Response::Classified { result } => {
            shared.remember_good(result);
            shared.ladder_event(true);
        }
        Response::ClassifiedBatch { .. } => {
            shared.ladder_event(true);
        }
        Response::Error { error } => match error.kind {
            crate::protocol::WireErrorKind::Overloaded
            | crate::protocol::WireErrorKind::Internal => {
                shared.ladder_event(false);
            }
            // A bad request is the client's fault, not server pressure;
            // per-tenant sheds never reach here (submit returns them
            // before the queue), but an explicit no-op keeps the bulkhead
            // invariant — tenant trouble must not move the global ladder.
            crate::protocol::WireErrorKind::BadRequest
            | crate::protocol::WireErrorKind::ShuttingDown
            | crate::protocol::WireErrorKind::UnsupportedVersion
            | crate::protocol::WireErrorKind::TenantQuarantined => {}
        },
        _ => {}
    }
    response
}

/// Evaluate queued micro-batches under an execution permit until this
/// session's own job has been answered, and return that answer.
///
/// The wake-up invariants (DESIGN.md §10):
///
/// * **No lost answer.** Whoever answers a job sends the answer before it
///   takes the permit lock: a permit holder before it locks to release,
///   the `DropOldest` shedder before [`Permits::wake_all`]. A waiter checks
///   its reply channel while it holds that lock and only then waits, so
///   an answer it missed is followed by a notify that finds it waiting.
/// * **No stranded job.** Every queued job's owner is inside this loop,
///   and every release wakes the waiters. An owner whose job is still
///   queued takes the next free permit itself, and since every holder pops
///   from the head, each batch moves its job closer to being answered.
/// * **No starvation.** A holder takes one micro-batch per permit
///   acquisition and leaves as soon as its own answer is in; it never
///   drains the queue for sessions whose clients keep sending.
/// * **No fast path.** The caller admitted the job through the bounded
///   queue; nothing here evaluates work that did not come from it.
fn run_to_completion(shared: &Shared, state: &mut SessionState) -> Response {
    let permits = &shared.permits;
    // Set when a pop found the queue empty: this session's job is in
    // another holder's hands (or was shed), and that holder's release or
    // the shedder's wake-up follows its answer. Waiting for it instead of
    // re-taking the permit keeps a free permit from being spun on.
    let mut in_other_hands = false;
    let mut free = permits.lock();
    loop {
        // Checked under the permit lock: see "no lost answer".
        if let Ok(response) = state.reply_rx.try_recv() {
            return response;
        }
        if in_other_hands || *free == 0 {
            free = permits
                .changed
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
            in_other_hands = false;
            continue;
        }
        *free -= 1;
        drop(free);
        // No starvation: one micro-batch per permit acquisition, then back
        // to the answer check above.
        let took = answer_next_batch(
            &shared.queue,
            shared.micro_batch,
            shared.eval_delay,
            &shared.rows_classified,
            &mut state.batch,
        );
        // Every answer in the batch was sent above, before this lock.
        free = permits.lock();
        *free += 1;
        // No stranded job: every release wakes the waiters.
        permits.changed.notify_all();
        in_other_hands = !took;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, CqmClient};
    use crate::model::test_support::tiny_model;

    fn quick_client(addr: SocketAddr) -> CqmClient {
        CqmClient::connect(addr, ClientConfig::default()).expect("connect")
    }

    #[test]
    fn serves_classify_and_introspection_then_shuts_down() {
        let server = CqmServer::start(
            ModelSource::Fresh(tiny_model()),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("start");
        let mut client = quick_client(server.local_addr());

        let one = client.classify(&[0.9]).expect("classify");
        assert_eq!(one.class.0, 1);
        let many = client
            .classify_batch(&[vec![0.1], vec![0.9]])
            .expect("batch");
        assert_eq!(many.len(), 2);
        assert_eq!(many[0].class.0, 0);

        let info = client.snapshot().expect("snapshot");
        assert_eq!(info.cue_dim, 1);
        assert!(!info.warm_started);
        let health = client.health().expect("health");
        assert_eq!(health.requests, 2);
        assert_eq!(health.rows_classified, 3);

        let final_health = server.shutdown().expect("shutdown");
        assert_eq!(final_health.rows_classified, 3);
        assert!(final_health.draining);
    }

    #[test]
    fn health_counts_every_answer_already_delivered() {
        // A client holding an answer must find it counted in Health: the
        // permit holder counts a job's rows before the reply leaves it. A
        // spinning thread keeps one core busy, so the scheduler often
        // preempts the server right after the answer is written — the
        // moment an answer could overtake its count.
        let server = CqmServer::start(
            ModelSource::Fresh(tiny_model()),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("start");
        let mut client = quick_client(server.local_addr());
        let done = AtomicBool::new(false);
        let first_lag = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            let first_lag = (1..=2000u64).find_map(|answers| {
                if let Err(e) = client.classify(&[(answers % 100) as f64 / 100.0]) {
                    return Some(format!("call {answers} failed: {e}"));
                }
                let health = server.health();
                (health.requests != answers || health.rows_classified != answers).then(|| {
                    format!(
                        "after {answers} answers Health counts {} requests, {} rows",
                        health.requests, health.rows_classified
                    )
                })
            });
            done.store(true, Ordering::Relaxed);
            first_lag
        });
        assert_eq!(first_lag, None);
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn bad_cues_get_typed_errors_not_disconnects() {
        let server = CqmServer::start(ModelSource::Fresh(tiny_model()), ServerConfig::default())
            .expect("start");
        let mut client = quick_client(server.local_addr());
        let err = client.classify(&[0.1, 0.2]).expect_err("dim mismatch");
        assert!(matches!(
            err,
            ServeError::Remote(WireError {
                kind: crate::protocol::WireErrorKind::BadRequest,
                ..
            })
        ));
        // The connection survives a bad request.
        assert!(client.classify(&[0.5]).is_ok());
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn non_finite_cue_bits_get_typed_bad_requests_and_the_server_keeps_serving() {
        // The encoder refuses non-finite cues, so these v4 Classify frames
        // are built by hand: NaN and +inf bits under a valid CRC.
        let server = CqmServer::start(ModelSource::Fresh(tiny_model()), ServerConfig::default())
            .expect("start");
        let mut stream = TcpStream::connect_timeout(&server.local_addr(), Duration::from_secs(5))
            .expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut exchange = |frame: &[u8]| {
            std::io::Write::write_all(&mut stream, frame).expect("send");
            match crate::protocol::read_frame::<_, Response>(&mut stream).expect("read") {
                FrameRead::Frame(response) => response,
                other => panic!("expected an answer, got {other:?}"),
            }
        };
        for (request, cue) in [(1u64, f64::NAN), (2, f64::INFINITY)] {
            let payload = [
                &[0x01][..],            // kind: Classify
                &77u64.to_le_bytes(),   // session
                &request.to_le_bytes(), // request
                &[0],                   // tenant: None
                &1u32.to_le_bytes(),    // 1 cue
                &cue.to_bits().to_le_bytes(),
            ]
            .concat();
            let frame = crate::protocol::frame_raw_payload(crate::PROTOCOL_VERSION, &payload)
                .expect("frame");
            match exchange(&frame) {
                Response::Error { error } => {
                    assert_eq!(error.kind, crate::WireErrorKind::BadRequest, "{cue}");
                }
                other => panic!("{cue} got {other:?}, want a typed bad request"),
            }
        }
        // The same connection, and the server, keep serving.
        let clean = crate::protocol::encode_frame(&Request::Classify {
            id: RequestId {
                session: 77,
                request: 3,
            },
            tenant: None,
            cues: vec![0.9],
        })
        .expect("encode");
        assert!(matches!(exchange(&clean), Response::Classified { .. }));
        assert!(quick_client(server.local_addr()).classify(&[0.1]).is_ok());
        let health = server.shutdown().expect("shutdown");
        assert_eq!(health.session_errors, 0);
    }

    /// The bound on every call and on shutdown in the permit tests: far
    /// below `REPLY_TIMEOUT`, so a missed wake-up fails a test instead of
    /// being waited out.
    const BOUND: Duration = Duration::from_secs(5);

    fn bounded_client(addr: SocketAddr) -> CqmClient {
        CqmClient::connect(
            addr,
            ClientConfig {
                connect_timeout: BOUND,
                io_timeout: BOUND,
                call_deadline: BOUND,
                // Surface Overloaded (and any transport fault) as is.
                retries: 0,
                ..ClientConfig::default()
            },
        )
        .expect("connect")
    }

    /// Shut down on a helper thread and wait at most [`BOUND`]: a session
    /// left parked by a missed wake-up would hang the join forever.
    fn shutdown_bounded(server: CqmServer) -> ServerHealth {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.shutdown());
        });
        rx.recv_timeout(BOUND)
            .expect("shutdown joined every session in time")
            .expect("shutdown")
    }

    fn permit_server(config: ServerConfig) -> CqmServer {
        CqmServer::start(ModelSource::Fresh(tiny_model()), config).expect("start")
    }

    /// The in-process answer for `x`, as `(class, quality bits, accept)`.
    fn expected_bits(x: f64) -> (usize, Option<u64>, bool) {
        let model = tiny_model();
        let system = cqm_core::CqmSystem::new(
            model.classifier().clone(),
            model.model().measure.clone(),
            model.filter().expect("filter"),
        )
        .expect("system");
        bits(&system.classify_with_quality(&[x]).expect("reference"))
    }

    fn bits(q: &QualifiedClassification) -> (usize, Option<u64>, bool) {
        (
            q.class.0,
            q.quality.value().map(f64::to_bits),
            q.decision.is_accept(),
        )
    }

    fn is_kind(outcome: &Result<QualifiedClassification>, kind: crate::WireErrorKind) -> bool {
        matches!(outcome, Err(ServeError::Remote(e)) if e.kind == kind)
    }

    #[test]
    fn one_permit_starves_no_closed_loop_client() {
        // One permit, one job per batch and a batch slower than a
        // client's round trip: nearly every call queues behind another
        // session's and waits for a release, so a release that wakes
        // nobody, or a session that never gets its turn, leaves some
        // client waiting past the bound.
        let server = permit_server(ServerConfig {
            workers: 1,
            micro_batch: 1,
            eval_delay: Some(Duration::from_micros(200)),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let calls = 300usize;
        let outcomes: Vec<Result<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = bounded_client(addr);
                        for i in 0..calls {
                            client.classify(&[(i % 100) as f64 / 100.0])?;
                        }
                        Ok(calls)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let health = shutdown_bounded(server);
        for outcome in &outcomes {
            assert_eq!(outcome.as_ref().ok(), Some(&calls), "{outcome:?}");
        }
        assert_eq!(health.rows_classified, 900);
        assert_eq!(health.session_errors, 0);
    }

    #[test]
    fn combined_micro_batches_answer_every_owner_bit_identically() {
        // One permit and a 20-ms batch: while the holder sleeps, the other
        // sessions' jobs queue up, and each later batch answers up to four
        // sessions at once.
        let server = permit_server(ServerConfig {
            workers: 1,
            micro_batch: 4,
            eval_delay: Some(Duration::from_millis(20)),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let clients = 6usize;
        let calls = 3usize;
        let barrier = std::sync::Barrier::new(clients);
        let answers: Vec<Vec<(f64, Result<QualifiedClassification>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut client = bounded_client(addr);
                            barrier.wait();
                            (0..calls)
                                .map(|i| {
                                    // Distinct cues per client, so an answer
                                    // delivered to the wrong owner shows.
                                    let x = (c * calls + i) as f64 / (clients * calls) as f64;
                                    (x, client.classify(&[x]))
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client"))
                    .collect()
            });
        let health = shutdown_bounded(server);
        for (x, outcome) in answers.iter().flatten() {
            match outcome {
                Ok(answer) => assert_eq!(bits(answer), expected_bits(*x), "x={x}"),
                Err(e) => panic!("x={x}: {e}"),
            }
        }
        assert_eq!(health.rows_classified, (clients * calls) as u64);
        assert!(health.queue_highwater >= 2, "jobs queued behind the holder");
        assert_eq!(health.session_errors, 0);
    }

    #[test]
    fn drop_oldest_answers_the_evicted_session_typed() {
        let server = permit_server(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            admission: AdmissionPolicy::DropOldest,
            eval_delay: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let clients = 3usize;
        let barrier = std::sync::Barrier::new(clients);
        let outcomes: Vec<Result<QualifiedClassification>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut client = bounded_client(addr);
                        barrier.wait();
                        client.classify(&[0.75])
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let health = shutdown_bounded(server);
        let mut overloaded = 0;
        for outcome in &outcomes {
            match outcome {
                Ok(answer) => assert_eq!(bits(answer), expected_bits(0.75)),
                other if is_kind(other, crate::WireErrorKind::Overloaded) => overloaded += 1,
                other => panic!("want an answer or a typed Overloaded, got {other:?}"),
            }
        }
        assert!(overloaded >= 1, "three pushes into one slot must shed");
        assert!(health.shed >= 1);
        assert_eq!(health.session_errors, 0);
    }

    #[test]
    fn shutdown_mid_load_answers_every_admitted_job() {
        let server = permit_server(ServerConfig {
            workers: 1,
            micro_batch: 1,
            queue_capacity: 8,
            eval_delay: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let clients = 5u64;
        let barrier = std::sync::Barrier::new(clients as usize + 1);
        let (before, after, outcomes) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut client = bounded_client(addr);
                        barrier.wait();
                        client.classify(&[c as f64 / 5.0])
                    })
                })
                .collect();
            barrier.wait();
            // Shut down once every call is admitted: one job is being
            // evaluated and the rest wait in the queue.
            let admitted_by = std::time::Instant::now() + BOUND;
            let before = loop {
                let health = server.health();
                if health.requests == clients || std::time::Instant::now() > admitted_by {
                    break health;
                }
                std::thread::yield_now();
            };
            let after = shutdown_bounded(server);
            let outcomes: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect();
            (before, after, outcomes)
        });
        assert_eq!(before.requests, clients, "every call admitted");
        assert!(before.rows_classified < clients, "shutdown began mid-load");
        let mut classified = 0u64;
        for outcome in &outcomes {
            match outcome {
                Ok(_) => classified += 1,
                other
                    if is_kind(other, crate::WireErrorKind::ShuttingDown)
                        || is_kind(other, crate::WireErrorKind::Overloaded) => {}
                other => panic!("an in-flight call must end typed, got {other:?}"),
            }
        }
        assert_eq!(after.rows_classified, classified);
        assert_eq!(after.session_errors, 0);
    }

    #[test]
    fn client_shutdown_request_stops_join() {
        let server = CqmServer::start(ModelSource::Fresh(tiny_model()), ServerConfig::default())
            .expect("start");
        let addr = server.local_addr();
        let stopper = std::thread::spawn(move || {
            let mut client = quick_client(addr);
            client.shutdown().expect("shutdown request");
        });
        let health = server.join().expect("join");
        stopper.join().expect("stopper");
        assert!(health.draining);
    }
}
