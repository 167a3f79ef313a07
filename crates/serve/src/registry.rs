//! The model registry: tenant-keyed routing slots with bulkhead isolation,
//! checkpoint-backed LRU eviction/warm-load, and zero-drop hot swap.
//!
//! One [`ModelRegistry`] sits between session admission and the request
//! queue. Every classify request names a tenant (default: the
//! [`DEFAULT_TENANT`] slot) and is admitted through that tenant's **slot**,
//! a tiny state machine (DESIGN.md §13):
//!
//! ```text
//!            warm-load ok                      swap ok (atomic flip)
//!   Cold ──────────────────▶ Active ◀────────────────────────┐
//!    ▲  ╲ load failed          │  ╲                          │
//!    │   ╲ (breaker trips)     │   ╲ LRU eviction            │ candidate
//!    │    ▼                    │    ▼ (checkpoint-backed)    │ validated
//!    │  Quarantined ◀──────────┘   Cold                      │ beside live
//!    │      │    probe failed                                │ model
//!    │      │ breaker cooldown: HalfOpen reload probe ───────┘
//!    └──────┴── probe ok
//! ```
//!
//! **Bulkheads.** Each slot has its own in-flight budget and its own
//! [`CircuitBreaker`]. A hot tenant is shed with a typed
//! `Overloaded` answer *before* touching the shared queue; a tenant whose
//! checkpoint fails to load is quarantined behind its breaker and answered
//! `TenantQuarantined` until a cooldown-gated reload probe succeeds — or a
//! fully verified hot swap repairs the checkpoint and closes the breaker.
//! Neither path touches any other tenant's slot, the shared queue, or the
//! global degradation ladder — peers keep answering bit-identically to the
//! in-process pipeline.
//!
//! **Zero-drop hot swap.** [`ModelRegistry::swap`] builds the candidate
//! engine *beside* the live one, validates it (construction revalidation +
//! a bit-exact replay probe against a pinned cue set), persists it to the
//! checkpoint store, re-reads and re-decodes what was persisted (the CRC
//! catches torn/corrupt writes — and, in drills, injected read faults),
//! and only then flips the routing slot under the lock. In-flight jobs
//! hold the old engine `Arc` and finish on it; requests admitted after the
//! flip get the new one. No request is dropped and none is ever answered
//! by a half-loaded model: an engine is reachable from a slot only after
//! it has fully validated. Any validation failure re-persists the
//! last-good model and leaves routing untouched.
//!
//! **Fault-tolerant warm-load.** Cold-slot loads read through an optional
//! seeded [`DiskFaultInjector`], so torn, corrupt and slow checkpoint
//! reads are first-class, replayable test inputs. Loads happen *outside*
//! the registry lock (a slow disk for tenant A must not block tenant B's
//! admission); concurrent requests for the still-loading tenant are shed
//! with retryable `Overloaded` answers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use cqm_core::{CqmSystem, QualityFilter};
use cqm_persist::{decode_checkpoint_bytes, CheckpointStore, PersistError};
use cqm_resilience::diskfault::{DiskFaultInjector, DiskFaultPlan};
use cqm_resilience::CircuitBreaker;

use crate::batch::{Engine, EngineScratch};
use crate::model::{ServeCheckpoint, ServedModel};
use crate::protocol::{WireError, WireErrorKind};
use crate::{Result, ServeError};

/// The tenant a request without an explicit key routes to.
pub const DEFAULT_TENANT: &str = "default";

/// Fleet behavior knobs, carried by `ServerConfig`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Most models held live at once; beyond this, the least-recently-used
    /// idle slot is evicted back to its checkpoint (only when a store is
    /// configured — eviction without a way back would lose models).
    pub max_active: usize,
    /// Per-tenant in-flight request budget (the bulkhead): requests beyond
    /// it are shed with `Overloaded` before touching the shared queue.
    pub per_tenant_inflight: usize,
    /// Checkpoint-load failures before a tenant's breaker opens.
    pub breaker_trip_after: usize,
    /// Breaker cooldown in admission ticks before a reload probe.
    pub breaker_cooldown: usize,
    /// Tenant-keyed checkpoint directory; `None` disables warm-load,
    /// eviction and swap persistence (an in-memory-only fleet).
    pub store_dir: Option<PathBuf>,
    /// Seeded read-fault injection for checkpoint loads (drills only).
    pub disk_faults: Option<DiskFaultPlan>,
    /// Pinned cue set replayed through every swap candidate: the candidate
    /// engine's answers must be bit-identical to a fresh in-process
    /// `CqmSystem` on the same model, or the swap rolls back.
    pub probe_cues: Vec<Vec<f64>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            max_active: 64,
            per_tenant_inflight: 32,
            breaker_trip_after: 1,
            breaker_cooldown: 8,
            store_dir: None,
            disk_faults: None,
            probe_cues: Vec::new(),
        }
    }
}

/// Registry counters, surfaced through `ServerHealth`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Tenants known to the registry (all slot states).
    pub tenants: u64,
    /// Tenants currently quarantined.
    pub tenants_quarantined: u64,
    /// Models loaded from the checkpoint store (cold → active).
    pub warm_loads: u64,
    /// Active models evicted back to their checkpoints.
    pub evictions: u64,
    /// Hot swaps that flipped a routing slot.
    pub swaps: u64,
    /// Swaps that failed validation and rolled back to last-good.
    pub swap_rollbacks: u64,
    /// Requests shed by a per-tenant admission budget.
    pub tenant_overloads: u64,
    /// Requests answered `TenantQuarantined`.
    pub quarantined_answers: u64,
}

/// One tenant's routing slot.
#[derive(Debug)]
enum SlotState {
    /// Model live in memory; requests route to `engine`.
    Active {
        engine: Arc<Engine>,
        model: ServedModel,
    },
    /// Known tenant, model on disk only; first admission warm-loads it.
    Cold,
    /// A warm-load is in progress on another thread (outside the lock);
    /// concurrent same-tenant requests are shed with retryable
    /// `Overloaded`.
    Loading,
    /// Checkpoint failed to load; the breaker gates reload probes.
    Quarantined { reason: String },
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// Checkpoint generation this slot last loaded or persisted.
    seq: u64,
    breaker: CircuitBreaker,
    inflight: usize,
    /// LRU clock value of the last admission.
    touched: u64,
}

#[derive(Debug, Default)]
struct Counters {
    warm_loads: u64,
    evictions: u64,
    swaps: u64,
    swap_rollbacks: u64,
    tenant_overloads: u64,
    quarantined_answers: u64,
}

#[derive(Debug)]
struct Inner {
    slots: BTreeMap<String, Slot>,
    /// Monotone LRU clock; bumped per admission.
    clock: u64,
    stats: Counters,
}

/// What `admit` decided while the lock was held; loads happen after.
enum Admitted {
    /// Route to this engine.
    Ready(Arc<Engine>, u64),
    /// Slot moved to `Loading`; caller must run the load and install the
    /// outcome.
    MustLoad,
}

/// The tenant router; see the module docs.
#[derive(Debug)]
pub(crate) struct ModelRegistry {
    inner: Mutex<Inner>,
    /// The injector has its own lock so a fault-delayed read never holds
    /// the routing lock (the whole point of loading outside it).
    injector: Mutex<Option<DiskFaultInjector>>,
    store: Option<CheckpointStore>,
    max_active: usize,
    per_tenant_inflight: usize,
    breaker_trip_after: usize,
    breaker_cooldown: usize,
    probe_cues: Vec<Vec<f64>>,
    version_rejections: AtomicU64,
}

impl ModelRegistry {
    /// Build the registry: open the store (creating the directory), seed a
    /// Cold slot for every checkpoint already on disk, arm the injector.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidConfig`] on zero budgets or an invalid
    ///   disk-fault plan;
    /// * [`ServeError::Persist`] if the store directory cannot be opened
    ///   or listed.
    pub(crate) fn new(config: FleetConfig) -> Result<Self> {
        if config.max_active == 0 || config.per_tenant_inflight == 0 {
            return Err(ServeError::InvalidConfig(
                "fleet budgets must be at least 1".into(),
            ));
        }
        let store = match &config.store_dir {
            Some(dir) => Some(CheckpointStore::new(dir)?),
            None => None,
        };
        let injector = match config.disk_faults {
            Some(plan) => Some(
                DiskFaultInjector::new(plan)
                    .map_err(|e| ServeError::InvalidConfig(e.to_string()))?,
            ),
            None => None,
        };
        let mut slots = BTreeMap::new();
        if let Some(store) = &store {
            for key in store.list_keys()? {
                slots.insert(
                    key,
                    Slot {
                        state: SlotState::Cold,
                        seq: 0,
                        breaker: new_breaker(config.breaker_trip_after, config.breaker_cooldown)?,
                        inflight: 0,
                        touched: 0,
                    },
                );
            }
        }
        Ok(ModelRegistry {
            inner: Mutex::new(Inner {
                slots,
                clock: 0,
                stats: Counters::default(),
            }),
            injector: Mutex::new(injector),
            store,
            max_active: config.max_active,
            per_tenant_inflight: config.per_tenant_inflight,
            breaker_trip_after: config.breaker_trip_after,
            breaker_cooldown: config.breaker_cooldown,
            probe_cues: config.probe_cues,
            version_rejections: AtomicU64::new(0),
        })
    }

    /// Install (or replace) a tenant's model directly, persisting it to the
    /// store when one is configured so the slot is eviction-safe. This is
    /// the *cold* path — server start and explicit installs; live
    /// replacements go through [`ModelRegistry::swap`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidConfig`] on a bad tenant key;
    /// * [`ServeError::Persist`] if persisting to the store fails (the
    ///   slot is not installed in that case).
    pub(crate) fn install(&self, tenant: &str, model: ServedModel, seq: u64) -> Result<()> {
        let engine = Arc::new(Engine::new(&model)?);
        if let Some(store) = &self.store {
            let handle = store.handle(tenant)?;
            handle.save(&ServeCheckpoint {
                seq,
                model: model.clone(),
            })?;
        } else {
            cqm_persist::validate_key(tenant)?;
        }
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        let slot = ensure_slot(
            &mut inner.slots,
            tenant,
            self.breaker_trip_after,
            self.breaker_cooldown,
        )?;
        slot.state = SlotState::Active { engine, model };
        slot.seq = seq;
        self.evict_over_capacity(inner);
        Ok(())
    }

    /// The live model and checkpoint generation for `tenant`, if its slot
    /// is Active (used for the shutdown checkpoint).
    pub(crate) fn current(&self, tenant: &str) -> Option<(ServedModel, u64)> {
        let inner = self.lock_inner();
        match inner.slots.get(tenant) {
            Some(Slot {
                state: SlotState::Active { model, .. },
                seq,
                ..
            }) => Some((model.clone(), *seq)),
            _ => None,
        }
    }

    /// Counters for `ServerHealth`.
    pub(crate) fn stats(&self) -> FleetStats {
        let inner = self.lock_inner();
        FleetStats {
            tenants: inner.slots.len() as u64,
            tenants_quarantined: inner
                .slots
                .values()
                .filter(|s| matches!(s.state, SlotState::Quarantined { .. }))
                .count() as u64,
            warm_loads: inner.stats.warm_loads,
            evictions: inner.stats.evictions,
            swaps: inner.stats.swaps,
            swap_rollbacks: inner.stats.swap_rollbacks,
            tenant_overloads: inner.stats.tenant_overloads,
            quarantined_answers: inner.stats.quarantined_answers,
        }
    }

    /// Connections refused for speaking an unsupported protocol version
    /// (owned here so the whole fleet-health story lives in one place).
    pub(crate) fn note_version_rejection(&self) {
        self.version_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`ModelRegistry::note_version_rejection`].
    pub(crate) fn version_rejections(&self) -> u64 {
        self.version_rejections.load(Ordering::Relaxed)
    }

    /// Admit one request for `tenant`: route it to an engine, warm-loading
    /// the model if the slot is cold. The returned [`Lease`] holds the
    /// engine `Arc` (so eviction and swaps can never unmap an engine with
    /// work in flight) and releases the tenant's in-flight budget on drop.
    ///
    /// # Errors
    ///
    /// All typed for the wire, none fatal to the server:
    /// * `BadRequest` — invalid or unknown tenant key;
    /// * `Overloaded` — per-tenant budget exhausted, or a warm-load is in
    ///   progress (both retryable);
    /// * `TenantQuarantined` — checkpoint failed to load and the breaker
    ///   has not cleared a reload probe;
    /// * `Internal` — engine construction failed on a decoded model.
    pub(crate) fn admit(&self, tenant: &str) -> std::result::Result<Lease<'_>, WireError> {
        if cqm_persist::validate_key(tenant).is_err() {
            return Err(WireError::bad_request(format!(
                "invalid tenant key {tenant:?}"
            )));
        }
        match self.admit_locked(tenant)? {
            Admitted::Ready(engine, seq) => Ok(Lease {
                registry: self,
                key: tenant.to_string(),
                engine,
                seq,
            }),
            Admitted::MustLoad => {
                // The slot is parked in Loading; run the disk read outside
                // the routing lock, then install the outcome.
                let loaded = self.load_from_store(tenant);
                self.finish_load(tenant, loaded)
            }
        }
    }

    /// Zero-drop hot swap; see the module docs for the full protocol.
    /// Returns the new checkpoint generation. The target may be Active
    /// (routing flips atomically), Cold (the checkpoint advances and the
    /// next warm-load serves the new generation), or Quarantined (the
    /// verified candidate *is* the repair: the breaker closes and the
    /// tenant rejoins through a normal warm-load).
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidConfig`] if the tenant is unknown,
    ///   mid-warm-load (transient; retry), or the candidate fails
    ///   construction or the replay probe (routing is untouched);
    /// * [`ServeError::Persist`] if persisting or re-verifying the new
    ///   checkpoint fails — for an Active or Cold target the last-good
    ///   model is re-persisted and routing is untouched; a quarantined
    ///   target stays quarantined, since there is no trustworthy
    ///   last-good to restore (`swap_rollbacks` counts both).
    pub(crate) fn swap(&self, tenant: &str, model: ServedModel) -> Result<u64> {
        // 1. Build and validate the candidate beside the live model.
        let engine = Arc::new(Engine::new(&model)?);
        self.replay_probe(&engine, &model)?;
        // 2. Read the generation being replaced. An Active slot gives it
        //    directly; a Cold (evicted) slot is an equally valid target —
        //    its generation lives in its checkpoint, which also supplies
        //    the rollback payload (a failed store read aborts here, with
        //    nothing persisted yet). A Quarantined slot has no readable
        //    last-good at all, but the candidate must survive the full
        //    validation battery — strictly stronger evidence than the
        //    warm-load that failed — so the swap doubles as the repair.
        //    Loading is a transient conflict the caller may retry.
        enum Target {
            Live(ServedModel, u64),
            Cold(u64),
            Repair(u64),
        }
        let target = {
            let inner = self.lock_inner();
            match inner.slots.get(tenant) {
                Some(Slot {
                    state: SlotState::Active { model, .. },
                    seq,
                    ..
                }) => Target::Live(model.clone(), *seq),
                Some(Slot {
                    state: SlotState::Cold,
                    seq,
                    ..
                }) => Target::Cold(*seq),
                Some(Slot {
                    state: SlotState::Quarantined { .. },
                    seq,
                    ..
                }) => Target::Repair(*seq),
                Some(Slot {
                    state: SlotState::Loading,
                    ..
                }) => {
                    return Err(ServeError::InvalidConfig(format!(
                        "swap target {tenant:?} is warm-loading; retry"
                    )));
                }
                None => {
                    return Err(ServeError::InvalidConfig(format!(
                        "swap target {tenant:?} has no live model"
                    )));
                }
            }
        };
        let (last_good, old_seq) = match target {
            Target::Live(model, seq) => (Some(model), seq),
            Target::Cold(slot_seq) => {
                let ck = self.load_from_store(tenant)?;
                (Some(ck.model), ck.seq.max(slot_seq))
            }
            Target::Repair(seq) => (None, seq),
        };
        let new_seq = old_seq + 1;
        // 3. Persist the candidate, then prove the store round-trips it.
        if let Some(store) = &self.store {
            let handle = store.handle(tenant)?;
            handle.save(&ServeCheckpoint {
                seq: new_seq,
                model: model.clone(),
            })?;
            if let Err(e) = self.reload_verify(tenant, new_seq, &model) {
                // Roll back to last-good on disk; routing never moved. A
                // quarantined target has nothing trustworthy to restore:
                // the unverified candidate stays on disk (no worse than
                // the corrupt bytes it replaced) and the slot stays
                // quarantined.
                let rollback = match &last_good {
                    Some(old_model) => handle.save(&ServeCheckpoint {
                        seq: old_seq,
                        model: old_model.clone(),
                    }),
                    None => Ok(()),
                };
                let mut inner = self.lock_inner();
                inner.stats.swap_rollbacks += 1;
                drop(inner);
                return match rollback {
                    Ok(()) => Err(e),
                    // The rollback write itself failed: surface that, it
                    // is the more urgent fault.
                    Err(re) => Err(ServeError::Persist(re)),
                };
            }
        }
        // 4. Atomic flip: future admissions route to the new engine;
        //    in-flight jobs keep their old Arc and finish on it. A slot
        //    that is not Active (evicted during validation, or the repair
        //    of a quarantine) is not forced live past the LRU budget: the
        //    verified checkpoint already carries the new generation, so
        //    the next warm-load serves it.
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        let slot = ensure_slot(
            &mut inner.slots,
            tenant,
            self.breaker_trip_after,
            self.breaker_cooldown,
        )?;
        match &slot.state {
            SlotState::Active { .. } => {
                slot.state = SlotState::Active { engine, model };
                slot.seq = new_seq;
            }
            SlotState::Quarantined { .. } => {
                // The verified checkpoint replaces the corrupt one: close
                // the breaker and rejoin through the warm-load path.
                slot.breaker.on_success();
                slot.state = SlotState::Cold;
                slot.seq = new_seq;
            }
            SlotState::Cold => {
                slot.seq = new_seq;
            }
            // A concurrent warm-load is mid-read; it installs whichever
            // generation its read returns, and the checkpoint already
            // carries the new one for every load after it.
            SlotState::Loading => {}
        }
        inner.stats.swaps += 1;
        Ok(new_seq)
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The under-lock half of admission. Returns `MustLoad` with the slot
    /// parked in `Loading` when a warm-load is needed.
    fn admit_locked(&self, tenant: &str) -> std::result::Result<Admitted, WireError> {
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.slots.contains_key(tenant) {
            // Unknown to the map — but the store is the source of truth,
            // so probe the disk before refusing (a tenant whose checkpoint
            // appeared after startup is admissible).
            let on_disk = match &self.store {
                Some(store) => store.exists(tenant).unwrap_or(false),
                None => false,
            };
            if !on_disk {
                return Err(WireError::bad_request(format!("unknown tenant {tenant:?}")));
            }
            let breaker = new_breaker(self.breaker_trip_after, self.breaker_cooldown)
                .map_err(|e| WireError::internal(e.to_string()))?;
            inner.slots.insert(
                tenant.to_string(),
                Slot {
                    state: SlotState::Cold,
                    seq: 0,
                    breaker,
                    inflight: 0,
                    touched: clock,
                },
            );
        }
        let per_tenant_inflight = self.per_tenant_inflight;
        let stats = &mut inner.stats;
        let Some(slot) = inner.slots.get_mut(tenant) else {
            return Err(WireError::internal("slot vanished under the lock"));
        };
        slot.touched = clock;
        match &slot.state {
            SlotState::Active { engine, .. } => {
                if slot.inflight >= per_tenant_inflight {
                    stats.tenant_overloads += 1;
                    return Err(WireError {
                        kind: WireErrorKind::Overloaded,
                        detail: format!("tenant {tenant:?} admission budget exhausted"),
                    });
                }
                let engine = Arc::clone(engine);
                let seq = slot.seq;
                slot.inflight += 1;
                Ok(Admitted::Ready(engine, seq))
            }
            SlotState::Loading => {
                stats.tenant_overloads += 1;
                Err(WireError {
                    kind: WireErrorKind::Overloaded,
                    detail: format!("tenant {tenant:?} model is warm-loading"),
                })
            }
            SlotState::Quarantined { reason } => {
                // The breaker gates reload probes: each shed answer ticks
                // the cooldown; once it grants, retry the load (HalfOpen).
                let reason = reason.clone();
                if slot.breaker.allow() {
                    slot.state = SlotState::Loading;
                    Ok(Admitted::MustLoad)
                } else {
                    stats.quarantined_answers += 1;
                    Err(WireError::tenant_quarantined(tenant, reason))
                }
            }
            SlotState::Cold => {
                if self.store.is_none() {
                    return Err(WireError::bad_request(format!("unknown tenant {tenant:?}")));
                }
                slot.state = SlotState::Loading;
                Ok(Admitted::MustLoad)
            }
        }
    }

    /// Read and decode `tenant`'s checkpoint, through the injector when
    /// one is armed. Runs with no registry lock held.
    fn load_from_store(&self, tenant: &str) -> Result<ServeCheckpoint> {
        let Some(store) = &self.store else {
            return Err(ServeError::InvalidConfig("no checkpoint store".into()));
        };
        let path = store.path(tenant)?;
        let mut injector = self.injector.lock().unwrap_or_else(PoisonError::into_inner);
        let ck: ServeCheckpoint = match injector.as_mut() {
            Some(inj) => {
                let bytes = inj
                    .read(&path)
                    .map_err(|e| PersistError::io("reading tenant checkpoint", &e))?;
                decode_checkpoint_bytes(&bytes)?
            }
            None => store.handle(tenant)?.load()?,
        };
        drop(injector);
        // Re-validate semantics, not just integrity (same discipline as
        // ModelSource::resolve).
        let model = ServedModel::new(ck.model.classifier().clone(), ck.model.model().clone())?;
        Ok(ServeCheckpoint { seq: ck.seq, model })
    }

    /// Install a finished load (or quarantine the tenant on failure) and
    /// answer the admission that triggered it.
    fn finish_load(
        &self,
        tenant: &str,
        loaded: Result<ServeCheckpoint>,
    ) -> std::result::Result<Lease<'_>, WireError> {
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        let per_tenant_inflight = self.per_tenant_inflight;
        let stats = &mut inner.stats;
        let Some(slot) = inner.slots.get_mut(tenant) else {
            return Err(WireError::internal("loading slot vanished"));
        };
        match loaded.and_then(|ck| Ok((Arc::new(Engine::new(&ck.model)?), ck))) {
            Ok((engine, ck)) => {
                slot.breaker.on_success();
                slot.state = SlotState::Active {
                    engine: Arc::clone(&engine),
                    model: ck.model,
                };
                slot.seq = ck.seq;
                let seq = ck.seq;
                // The load itself counts as this request's admission.
                if slot.inflight >= per_tenant_inflight {
                    stats.tenant_overloads += 1;
                    return Err(WireError {
                        kind: WireErrorKind::Overloaded,
                        detail: format!("tenant {tenant:?} admission budget exhausted"),
                    });
                }
                slot.inflight += 1;
                stats.warm_loads += 1;
                self.evict_over_capacity(inner);
                Ok(Lease {
                    registry: self,
                    key: tenant.to_string(),
                    engine,
                    seq,
                })
            }
            Err(e) => {
                let reason = e.to_string();
                slot.breaker.on_failure();
                slot.state = SlotState::Quarantined {
                    reason: reason.clone(),
                };
                stats.quarantined_answers += 1;
                Err(WireError::tenant_quarantined(tenant, reason))
            }
        }
    }

    /// Drop least-recently-used idle Active slots back to Cold until the
    /// live count fits `max_active`. Only store-backed slots are evicted
    /// (there is no way back otherwise), and never one with work in
    /// flight — zero-drop beats strict capacity, so the count may briefly
    /// overshoot under load.
    fn evict_over_capacity(&self, inner: &mut Inner) {
        if self.store.is_none() {
            return;
        }
        loop {
            let active = inner
                .slots
                .values()
                .filter(|s| matches!(s.state, SlotState::Active { .. }))
                .count();
            if active <= self.max_active {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter(|(_, s)| matches!(s.state, SlotState::Active { .. }) && s.inflight == 0)
                .min_by_key(|(_, s)| s.touched)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { return };
            if let Some(slot) = inner.slots.get_mut(&key) {
                slot.state = SlotState::Cold;
            }
            inner.stats.evictions += 1;
        }
    }

    /// Replay the pinned cue set through the candidate engine and a fresh
    /// in-process `CqmSystem` of the same model; any bitwise difference
    /// fails the swap. Probes that error on *both* sides identically (e.g.
    /// a probe cue outside the candidate's rule support) pass — the probe
    /// asserts agreement, not coverage.
    fn replay_probe(&self, engine: &Engine, model: &ServedModel) -> Result<()> {
        if self.probe_cues.is_empty() {
            return Ok(());
        }
        let system = CqmSystem::new(
            model.classifier().clone(),
            model.model().measure.clone(),
            QualityFilter::new(model.model().threshold).map_err(ServeError::Core)?,
        )
        .map_err(ServeError::Core)?;
        let mut scratch = EngineScratch::new();
        for (i, cues) in self.probe_cues.iter().enumerate() {
            let served = engine.classify_one(cues, &mut scratch);
            let local = system.classify_with_quality(cues);
            let agree = match (&served, &local) {
                (Ok(a), Ok(b)) => {
                    a.class == b.class
                        && a.quality.value().map(f64::to_bits)
                            == b.quality.value().map(f64::to_bits)
                        && a.decision.is_accept() == b.decision.is_accept()
                }
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                return Err(ServeError::InvalidConfig(format!(
                    "swap candidate failed replay probe at cue {i}: engine and \
                     in-process answers diverge"
                )));
            }
        }
        Ok(())
    }

    /// Prove the just-persisted checkpoint round-trips: read it back
    /// (through the injector when armed), decode, and demand the expected
    /// generation and bit-identical model.
    fn reload_verify(&self, tenant: &str, seq: u64, model: &ServedModel) -> Result<()> {
        let back = self.load_from_store(tenant)?;
        if back.seq != seq || back.model != *model {
            return Err(ServeError::Persist(PersistError::Corrupt(format!(
                "reloaded checkpoint for {tenant:?} does not match what was written \
                 (got seq {}, want {seq})",
                back.seq
            ))));
        }
        Ok(())
    }

    fn release(&self, tenant: &str) {
        let mut inner = self.lock_inner();
        if let Some(slot) = inner.slots.get_mut(tenant) {
            slot.inflight = slot.inflight.saturating_sub(1);
        }
    }
}

fn new_breaker(trip_after: usize, cooldown: usize) -> Result<CircuitBreaker> {
    CircuitBreaker::new(trip_after, cooldown).map_err(|e| ServeError::InvalidConfig(e.to_string()))
}

fn ensure_slot<'a>(
    slots: &'a mut BTreeMap<String, Slot>,
    tenant: &str,
    trip_after: usize,
    cooldown: usize,
) -> Result<&'a mut Slot> {
    if !slots.contains_key(tenant) {
        cqm_persist::validate_key(tenant)?;
        slots.insert(
            tenant.to_string(),
            Slot {
                state: SlotState::Cold,
                seq: 0,
                breaker: new_breaker(trip_after, cooldown)?,
                inflight: 0,
                touched: 0,
            },
        );
    }
    slots
        .get_mut(tenant)
        .ok_or_else(|| ServeError::InvalidConfig("slot vanished".into()))
}

/// One admitted request's claim on an engine. Dropping it releases the
/// tenant's in-flight budget; the engine `Arc` keeps the model alive even
/// if the slot is evicted or swapped while the request is in flight.
#[derive(Debug)]
pub(crate) struct Lease<'a> {
    registry: &'a ModelRegistry,
    key: String,
    pub(crate) engine: Arc<Engine>,
    #[allow(dead_code)]
    pub(crate) seq: u64,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.registry.release(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_support::tiny_model;
    use crate::protocol::WireErrorKind;
    use cqm_persist::CheckpointHandle;
    use std::path::Path;
    use std::time::Duration;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqm_registry_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn model_with_threshold(t: f64) -> ServedModel {
        let m = tiny_model();
        let mut cqm = m.model().clone();
        cqm.threshold = t;
        ServedModel::new(m.classifier().clone(), cqm).expect("model")
    }

    fn stored_registry(dir: &Path, config: FleetConfig) -> ModelRegistry {
        ModelRegistry::new(FleetConfig {
            store_dir: Some(dir.to_path_buf()),
            ..config
        })
        .expect("registry")
    }

    #[test]
    fn unknown_tenant_is_bad_request() {
        let registry = ModelRegistry::new(FleetConfig::default()).expect("registry");
        let err = registry.admit("nobody").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        let err = registry.admit("bad key!").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
    }

    #[test]
    fn install_then_admit_routes_and_budget_sheds() {
        let registry = ModelRegistry::new(FleetConfig {
            per_tenant_inflight: 2,
            ..FleetConfig::default()
        })
        .expect("registry");
        registry.install("a", tiny_model(), 0).expect("install");
        let l1 = registry.admit("a").expect("first");
        let l2 = registry.admit("a").expect("second");
        let err = registry.admit("a").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Overloaded);
        assert_eq!(registry.stats().tenant_overloads, 1);
        drop(l1);
        let l3 = registry.admit("a").expect("slot freed by drop");
        drop(l2);
        drop(l3);
        assert_eq!(registry.stats().tenants, 1);
    }

    #[test]
    fn warm_load_from_store_and_lru_eviction() {
        let dir = scratch_dir("lru");
        // Pre-populate the store with three tenants, then cap at 2 live.
        let seed = stored_registry(&dir, FleetConfig::default());
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            seed.install(key, model_with_threshold(0.3 + i as f64 * 0.1), 1)
                .expect("install");
        }
        drop(seed);
        let registry = stored_registry(
            &dir,
            FleetConfig {
                max_active: 2,
                ..FleetConfig::default()
            },
        );
        assert_eq!(registry.stats().tenants, 3);
        drop(registry.admit("a").expect("load a"));
        drop(registry.admit("b").expect("load b"));
        assert_eq!(registry.stats().warm_loads, 2);
        assert_eq!(registry.stats().evictions, 0);
        // Loading c evicts the LRU (a), and a comes back on demand.
        drop(registry.admit("c").expect("load c"));
        assert_eq!(registry.stats().evictions, 1);
        drop(registry.admit("a").expect("reload a"));
        assert_eq!(registry.stats().warm_loads, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_never_claims_a_slot_with_work_in_flight() {
        let dir = scratch_dir("inflight");
        let seed = stored_registry(&dir, FleetConfig::default());
        for key in ["a", "b", "c"] {
            seed.install(key, tiny_model(), 1).expect("install");
        }
        drop(seed);
        let registry = stored_registry(
            &dir,
            FleetConfig {
                max_active: 1,
                ..FleetConfig::default()
            },
        );
        let lease_a = registry.admit("a").expect("a");
        // b overflows capacity, but a is busy: the count overshoots
        // rather than dropping a's engine out from under it.
        let lease_b = registry.admit("b").expect("b");
        assert_eq!(registry.stats().evictions, 0);
        drop(lease_a);
        drop(registry.admit("c").expect("c"));
        // Now a was idle and LRU: evicted.
        assert!(registry.stats().evictions >= 1);
        drop(lease_b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_quarantines_only_that_tenant_then_recovers() {
        let dir = scratch_dir("quarantine");
        let seed = stored_registry(&dir, FleetConfig::default());
        seed.install("good", tiny_model(), 1).expect("install");
        seed.install("bad", tiny_model(), 1).expect("install");
        drop(seed);
        // Corrupt bad's checkpoint on disk.
        let bad_path = dir.join("bad.ckpt");
        let mut bytes = std::fs::read(&bad_path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&bad_path, &bytes).expect("write");
        let registry = stored_registry(
            &dir,
            FleetConfig {
                breaker_trip_after: 1,
                breaker_cooldown: 3,
                ..FleetConfig::default()
            },
        );
        let err = registry.admit("bad").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::TenantQuarantined);
        // The peer is untouched.
        drop(registry.admit("good").expect("good keeps serving"));
        assert_eq!(registry.stats().tenants_quarantined, 1);
        // Repair the file; the breaker's cooldown gates the reload probe,
        // then the tenant recovers.
        let seed = stored_registry(&dir, FleetConfig::default());
        seed.install("bad", tiny_model(), 2).expect("repair");
        drop(seed);
        let mut recovered = false;
        for _ in 0..16 {
            match registry.admit("bad") {
                Ok(lease) => {
                    assert_eq!(lease.seq, 2);
                    recovered = true;
                    break;
                }
                Err(e) => assert!(matches!(
                    e.kind,
                    WireErrorKind::TenantQuarantined | WireErrorKind::Overloaded
                )),
            }
        }
        assert!(recovered, "repaired tenant must leave quarantine");
        assert_eq!(registry.stats().tenants_quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swap_flips_routing_and_inflight_leases_keep_the_old_engine() {
        let dir = scratch_dir("swap");
        let registry = stored_registry(
            &dir,
            FleetConfig {
                probe_cues: vec![vec![0.1], vec![0.5], vec![0.9]],
                ..FleetConfig::default()
            },
        );
        registry
            .install("t", model_with_threshold(0.5), 0)
            .expect("install");
        let before = registry.admit("t").expect("before swap");
        let new_seq = registry
            .swap("t", model_with_threshold(0.25))
            .expect("swap");
        assert_eq!(new_seq, 1);
        let after = registry.admit("t").expect("after swap");
        // The in-flight lease still holds the pre-swap engine.
        assert!(!Arc::ptr_eq(&before.engine, &after.engine));
        // A cue with quality between the thresholds decides differently
        // on the two engines — proving which model answers which lease.
        let mut scratch = EngineScratch::new();
        // The decision boundary: quality is exactly 0.5 there, which the
        // old threshold (0.5, strict) rejects and the new (0.25) accepts.
        let x = [0.5];
        let old = before.engine.classify_one(&x, &mut scratch).expect("old");
        let new = after.engine.classify_one(&x, &mut scratch).expect("new");
        assert_eq!(
            old.quality.value().map(f64::to_bits),
            new.quality.value().map(f64::to_bits),
            "same model weights, same quality"
        );
        assert!(new.decision.is_accept() && !old.decision.is_accept());
        assert_eq!(registry.stats().swaps, 1);
        // The new generation is on disk: a cold restart serves it.
        drop(before);
        drop(after);
        let reborn = stored_registry(&dir, FleetConfig::default());
        let lease = reborn.admit("t").expect("warm restart");
        assert_eq!(lease.seq, 1);
        drop(lease);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swap_candidate_failing_validation_leaves_routing_untouched() {
        let dir = scratch_dir("swapfail");
        let registry = stored_registry(&dir, FleetConfig::default());
        registry.install("t", tiny_model(), 0).expect("install");
        // A candidate whose model halves disagree cannot even construct —
        // ServedModel::new guards it — so sabotage differently: swap on a
        // tenant with no live slot.
        let err = registry.swap("ghost", tiny_model()).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        let lease = registry.admit("t").expect("t unaffected");
        assert_eq!(lease.seq, 0);
        drop(lease);
        assert_eq!(registry.stats().swaps, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swap_on_a_cold_slot_advances_the_checkpoint_generation() {
        let dir = scratch_dir("swapcold");
        let registry = stored_registry(
            &dir,
            FleetConfig {
                max_active: 1,
                probe_cues: vec![vec![0.1], vec![0.5], vec![0.9]],
                ..FleetConfig::default()
            },
        );
        registry
            .install("a", model_with_threshold(0.5), 0)
            .expect("install a");
        // b claims the only live slot; a is evicted to Cold.
        registry
            .install("b", model_with_threshold(0.5), 0)
            .expect("install b");
        // Swapping the evicted tenant validates and persists the new
        // generation without forcing it live past the LRU budget.
        let new_seq = registry
            .swap("a", model_with_threshold(0.25))
            .expect("cold swap");
        assert_eq!(new_seq, 1);
        assert_eq!(registry.stats().swaps, 1);
        // The next warm-load serves the swapped generation.
        let lease = registry.admit("a").expect("warm-load a");
        assert_eq!(lease.seq, 1);
        let mut scratch = EngineScratch::new();
        let ans = lease
            .engine
            .classify_one(&[0.5], &mut scratch)
            .expect("answer");
        assert!(
            ans.decision.is_accept(),
            "the swapped-in threshold 0.25 accepts q = 0.5"
        );
        drop(lease);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swap_repairs_a_quarantined_tenant() {
        let dir = scratch_dir("swaprepair");
        let seed = stored_registry(&dir, FleetConfig::default());
        seed.install("t", model_with_threshold(0.5), 1)
            .expect("install");
        drop(seed);
        // Corrupt the checkpoint, then quarantine the tenant on first load.
        let path = dir.join("t.ckpt");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        let registry = stored_registry(
            &dir,
            FleetConfig {
                breaker_trip_after: 1,
                // A cooldown far longer than the test: no reload probe
                // will fire, so only the swap can clear the quarantine.
                breaker_cooldown: 1 << 20,
                probe_cues: vec![vec![0.1], vec![0.5], vec![0.9]],
                ..FleetConfig::default()
            },
        );
        let err = registry.admit("t").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::TenantQuarantined);
        assert_eq!(registry.stats().tenants_quarantined, 1);
        // The fully verified candidate is the repair: the checkpoint
        // round-trips, the breaker closes, the tenant rejoins.
        let new_seq = registry
            .swap("t", model_with_threshold(0.25))
            .expect("repair swap");
        assert_eq!(registry.stats().tenants_quarantined, 0);
        let lease = registry.admit("t").expect("repaired tenant serves");
        assert_eq!(lease.seq, new_seq);
        let mut scratch = EngineScratch::new();
        let ans = lease
            .engine
            .classify_one(&[0.5], &mut scratch)
            .expect("answer");
        assert!(
            ans.decision.is_accept(),
            "the repaired generation (threshold 0.25) accepts q = 0.5"
        );
        drop(lease);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_faults_quarantine_then_breaker_probe_recovers() {
        let dir = scratch_dir("faults");
        let seed = stored_registry(&dir, FleetConfig::default());
        seed.install("t", tiny_model(), 1).expect("install");
        drop(seed);
        // Every read torn for the first post-warmup op; later ops clean
        // (torn_p 1.0 but only op 0 past warmup... use a plan where op 0
        // is always torn and warmup 0, then rely on per-op draws: with
        // torn_p = 1.0 every read is torn, so recovery needs the injector
        // replaced — instead use a high-but-not-certain rate and iterate).
        let registry = stored_registry(
            &dir,
            FleetConfig {
                disk_faults: Some(DiskFaultPlan {
                    torn_p: 0.7,
                    ..DiskFaultPlan::clean(1234)
                }),
                breaker_trip_after: 1,
                breaker_cooldown: 1,
                ..FleetConfig::default()
            },
        );
        let mut outcomes = Vec::new();
        for _ in 0..32 {
            match registry.admit("t") {
                Ok(lease) => {
                    outcomes.push("ok");
                    drop(lease);
                }
                Err(e) => outcomes.push(match e.kind {
                    WireErrorKind::TenantQuarantined => "quarantined",
                    WireErrorKind::Overloaded => "overloaded",
                    _ => "other",
                }),
            }
        }
        assert!(
            outcomes.contains(&"quarantined"),
            "70% torn reads must quarantine at least once: {outcomes:?}"
        );
        assert!(
            outcomes.contains(&"ok"),
            "a clean read after cooldown must recover the tenant: {outcomes:?}"
        );
        assert!(!outcomes.contains(&"other"), "{outcomes:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_checkpoint_read_does_not_block_peer_tenants() {
        let dir = scratch_dir("slow");
        let seed = stored_registry(&dir, FleetConfig::default());
        seed.install("slow", tiny_model(), 1).expect("install");
        seed.install("fast", tiny_model(), 1).expect("install");
        drop(seed);
        let registry = Arc::new(stored_registry(
            &dir,
            FleetConfig {
                disk_faults: Some(DiskFaultPlan {
                    delay_p: 1.0,
                    delay: Duration::from_millis(300),
                    ..DiskFaultPlan::clean(7)
                }),
                ..FleetConfig::default()
            },
        ));
        // Warm "fast" up first so its slot is Active (one slow read).
        drop(registry.admit("fast").expect("prime fast"));
        let r2 = Arc::clone(&registry);
        let slow_loader = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let lease = r2.admit("slow");
            (t0.elapsed(), lease.map(|l| l.seq).map_err(|e| e.kind))
        });
        // Give the loader a moment to park the slot in Loading.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        let fast = registry.admit("fast");
        let fast_elapsed = t0.elapsed();
        assert!(fast.is_ok(), "active peer must admit during a slow load");
        drop(fast);
        assert!(
            fast_elapsed < Duration::from_millis(150),
            "peer admission waited {fast_elapsed:?} on another tenant's disk"
        );
        let (slow_elapsed, slow_result) = slow_loader.join().expect("join");
        assert!(slow_elapsed >= Duration::from_millis(250));
        assert_eq!(slow_result, Ok(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tmp_sibling_from_a_crashed_swap_recovers_last_good() {
        let dir = scratch_dir("tornswap");
        let seed = stored_registry(&dir, FleetConfig::default());
        seed.install("t", tiny_model(), 1).expect("install");
        drop(seed);
        // A crash mid-swap leaves a torn temp sibling; the main file is
        // still the last-good generation.
        std::fs::write(dir.join("t.ckpt.tmp"), b"half a checkpoint").expect("torn tmp");
        let registry = stored_registry(&dir, FleetConfig::default());
        let lease = registry.admit("t").expect("last-good recovers");
        assert_eq!(lease.seq, 1);
        drop(lease);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_handle_sees_what_registry_persisted() {
        // The registry's store format is the plain ServeCheckpoint
        // envelope — interoperable with CheckpointHandle.
        let dir = scratch_dir("interop");
        let registry = stored_registry(&dir, FleetConfig::default());
        registry.install("t", tiny_model(), 5).expect("install");
        let ck: ServeCheckpoint = CheckpointHandle::new(dir.join("t.ckpt"))
            .load()
            .expect("load");
        assert_eq!(ck.seq, 5);
        assert_eq!(ck.model, tiny_model());
        std::fs::remove_dir_all(&dir).ok();
    }
}
