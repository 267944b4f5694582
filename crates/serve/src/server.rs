//! The threaded serving front end: session-per-client submission,
//! admission control, worker threads executing over [`SessionView`]s,
//! and an exactly-once response table.
//!
//! # Threading model
//!
//! The server is a passive shared object: client threads call
//! [`Server::submit`] and then [`Server::await_take`]; worker threads
//! run [`Server::run_worker`] until [`Server::close`] is called and the
//! queue drains. A request crosses two locks, both instances of one
//! wait primitive ([`Rendezvous`]): the admission queue and the response
//! shard its id hashes to. A waiter — a worker with an empty queue, a
//! client whose response is not there yet — re-checks under the lock,
//! polls the primitive's sequence number for a few microseconds
//! ([`TAKER_SPIN`] for a client, [`WORKER_SPIN`] for a worker), and only
//! then parks; a notifier makes the wake-up system call only when the
//! parked count it reads under that same lock is non-zero. So while both
//! sides are busy a hand-off is two uncontended lock acquisitions and no
//! system call, and an idle side costs its spin bound in CPU per wait,
//! then nothing.
//!
//! A worker takes up to [`MAX_BATCH`] tickets per queue-lock
//! acquisition — no more than `⌈depth ÷ live workers⌉`, so a short queue
//! is still shared out, and no more than about [`MAX_HOLD`] of work going
//! by what the previous batch cost, so only requests that take
//! microseconds are batched at all — in strict priority order, FIFO
//! within a class. Priority therefore holds *between* batches: a class-0
//! arrival overtakes every ticket still queued, but not the at most
//! `MAX_BATCH − 1` a worker already holds. Latencies go into the worker's own per-tenant
//! histograms, merged into the server's after each batch:
//! [`Server::report`] on a running server may miss the batch a worker is
//! holding; after the workers are joined it is exact.
//!
//! Every lock acquisition recovers from poisoning — a panicking worker
//! (or a panic injected by a test) can never wedge submission,
//! execution, or response delivery.
//!
//! # Exactly-once contract
//!
//! Every submitted request resolves to **exactly one** [`Response`]
//! deposited in the response table: shed and rejected requests resolve
//! synchronously inside `submit`, admitted requests resolve when a
//! worker finishes them (including by contained panic). Panics are
//! contained per request, not per batch: the ticket that panicked fails,
//! the rest of the batch is still served. The table counts
//! double-deposits ([`Server::duplicate_responses`], always 0 unless
//! accounting breaks) and `await_take` *removes* the response, so a
//! second take of the same id observably returns nothing.
//!
//! # Shutdown
//!
//! An empty queue does not mean an idle server: up to `MAX_BATCH`
//! tickets per worker are in a worker's hands. The queue lock therefore
//! also guards a count of tickets popped but not yet answered, and
//! [`Server::shutdown`] waits for the queue to be empty *and* that count
//! to reach zero — every admitted request has its response deposited and
//! its latency merged — before it syncs the journal.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ml4db_obs::Histogram;
use ml4db_optimizer::{Env, SessionView};
use ml4db_plan::Query;
use ml4db_storage::durable::{DurableStore, StorageMedium, WalError};

use crate::admission::{AdmissionConfig, AdmissionQueue, AdmissionVerdict, Ticket};
use crate::report::{ServeReport, TenantReport};

/// One client request. Ids must be unique per run — sessions own an id
/// namespace (e.g. `session << 32 | seq`).
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-unique request id; the response is filed under it.
    pub id: u64,
    /// Session (client) the request belongs to.
    pub session: u64,
    /// Tenant for accounting and reporting.
    pub tenant: u32,
    /// Priority class (0 = most latency-sensitive).
    pub class: u8,
    /// The query to serve.
    pub query: Query,
}

/// How a request resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Executed; simulated latency in µs.
    Done {
        /// Simulated execution latency (µs).
        latency_us: f64,
    },
    /// Refused by load control.
    Shed(&'static str),
    /// Refused as malformed.
    Rejected(&'static str),
    /// Admitted but could not produce a result ("no_plan" or "panic").
    Failed(&'static str),
}

/// The single response every submitted request eventually receives.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request this answers.
    pub request_id: u64,
    /// Tenant copied from the request.
    pub tenant: u32,
    /// Resolution.
    pub outcome: Outcome,
}

/// Serving-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Number of tenants; requests naming others are rejected.
    pub tenants: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { admission: AdmissionConfig::default(), tenants: 4 }
    }
}

/// How long a client polls for its response before it parks. Chosen
/// from measured parks per request (DESIGN.md § 11.6): at 5 µs a closed
/// loop whose requests take microseconds parks on fewer than one wait in
/// a hundred, and one whose requests take hundreds of microseconds — every
/// wait of which ends parked — pays nothing measurable for the polling;
/// at 20 µs the latter already does.
const TAKER_SPIN: Duration = Duration::from_micros(5);

/// How long a worker polls an empty queue before it parks. Longer than
/// [`TAKER_SPIN`] because the price is different: this is paid once per
/// idle *transition*, not per request, and a parked worker makes the next
/// submitter pay a wake-up call and the next request its latency. It has
/// to outlast a client's own wake-up (~5 µs on the reference host): with
/// one request in flight each side waits on the other, and at 5 µs here a
/// single park on either side tips both into parking on every request
/// (measured: 14–25 µs per request instead of 2–3.5).
const WORKER_SPIN: Duration = Duration::from_micros(20);

/// Most tickets one queue-lock acquisition hands a worker — also the
/// bound on priority inversion in requests: a class-0 arrival waits behind
/// at most `MAX_BATCH − 1` already-drained lower-class tickets per worker.
const MAX_BATCH: usize = 8;

/// Most *work* a worker takes in one batch, going by what a request cost
/// it in the batch before: batching buys back the queue lock, a fraction of
/// a microsecond per request, so it is for requests that take microseconds.
/// A worker that held eight 300 µs requests would sit on 2 ms of work other
/// workers could do and an urgent arrival would wait behind (measured on the
/// bench suite's join mix, 2 workers: 4.5 k requests/s with a fixed cap of 8
/// against 5.0 k one at a time).
const MAX_HOLD: Duration = Duration::from_micros(50);

const RESPONSE_SHARDS: usize = 64;

/// The one wait primitive: a value behind a poison-recovering mutex, the
/// number of waiters parked on it — kept *under that mutex* — a condvar,
/// and a sequence number bumped under the mutex by every published
/// change.
///
/// No wake-up is lost and none is paid for nothing: a waiter registers
/// as parked in the same critical section as its last failed check, so a
/// notifier's critical section comes either before that check, which
/// then sees the change, or after the registration, whose count the
/// notifier reads and so calls `notify_*`.
///
/// Cache-line aligned so that neighbouring response shards never share a
/// line one thread polls and another writes.
#[repr(align(64))]
struct Rendezvous<T> {
    state: Mutex<Slot<T>>,
    cv: Condvar,
    /// Written only under `state`; polled outside it. It carries no data:
    /// a spinner that sees it move re-checks under the lock, and the lock
    /// is what orders the guarded value. The `Release` bump and `Acquire`
    /// polls pair only to keep `Relaxed` for plain statistics.
    seq: AtomicU64,
}

struct Slot<T> {
    value: T,
    parked: usize,
}

/// A held [`Rendezvous`] lock, dereferencing to the guarded value.
struct Held<'a, T>(MutexGuard<'a, Slot<T>>);

impl<T> Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0.value
    }
}

impl<T> Rendezvous<T> {
    fn new(value: T) -> Self {
        Self {
            state: Mutex::new(Slot { value, parked: 0 }),
            cv: Condvar::new(),
            seq: AtomicU64::new(0),
        }
    }

    /// Poison recovery: every critical section in this module leaves the
    /// guarded value valid at each step (a queue of fully-formed
    /// tickets, a map of fully-formed responses, counts adjusted in one
    /// statement), so a panic under the lock leaves nothing half-done.
    fn lock(&self) -> Held<'_, T> {
        Held(self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Releases `held` after a change waiters may be waiting for, waking
    /// them only if some are parked.
    fn publish(&self, held: Held<'_, T>, wake_all: bool) {
        self.seq.fetch_add(1, Ordering::Release);
        let parked = held.0.parked;
        drop(held);
        if parked > 0 {
            if wake_all {
                self.cv.notify_all();
            } else {
                self.cv.notify_one();
            }
        }
    }

    /// Blocks until `ready`, always called under the lock, yields a
    /// value: checks, polls the sequence number for at most `spin` over
    /// the whole call, then parks.
    fn wait_for<R>(&self, spin: Duration, mut ready: impl FnMut(&mut T) -> Option<R>) -> R {
        let mut held = self.lock();
        if let Some(r) = ready(&mut held) {
            return r;
        }
        let spin_until = Instant::now() + spin;
        loop {
            let seen = self.seq.load(Ordering::Acquire);
            drop(held);
            let moved = self.spin(seen, spin_until);
            held = self.lock();
            if let Some(r) = ready(&mut held) {
                return r;
            }
            if !moved {
                break;
            }
        }
        loop {
            held.0.parked += 1;
            held = Held(self.cv.wait(held.0).unwrap_or_else(|e| e.into_inner()));
            held.0.parked -= 1;
            if let Some(r) = ready(&mut held) {
                return r;
            }
        }
    }

    /// Polls until the sequence number leaves `seen` (true) or `until`
    /// passes (false).
    fn spin(&self, seen: u64, until: Instant) -> bool {
        while self.seq.load(Ordering::Acquire) == seen {
            if Instant::now() >= until {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    }
}

/// Sharded rendezvous between workers depositing responses and
/// sessions awaiting them.
struct ResponseTable {
    shards: Vec<Rendezvous<HashMap<u64, Response>>>,
    duplicates: AtomicU64,
}

impl ResponseTable {
    fn new() -> Self {
        Self {
            shards: (0..RESPONSE_SHARDS).map(|_| Rendezvous::new(HashMap::new())).collect(),
            duplicates: AtomicU64::new(0),
        }
    }

    fn shard_of(id: u64) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % RESPONSE_SHARDS
    }

    fn shard(&self, id: u64) -> &Rendezvous<HashMap<u64, Response>> {
        &self.shards[Self::shard_of(id)]
    }

    fn deposit(&self, resp: Response) {
        let shard = self.shard(resp.request_id);
        let mut map = shard.lock();
        let prev = map.insert(resp.request_id, resp);
        // Every taker parked on the shard re-checks its own id.
        shard.publish(map, true);
        if prev.is_some() {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_take(&self, id: u64) -> Option<Response> {
        self.shard(id).lock().remove(&id)
    }

    fn await_take(&self, id: u64) -> Response {
        self.shard(id).wait_for(TAKER_SPIN, |map| map.remove(&id))
    }
}

/// What the queue lock guards: the queue itself and the worker-side
/// bookkeeping that has to change in the same critical section as a pop.
struct Admission {
    queue: AdmissionQueue<Request>,
    /// Set by [`Server::close`]; workers leave once it is set and the
    /// queue is empty.
    closed: bool,
    /// Threads inside [`Server::run_worker`] — what a batch divides the
    /// queue depth by.
    workers: usize,
    /// Tickets popped by a worker and not yet answered.
    in_hand: usize,
}

/// Per-tenant monotone counters written by `submit` (relaxed atomics;
/// read at report time). On their own cache line: the submitting thread
/// and the workers never write the same line.
#[derive(Default)]
#[repr(align(64))]
struct SubmitCounters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
}

/// Per-tenant monotone counters written by workers; see
/// [`SubmitCounters`].
#[derive(Default)]
#[repr(align(64))]
struct WorkerCounters {
    completed: AtomicU64,
    failed: AtomicU64,
}

/// One thread's registration as a live worker. Dropping it — on return
/// or on unwind — gives back what the thread still held, so a worker
/// that dies cannot leave [`Server::shutdown`] waiting on its batch.
struct LiveWorker<'s, 'e, 'db> {
    server: &'s Server<'e, 'db>,
    in_hand: usize,
}

impl<'s, 'e, 'db> LiveWorker<'s, 'e, 'db> {
    fn enter(server: &'s Server<'e, 'db>) -> Self {
        server.admission.lock().workers += 1;
        Self { server, in_hand: 0 }
    }
}

impl Drop for LiveWorker<'_, '_, '_> {
    fn drop(&mut self) {
        let mut adm = self.server.admission.lock();
        adm.workers -= 1;
        adm.in_hand -= self.in_hand;
    }
}

/// Where accepted requests are made durable. Implemented by
/// [`DurableStore`] over any medium: `record` journals one accepted
/// request (staged), `sync` drives the WAL's commit + fsync barrier.
/// The graceful-shutdown contract is built on this: [`Server::shutdown`]
/// drains the admission queue and then `sync`s, so an accepted request
/// can never be lost by a clean exit.
pub trait DurabilitySink: Send {
    /// Journals one accepted request (`request_id → packed metadata`).
    fn record(&mut self, request_id: u64, tenant: u32) -> Result<(), WalError>;
    /// Commits and fsyncs everything recorded so far.
    fn sync(&mut self) -> Result<(), WalError>;
}

impl<M: StorageMedium + Send> DurabilitySink for DurableStore<M> {
    fn record(&mut self, request_id: u64, tenant: u32) -> Result<(), WalError> {
        self.put(request_id, u64::from(tenant))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.commit().map(|_| ())
    }
}

#[cfg(test)]
type ServeHook<'e, 'db> = Box<dyn Fn(&Server<'e, 'db>, u64) + Send + Sync>;

/// The serving front end over an [`Env`] engine core. See the module
/// docs for the threading model and the exactly-once contract.
pub struct Server<'e, 'db> {
    env: &'e Env<'db>,
    cfg: ServeConfig,
    admission: Rendezvous<Admission>,
    responses: ResponseTable,
    submit_side: Vec<SubmitCounters>,
    worker_side: Vec<WorkerCounters>,
    latency: Vec<Mutex<Histogram>>,
    journal: Mutex<Option<Box<dyn DurabilitySink>>>,
    /// Whether `journal` holds a sink, readable without its lock.
    journaled: AtomicBool,
    journal_errors: AtomicU64,
    /// Called with the request id before each request is served, inside
    /// the panic containment — how the unit tests inject a panic or hold
    /// a worker mid-batch.
    #[cfg(test)]
    serve_hook: std::sync::OnceLock<ServeHook<'e, 'db>>,
}

impl<'e, 'db> Server<'e, 'db> {
    /// A server over `env` with `cfg`.
    pub fn new(env: &'e Env<'db>, cfg: ServeConfig) -> Self {
        assert!(cfg.tenants > 0, "at least one tenant");
        Self {
            env,
            cfg,
            admission: Rendezvous::new(Admission {
                queue: AdmissionQueue::new(cfg.admission),
                closed: false,
                workers: 0,
                in_hand: 0,
            }),
            responses: ResponseTable::new(),
            submit_side: (0..cfg.tenants).map(|_| SubmitCounters::default()).collect(),
            worker_side: (0..cfg.tenants).map(|_| WorkerCounters::default()).collect(),
            latency: (0..cfg.tenants).map(|_| Mutex::new(Histogram::latency_us())).collect(),
            journal: Mutex::new(None),
            journaled: AtomicBool::new(false),
            journal_errors: AtomicU64::new(0),
            #[cfg(test)]
            serve_hook: std::sync::OnceLock::new(),
        }
    }

    /// Attaches a durability journal: every subsequently accepted
    /// request is recorded in it, and [`Server::shutdown`] fsyncs it
    /// after the queue drains.
    pub fn set_journal(&self, sink: Box<dyn DurabilitySink>) {
        *self.lock_journal() = Some(sink);
        // Pairs with the `Acquire` load in `submit`: a submitter that
        // sees the flag finds the sink behind the lock.
        self.journaled.store(true, Ordering::Release);
    }

    fn lock_journal(&self) -> MutexGuard<'_, Option<Box<dyn DurabilitySink>>> {
        self.journal.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Journal record/sync failures so far (the serving path degrades to
    /// in-memory rather than refusing traffic; callers watching this
    /// counter decide when to trip a breaker).
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &'e Env<'db> {
        self.env
    }

    /// Submits one request. The verdict comes back immediately; the
    /// response (for *every* verdict) lands in the response table under
    /// `req.id`. Admitted work is executed by `run_worker` threads.
    pub fn submit(&self, req: Request) -> AdmissionVerdict {
        let tenant = req.tenant;
        let class = req.class;
        if tenant >= self.cfg.tenants {
            // Unknown tenant: account globally under tenant 0's ledger
            // would lie; refuse before any counter is touched.
            self.responses.deposit(Response {
                request_id: req.id,
                tenant,
                outcome: Outcome::Rejected("bad_tenant"),
            });
            return AdmissionVerdict::Rejected("bad_tenant");
        }
        let counters = &self.submit_side[tenant as usize];
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        if req.query.validate(self.env.db).is_err() {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            self.observe_verdict(tenant, class, "rejected", 0);
            self.responses.deposit(Response {
                request_id: req.id,
                tenant,
                outcome: Outcome::Rejected("invalid_query"),
            });
            return AdmissionVerdict::Rejected("invalid_query");
        }
        let id = req.id;
        let mut adm = self.admission.lock();
        let offered = adm.queue.offer(req, class);
        let depth = adm.queue.depth() as u32;
        let verdict = match offered {
            Ok(verdict) => {
                self.admission.publish(adm, false);
                verdict
            }
            // The refused request is freed after the lock is released.
            Err((_refused, verdict)) => {
                drop(adm);
                verdict
            }
        };
        self.observe_verdict(tenant, class, verdict.kind(), depth);
        match verdict {
            AdmissionVerdict::Admitted => {
                counters.admitted.fetch_add(1, Ordering::Relaxed);
                if self.journaled.load(Ordering::Acquire) {
                    if let Some(sink) = self.lock_journal().as_mut() {
                        if sink.record(id, tenant).is_err() {
                            self.journal_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            AdmissionVerdict::Shed(reason) => {
                counters.shed.fetch_add(1, Ordering::Relaxed);
                self.responses.deposit(Response { request_id: id, tenant, outcome: Outcome::Shed(reason) });
            }
            AdmissionVerdict::Rejected(reason) => {
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.responses.deposit(Response {
                    request_id: id,
                    tenant,
                    outcome: Outcome::Rejected(reason),
                });
            }
        }
        verdict
    }

    fn observe_verdict(&self, tenant: u32, class: u8, verdict: &'static str, depth: u32) {
        ml4db_obs::emit_with(|| ml4db_obs::Event::ServeVerdict {
            tenant,
            class,
            verdict,
            queue_depth: depth,
        });
    }

    /// Blocks until the response for `id` arrives, removing it. Exactly
    /// one caller gets it; a second take returns via [`Server::try_take`]
    /// as `None`.
    pub fn await_take(&self, id: u64) -> Response {
        self.responses.await_take(id)
    }

    /// Removes the response for `id` if already deposited.
    pub fn try_take(&self, id: u64) -> Option<Response> {
        self.responses.try_take(id)
    }

    /// Responses that overwrote an existing one — 0 unless the
    /// exactly-once contract broke (stress suites assert on it).
    pub fn duplicate_responses(&self) -> u64 {
        self.responses.duplicates.load(Ordering::Relaxed)
    }

    /// Worker entry point: executes admitted requests through a
    /// per-worker [`SessionView`] until the server is closed *and* the
    /// queue has drained. Run this on N threads for an N-worker server.
    pub fn run_worker(&self, worker_id: u64) {
        let mut view = self.env.session(worker_id);
        // Per tenant: this worker's latencies since the last merge, and
        // whether there are any.
        let mut latency: Vec<(Histogram, bool)> =
            (0..self.cfg.tenants).map(|_| (Histogram::latency_us(), false)).collect();
        let mut batch: Vec<Ticket<Request>> = Vec::with_capacity(MAX_BATCH);
        let mut live = LiveWorker::enter(self);
        let mut cap = MAX_BATCH;
        while self.next_batch(&mut live, cap, &mut batch) {
            let (started, served) = (Instant::now(), batch.len() as u128);
            for ticket in batch.drain(..) {
                self.serve_one(&mut view, &mut latency, ticket.item);
            }
            for (tenant, (local, dirty)) in latency.iter_mut().enumerate() {
                if std::mem::take(dirty) {
                    self.lock_latency(tenant).merge(local);
                    local.reset();
                }
            }
            let per_request = (started.elapsed().as_nanos() / served).max(1);
            cap = ((MAX_HOLD.as_nanos() / per_request) as usize).clamp(1, MAX_BATCH);
        }
    }

    /// Gives back the batch just served and takes the next one — at most
    /// `cap` tickets and at most this worker's share of the queue, in
    /// priority order — waiting while the queue is empty. False once the
    /// server is closed and the queue has drained.
    fn next_batch(
        &self,
        live: &mut LiveWorker<'_, 'e, 'db>,
        cap: usize,
        batch: &mut Vec<Ticket<Request>>,
    ) -> bool {
        self.admission.wait_for(WORKER_SPIN, |adm| {
            adm.in_hand -= std::mem::take(&mut live.in_hand);
            let n = adm.queue.depth().div_ceil(adm.workers).min(cap);
            if n == 0 {
                return adm.closed.then_some(false);
            }
            batch.extend(std::iter::from_fn(|| adm.queue.pop()).take(n));
            adm.in_hand += n;
            live.in_hand = n;
            Some(true)
        })
    }

    /// Serves one admitted request and deposits its response.
    fn serve_one(&self, view: &mut SessionView<'e, 'db>, latency: &mut [(Histogram, bool)], req: Request) {
        let counters = &self.worker_side[req.tenant as usize];
        // Contain panics from faulty learned components: the request
        // fails, the worker (its view, and the rest of its batch) live on.
        let served = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Some(hook) = self.serve_hook.get() {
                hook(self, req.id);
            }
            view.serve(&req.query)
        }));
        let outcome = match served {
            Ok(Some(latency_us)) => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                let (local, dirty) = &mut latency[req.tenant as usize];
                local.observe(latency_us);
                *dirty = true;
                Outcome::Done { latency_us }
            }
            Ok(None) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
                Outcome::Failed("no_plan")
            }
            Err(_) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
                Outcome::Failed("panic")
            }
        };
        self.responses.deposit(Response { request_id: req.id, tenant: req.tenant, outcome });
    }

    fn lock_latency(&self, tenant: usize) -> MutexGuard<'_, Histogram> {
        self.latency[tenant].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Signals shutdown: workers drain what is already queued, then
    /// return. Late submissions still pass through admission (their
    /// responses only resolve if a worker is still draining), so
    /// callers should stop submitting before closing.
    pub fn close(&self) {
        let mut adm = self.admission.lock();
        adm.closed = true;
        self.admission.publish(adm, true);
    }

    /// Graceful shutdown: closes admission, waits until running workers
    /// have drained the queue *and* answered every ticket they hold,
    /// then commits + fsyncs the attached journal (if any) so every
    /// accepted request is durable before exit.
    ///
    /// Call while the worker threads are still running — they do the
    /// draining; join them afterwards for full quiescence. Returns the
    /// journal's sync result (`Ok` when no journal is attached).
    pub fn shutdown(&self) -> Result<(), WalError> {
        self.close();
        loop {
            let adm = self.admission.lock();
            if adm.queue.depth() == 0 && adm.in_hand == 0 {
                break;
            }
            drop(adm);
            std::thread::yield_now();
        }
        if let Some(sink) = self.lock_journal().as_mut() {
            sink.sync().inspect_err(|_| {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            })
        } else {
            Ok(())
        }
    }

    /// Current queue depth (racy snapshot; for monitoring and tests).
    pub fn queue_depth(&self) -> usize {
        self.admission.lock().queue.depth()
    }

    /// A copy of `tenant`'s merged latency histogram — what
    /// [`Server::report`]'s quantiles are read from. Exact once the
    /// workers are joined; on a running server it lacks the batches
    /// workers are holding.
    pub fn latency_histogram(&self, tenant: u32) -> Histogram {
        self.lock_latency(tenant as usize).clone()
    }

    /// Builds the per-tenant report from the live counters and the
    /// merged latency histograms. Pass `drained: true` after close +
    /// worker join to additionally assert no admitted request was lost.
    pub fn report(&self, drained: bool) -> ServeReport {
        let tenants = (0..self.cfg.tenants as usize)
            .map(|t| {
                let (s, w) = (&self.submit_side[t], &self.worker_side[t]);
                TenantReport {
                    submitted: s.submitted.load(Ordering::Relaxed),
                    admitted: s.admitted.load(Ordering::Relaxed),
                    shed: s.shed.load(Ordering::Relaxed),
                    rejected: s.rejected.load(Ordering::Relaxed),
                    completed: w.completed.load(Ordering::Relaxed),
                    failed: w.failed.load(Ordering::Relaxed),
                    ..Default::default()
                }
                .with_quantiles(&self.lock_latency(t))
            })
            .collect();
        let report = ServeReport { tenants, virtual_ns: None, queries_per_sec: None };
        report.check_invariants(drained);
        report
    }

    #[cfg(test)]
    fn set_serve_hook(&self, hook: impl Fn(&Server<'e, 'db>, u64) + Send + Sync + 'static) {
        assert!(self.serve_hook.set(Box::new(hook)).is_ok(), "one hook per server");
    }

    /// Poisons one response shard and every expert-latency shard the way
    /// a panicking worker would — regression hook proving a poisoned
    /// shard cannot wedge serving. Test use only.
    #[doc(hidden)]
    pub fn poison_shards_for_test(&self) {
        let m = &self.responses.shards[0].state;
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = m.lock().unwrap();
                panic!("poison the response shard");
            })
            .join()
        });
        self.env.poison_latency_shards_for_test();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::{Arc, Barrier};

    use ml4db_storage::datasets::joblite_db;
    use ml4db_storage::{CmpOp, Database};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generous bound on anything a test waits for; reaching it means a
    /// lost wake-up or a wedged worker, reported instead of hanging.
    const PATIENCE: Duration = Duration::from_secs(20);

    fn db() -> Database {
        joblite_db(120, &[], &mut StdRng::seed_from_u64(1))
    }

    fn request(id: u64, class: u8) -> Request {
        let query = Query::new(&["title"]).filter(0, "year", CmpOp::Ge, 1990.0 + (id % 7) as f64);
        Request { id, session: 0, tenant: 0, class, query }
    }

    fn response(id: u64) -> Response {
        Response { request_id: id, tenant: 0, outcome: Outcome::Done { latency_us: id as f64 } }
    }

    /// Ids that all hash to response shard 0.
    fn ids_in_one_shard(n: usize) -> Vec<u64> {
        (0u64..).filter(|&id| ResponseTable::shard_of(id) == 0).take(n).collect()
    }

    /// Many takers parked on, spinning on and just arriving at one shard
    /// while deposits for *other* ids of that shard race them: every
    /// taker must come back with its own response. A lost wake-up shows
    /// as a taker that never reports.
    #[test]
    fn takers_racing_deposits_on_one_shard_lose_no_wakeup() {
        const TAKERS: usize = 8;
        const PER_TAKER: usize = 400;
        let table = Arc::new(ResponseTable::new());
        let ids = ids_in_one_shard(TAKERS * PER_TAKER);
        let start = Arc::new(Barrier::new(TAKERS + 2));
        let (done_tx, done_rx) = channel();
        // Taker t awaits ids t, t + TAKERS, ...; the two depositors walk
        // the id list from opposite ends, so takers meet responses that
        // are early, late and not theirs.
        for t in 0..TAKERS {
            let (table, start, done_tx) = (Arc::clone(&table), Arc::clone(&start), done_tx.clone());
            let mine: Vec<u64> = ids.iter().copied().skip(t).step_by(TAKERS).collect();
            std::thread::spawn(move || {
                start.wait();
                let all_mine = mine.iter().all(|&id| table.await_take(id) == response(id));
                done_tx.send(all_mine).expect("the test is still listening");
            });
        }
        let half = ids.len() / 2;
        let reversed: Vec<u64> = ids[half..].iter().rev().copied().collect();
        for part in [ids[..half].to_vec(), reversed] {
            let (table, start) = (Arc::clone(&table), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for id in part {
                    table.deposit(response(id));
                    std::thread::yield_now();
                }
            });
        }
        for _ in 0..TAKERS {
            match done_rx.recv_timeout(PATIENCE) {
                Ok(all_mine) => assert!(all_mine, "a taker got a response that was not its own"),
                Err(RecvTimeoutError::Timeout) => panic!("a taker never woke: lost wake-up"),
                Err(RecvTimeoutError::Disconnected) => panic!("a taker panicked"),
            }
        }
        assert_eq!(table.duplicates.load(Ordering::Relaxed), 0);
        assert!(table.shards[0].lock().is_empty(), "every response was taken exactly once");
        assert_eq!(table.shards[0].lock().0.parked, 0);
    }

    /// The spin is bounded: a taker whose response is nowhere near is
    /// seen registered as parked, and only then is the response sent.
    #[test]
    fn a_long_wait_parks_instead_of_spinning() {
        let table = Arc::new(ResponseTable::new());
        let id = ids_in_one_shard(1)[0];
        let taker = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.await_take(id))
        };
        let asked = Instant::now();
        while table.shards[0].lock().0.parked == 0 {
            assert!(asked.elapsed() < PATIENCE, "the taker is still not parked: the spin has no bound");
            std::thread::sleep(Duration::from_millis(1));
        }
        table.deposit(response(id));
        assert_eq!(taker.join().expect("taker panicked"), response(id));
        assert_eq!(table.shards[0].lock().0.parked, 0);
    }

    /// A panic in the middle request of a drained batch fails that
    /// request alone; the tickets drained with it are still served.
    #[test]
    fn a_panic_mid_batch_fails_one_request_and_the_batch_goes_on() {
        let db = db();
        let env = Env::new(&db);
        let server = Server::new(&env, ServeConfig::default());
        let in_hand_at_first = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&in_hand_at_first);
        server.set_serve_hook(move |server, id| match id {
            1 => seen.store(server.admission.lock().in_hand as u64, Ordering::SeqCst),
            3 => panic!("injected into request 3"),
            _ => {}
        });
        // Queued before the worker exists: one batch of five.
        for id in 1..=5 {
            assert_eq!(server.submit(request(id, 0)), AdmissionVerdict::Admitted);
        }
        std::thread::scope(|s| {
            s.spawn(|| server.run_worker(0));
            for id in 1..=5 {
                let outcome = server.await_take(id).outcome;
                if id == 3 {
                    assert_eq!(outcome, Outcome::Failed("panic"));
                } else {
                    assert!(matches!(outcome, Outcome::Done { .. }), "request {id}: {outcome:?}");
                }
            }
            server.close();
        });
        assert_eq!(in_hand_at_first.load(Ordering::SeqCst), 5, "the five were one drained batch");
        let report = server.report(true);
        assert_eq!((report.completed(), report.failed()), (4, 1));
        assert_eq!(server.duplicate_responses(), 0);
        assert_eq!(server.latency_histogram(0).total(), 4);
    }

    /// Priority holds between batches: a class-0 request that arrives
    /// while the one worker holds a drained batch of class-2 tickets is
    /// served right after that batch, ahead of every class-2 ticket
    /// still queued.
    #[test]
    fn an_urgent_arrival_overtakes_everything_still_queued() {
        const LOW: std::ops::Range<u64> = 100..112;
        const URGENT: u64 = 1;
        let db = db();
        let env = Env::new(&db);
        let server = Server::new(&env, ServeConfig::default());
        let (holding_tx, holding_rx) = channel();
        let (go_tx, go_rx) = channel();
        let go_rx = Mutex::new(go_rx);
        let order = Arc::new(Mutex::new(Vec::new()));
        let served = Arc::clone(&order);
        server.set_serve_hook(move |_, id| {
            served.lock().unwrap().push(id);
            if id == LOW.start {
                // The worker now holds its first batch: let the test
                // submit the urgent request before anything is served.
                holding_tx.send(()).expect("the test is still listening");
                go_rx.lock().unwrap().recv_timeout(PATIENCE).expect("the test never answered");
            }
        });
        for id in LOW {
            assert_eq!(server.submit(request(id, 2)), AdmissionVerdict::Admitted);
        }
        std::thread::scope(|s| {
            s.spawn(|| server.run_worker(0));
            holding_rx.recv_timeout(PATIENCE).expect("the worker never started its batch");
            assert_eq!(server.queue_depth(), LOW.count() - MAX_BATCH);
            assert_eq!(server.submit(request(URGENT, 0)), AdmissionVerdict::Admitted);
            go_tx.send(()).expect("the worker is waiting");
            for id in LOW.chain([URGENT]) {
                assert!(matches!(server.await_take(id).outcome, Outcome::Done { .. }));
            }
            server.close();
        });
        let mut expected: Vec<u64> = LOW.take(MAX_BATCH).collect();
        expected.push(URGENT);
        expected.extend(LOW.skip(MAX_BATCH));
        assert_eq!(*order.lock().unwrap(), expected);
    }
}
