//! The long-lived serving layer: accept typed query requests one at a time, execute them
//! in shared micro-batches against epoch-pinned graph snapshots.
//!
//! ```text
//!  submit_spec() ─► pin tip Epoch ─► admission queue ─► batcher thread ─► worker pool
//!     │             (EpochPublisher   (mpsc channel)    closes windows    one reusable
//!     │              behind a mutex)                    by size/deadline/ Engine each,
//!     │                                                 epoch change      advanced to the
//!     ▼                                                                   batch's epoch
//!  SpecHandle ◄──────────────── per-query result slots ◄─────────── Engine::run_specs
//! ```
//!
//! Every worker owns a reusable [`Engine`], so the batch index survives across
//! micro-batches: repeated endpoints cost no BFS work, new endpoints extend the index
//! incrementally, and only a growing hop bound forces a rebuild. Each submission is a
//! typed [`QuerySpec`] — result mode plus optional path budget — executed through
//! [`Engine::run_specs`], so an `Exists` probe or a `FirstK` request stops paying
//! enumeration cost the moment it is satisfied even when it shares a micro-batch with
//! full-enumeration queries. The classic [`PathService::submit`] surface remains as a
//! `Collect`-mode wrapper.
//!
//! Graph updates ([`PathService::update`]) never block readers. An update publishes a new
//! [`Epoch`] — an immutable snapshot with a version id — synchronously under the same
//! admission lock queries pin the tip through, so the epoch each query sees is exactly
//! the one defined by its admission order. Micro-batches already pinned to an older epoch
//! keep executing against their snapshot, barrier-free, while the new epoch is served to
//! later submissions; the batcher splits an admission window only when the *pinned epoch*
//! of an arriving query differs from the window's (a no-op update republishes the same
//! tip and splits nothing). Workers catch up lazily via [`Engine::advance_to_epoch`],
//! which merges the epochs' retained edge deltas into one incremental index-maintenance
//! step instead of rebuilding.

use crate::policy::BatchPolicy;
use hcsp_core::{
    BatchEngine, DurabilitySink, Engine, Epoch, EpochPublisher, MicroBatchStats, PathQuery,
    PathSet, QueryResponse, QuerySpec, ServiceStats, UpdateSummary,
};
use hcsp_graph::{DiGraph, GraphUpdate};
use hcsp_storage::snapshot::write_snapshot;
use hcsp_storage::{
    fold_batches, FsyncPolicy, RecoveryReport, StdFs, StorageError, StoreOptions, UpdateStore, Vfs,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The request will never be answered: the worker executing it panicked (queries) or the
/// service failed internally (updates). Returned by the non-panicking `wait_result` /
/// `try_wait` accessors; the plain `wait` surfaces it as a panic instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned;

/// Why a request was refused *at admission* — before it ever reached the queue.
///
/// Returned by the fallible submission surface ([`PathService::try_submit`],
/// [`PathService::try_submit_spec`], [`PathService::try_update`]). The panicking
/// wrappers ([`PathService::submit`] and friends) turn these into panics; a network
/// front-end maps them to protocol error frames instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The query names a vertex outside the served graph's vertex space.
    InvalidEndpoint {
        /// The offending query.
        query: PathQuery,
        /// The vertex-space size of the tip snapshot the query was validated against.
        num_vertices: usize,
    },
    /// The service is shutting down: the admission queue no longer accepts requests.
    ShuttingDown,
    /// The service can no longer admit this kind of request consistently: the admission
    /// lock is poisoned, or (for updates on a durable service) the update store latched
    /// itself after a write failure and refuses to acknowledge further batches until the
    /// service is reopened. Queries may keep serving the last consistent state.
    Poisoned,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::InvalidEndpoint {
                query,
                num_vertices,
            } => write!(
                f,
                "{query} endpoints out of range for a graph of {num_vertices} vertices"
            ),
            AdmissionError::ShuttingDown => {
                f.write_str("service is shutting down: request refused at admission")
            }
            AdmissionError::Poisoned => f.write_str(
                "service admission is poisoned: the request cannot be accepted consistently",
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl std::fmt::Display for Abandoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("request abandoned: the service worker handling it panicked")
    }
}

impl std::error::Error for Abandoned {}

/// The typed answer to one served query spec.
#[derive(Debug)]
pub struct SpecResult {
    /// The mode-shaped response (existence bit, count, or paths).
    pub response: QueryResponse,
    /// Time the query spent in the admission queue before its micro-batch started.
    pub queue_wait: Duration,
    /// Size of the micro-batch the query was executed in.
    pub batch_size: usize,
}

/// The answer to one served `Collect`-mode query (the classic [`PathService::submit`]
/// surface).
#[derive(Debug)]
pub struct QueryResult {
    /// Every HC-s-t path of the query.
    pub paths: PathSet,
    /// Time the query spent in the admission queue before its micro-batch started.
    pub queue_wait: Duration,
    /// Size of the micro-batch the query was executed in.
    pub batch_size: usize,
}

/// Lifecycle of a one-shot slot.
#[derive(Debug, Default)]
enum SlotState<T> {
    /// The request is queued, executing or being published.
    #[default]
    Pending,
    /// The value is available.
    Ready(T),
    /// The request will never be answered (worker panic mid-batch, or an internal
    /// failure while publishing an update).
    Abandoned,
}

/// One-shot slot shared between the side that produces a value (a worker, the publish
/// path) and the [`Handle`] that claims it.
#[derive(Debug)]
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }
}

impl<T> Slot<T> {
    /// Delivers the value. A slot is one-shot: fulfilling it twice (or after an
    /// abandonment) is an invariant violation — the duplicate would silently overwrite
    /// an answer a waiter may already have consumed, and swallowing it hides
    /// double-dispatch bugs — so it debug-panics and is logged (and dropped) in release
    /// builds.
    fn fulfill(&self, value: T) {
        let mut state = self.state.lock().unwrap();
        if !matches!(*state, SlotState::Pending) {
            drop(state);
            debug_assert!(
                false,
                "slot fulfilled twice: one-shot slots take exactly one value"
            );
            eprintln!("hcsp-service: slot fulfilled twice; dropping the duplicate value");
            return;
        }
        *state = SlotState::Ready(value);
        self.ready.notify_all();
    }

    /// Marks a still-pending slot as never-to-be-answered, waking any waiter.
    fn abandon(&self) {
        let mut state = self.state.lock().unwrap();
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Abandoned;
            self.ready.notify_all();
        }
    }
}

/// A one-shot claim on a value the service will produce: see [`SpecHandle`] and
/// [`UpdateHandle`].
#[derive(Debug)]
#[must_use = "dropping one silently discards the result or acknowledgement; call wait() or try_wait()"]
pub struct Handle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Handle<T> {
    /// Blocks until the value is available and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the request was abandoned — the worker executing the query's
    /// micro-batch panicked, or the service failed internally while publishing the
    /// update — so the failure surfaces instead of hanging forever. Use
    /// [`Handle::wait_result`] to handle that case as an error.
    pub fn wait(self) -> T {
        self.wait_result()
            .expect("request abandoned: the service failed while handling it")
    }

    /// Blocks until the value is available; returns [`Abandoned`] instead of panicking
    /// when the request will never be answered.
    pub fn wait_result(self) -> Result<T, Abandoned> {
        let mut state = self.slot.state.lock().unwrap();
        loop {
            match std::mem::take(&mut *state) {
                SlotState::Ready(value) => return Ok(value),
                SlotState::Abandoned => return Err(Abandoned),
                SlotState::Pending => state = self.slot.ready.wait(state).unwrap(),
            }
        }
    }

    /// Non-blocking claim: the value (or the abandonment) if it is already decided,
    /// otherwise the handle itself back, still waitable.
    #[allow(clippy::result_large_err)] // Err is the handle handed back, not an error.
    pub fn try_wait(self) -> Result<Result<T, Abandoned>, Handle<T>> {
        {
            let mut state = self.slot.state.lock().unwrap();
            match std::mem::take(&mut *state) {
                SlotState::Ready(value) => return Ok(Ok(value)),
                SlotState::Abandoned => return Ok(Err(Abandoned)),
                SlotState::Pending => {}
            }
        }
        Err(self)
    }

    /// Whether the value (or the abandonment) is already decided (non-blocking).
    pub fn is_ready(&self) -> bool {
        !matches!(*self.slot.state.lock().unwrap(), SlotState::Pending)
    }
}

/// A claim on the typed result of one submitted [`QuerySpec`]: ready once the spec's
/// micro-batch has executed.
pub type SpecHandle = Handle<SpecResult>;

/// A claim on the completion of one [`PathService::update`] call.
///
/// Publication is synchronous with [`PathService::update`] — the handle is ready by the
/// time that call returns — so `wait` never blocks behind query execution: the epoch
/// protocol applies updates to worker engines lazily, per pinned micro-batch, not behind
/// a pool-wide barrier. Once `wait` returns (equivalently, once the `update` call itself
/// returned), every query submitted afterwards executes against the updated snapshot;
/// queries submitted before it keep their pinned pre-update snapshot regardless of
/// execution timing.
pub type UpdateHandle = Handle<UpdateSummary>;

/// A claim on the result of one submitted `Collect`-mode query (wraps a [`SpecHandle`]).
#[derive(Debug)]
#[must_use = "dropping one silently abandons the result; call wait() or try_wait()"]
pub struct QueryHandle {
    inner: SpecHandle,
}

impl QueryHandle {
    /// Blocks until the query's micro-batch has executed and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if the worker executing the query's micro-batch panicked (the query can
    /// never be answered; panicking here surfaces the failure instead of hanging
    /// forever). Use [`QueryHandle::wait_result`] to handle that case as an error.
    pub fn wait(self) -> QueryResult {
        self.wait_result()
            .expect("query abandoned: the service worker executing it panicked")
    }

    /// Blocks until the query's micro-batch has executed; returns [`Abandoned`] instead
    /// of panicking when the worker executing it died.
    pub fn wait_result(self) -> Result<QueryResult, Abandoned> {
        self.inner.wait_result().map(QueryResult::from_spec)
    }

    /// Non-blocking claim: the result (or the abandonment) if it is already decided,
    /// otherwise the handle itself back, still waitable.
    #[allow(clippy::result_large_err)] // Err is the handle handed back, not an error.
    pub fn try_wait(self) -> Result<Result<QueryResult, Abandoned>, QueryHandle> {
        match self.inner.try_wait() {
            Ok(decided) => Ok(decided.map(QueryResult::from_spec)),
            Err(inner) => Err(QueryHandle { inner }),
        }
    }

    /// Whether the result is already available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

impl QueryResult {
    fn from_spec(result: SpecResult) -> QueryResult {
        QueryResult {
            paths: result
                .response
                .into_paths()
                .expect("submit() always runs in Collect mode"),
            queue_wait: result.queue_wait,
            batch_size: result.batch_size,
        }
    }
}

/// One queued query spec together with its arrival time, pinned epoch and result slot.
struct Submission {
    spec: QuerySpec,
    submitted_at: Instant,
    /// The tip epoch at admission time: the snapshot this query executes against.
    epoch: Arc<Epoch>,
    slot: Arc<Slot<SpecResult>>,
}

impl Drop for Submission {
    /// A submission dropped without [`Slot::fulfill`] (worker panic unwinding the
    /// batch, or an internal channel failure) must not leave its handle blocked forever.
    fn drop(&mut self) {
        self.slot.abandon();
    }
}

/// One admission window's worth of submissions, all pinned to the same epoch.
struct MicroBatch {
    submissions: Vec<Submission>,
    epoch: Arc<Epoch>,
}

/// The service's shared epoch state: the single-writer publisher behind the admission
/// lock, plus a lock-free mirror of the tip id so workers can cheaply detect whether a
/// batch they just finished was pinned behind the tip.
struct EpochCell {
    /// Serialises publishes against tip pins: `submit_spec` reads the tip and enqueues
    /// under this lock, `update` publishes under it, so epoch order *is* admission order.
    publisher: Mutex<EpochPublisher>,
    /// The tip epoch's id, mirrored on every publish (`Release`; readers `Acquire`).
    tip_id: AtomicU64,
}

impl EpochCell {
    fn new(graph: Arc<DiGraph>) -> Self {
        let publisher = EpochPublisher::new(graph);
        let tip_id = AtomicU64::new(publisher.tip().id());
        EpochCell {
            publisher: Mutex::new(publisher),
            tip_id,
        }
    }

    fn tip(&self) -> Arc<Epoch> {
        self.publisher.lock().unwrap().tip()
    }

    fn tip_id(&self) -> u64 {
        self.tip_id.load(Ordering::Acquire)
    }
}

/// Where a durable service keeps its update log and snapshots.
///
/// The backend is part of [`DurabilityOptions`], so one builder entry point —
/// [`PathServiceBuilder::start`] — covers the whole spectrum from purely in-memory
/// serving to a crash-test filesystem.
#[derive(Clone, Default)]
pub enum DurabilityBackend {
    /// No durability: state lives only in memory (the default).
    #[default]
    Ephemeral,
    /// A fresh [`UpdateStore`] in this directory; the started graph becomes snapshot 0.
    /// Starting fails with [`StorageError::AlreadyExists`] if the directory already
    /// holds a store (open it with [`PathServiceBuilder::open`] instead).
    Directory(std::path::PathBuf),
    /// A fresh [`UpdateStore`] over an explicit [`Vfs`] (the crash tests pass a
    /// `FailpointFs`; production code wants [`DurabilityBackend::Directory`]).
    Vfs(Arc<dyn Vfs>),
}

impl std::fmt::Debug for DurabilityBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityBackend::Ephemeral => f.write_str("Ephemeral"),
            DurabilityBackend::Directory(dir) => f.debug_tuple("Directory").field(dir).finish(),
            DurabilityBackend::Vfs(_) => f.write_str("Vfs(..)"),
        }
    }
}

/// Durability configuration for [`PathServiceBuilder::start`] and
/// [`PathServiceBuilder::open`]: where the store lives ([`DurabilityBackend`]), when it
/// fsyncs, and when the background compactor checkpoints.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Where the update log and snapshots live (default: no durability at all).
    pub backend: DurabilityBackend,
    /// When acknowledged update batches are fsynced (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// The background compactor checkpoints (snapshot + log truncation) once the WAL
    /// tail exceeds this many bytes. `u64::MAX` disables background compaction;
    /// explicit [`PathService::checkpoint`] calls still work.
    pub compact_tail_bytes: u64,
    /// How often the background compactor re-examines the tail size (it is also woken
    /// eagerly by every update).
    pub compact_check_interval: Duration,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            backend: DurabilityBackend::Ephemeral,
            fsync: FsyncPolicy::Always,
            compact_tail_bytes: 4 << 20,
            compact_check_interval: Duration::from_millis(25),
        }
    }
}

impl DurabilityOptions {
    /// Options for a store rooted in `dir` (see [`DurabilityBackend::Directory`]).
    pub fn directory(dir: impl Into<std::path::PathBuf>) -> Self {
        DurabilityOptions {
            backend: DurabilityBackend::Directory(dir.into()),
            ..DurabilityOptions::default()
        }
    }

    /// Options for a store over an explicit [`Vfs`] (see [`DurabilityBackend::Vfs`]).
    pub fn vfs(vfs: Arc<dyn Vfs>) -> Self {
        DurabilityOptions {
            backend: DurabilityBackend::Vfs(vfs),
            ..DurabilityOptions::default()
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the background-compaction threshold (`u64::MAX` disables it).
    pub fn compact_tail_bytes(mut self, bytes: u64) -> Self {
        self.compact_tail_bytes = bytes;
        self
    }

    /// Sets how often the background compactor re-examines the WAL tail.
    pub fn compact_check_interval(mut self, interval: Duration) -> Self {
        self.compact_check_interval = interval;
        self
    }
}

/// Shared state of the group-commit protocol (only instantiated for durable services
/// with [`FsyncPolicy::Always`]).
///
/// Under plain `Always`, every update batch pays its own fsync *inside* the admission
/// lock — co-arriving updates serialise behind each other's sync. Group commit moves the
/// fsync out of the lock: the sink appends the frame unsynced (recording the batch
/// sequence as `appended`), and each updater then asks the committer to make the log
/// durable *through its own sequence*. The first such caller becomes the syncer for
/// everything appended so far; callers whose sequence is already covered by a completed
/// (or in-flight) sync just wait — one fsync acknowledges the whole co-arriving window.
#[derive(Debug, Default)]
struct GroupCommitter {
    state: Mutex<GroupState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Highest batch sequence appended (exclusive: `next_batch_seq` after the append).
    appended: u64,
    /// Highest batch sequence made durable (exclusive).
    synced: u64,
    /// The sequence bound (exclusive) an in-flight fsync will cover, if one is running.
    syncing: Option<u64>,
    /// A sync failed: the store is poisoned, nothing past `synced` will ever be durable.
    failed: bool,
    /// Completed group fsyncs (mirrored into [`ServiceStats::group_commit_batches`]).
    fsyncs: u64,
}

impl GroupCommitter {
    /// Records that the frame for batch `seq` reached the (unsynced) log.
    fn note_appended(&self, seq: u64) {
        let mut state = self.state.lock().unwrap();
        state.appended = state.appended.max(seq + 1);
    }

    /// Blocks until every batch below `target` (exclusive) is durable, performing the
    /// fsync if no in-flight sync already covers it. Returns whether this caller's
    /// window is durable, and the number of group fsyncs this call completed (0 when it
    /// rode on someone else's).
    fn sync_through(&self, target: u64, store: &Mutex<UpdateStore>) -> (bool, u64) {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.synced >= target {
                return (true, 0);
            }
            if state.failed {
                return (false, 0);
            }
            match state.syncing {
                // An in-flight sync covers us: wait for it to land.
                Some(bound) if bound >= target => {
                    state = self.done.wait(state).unwrap();
                }
                // No sync in flight (or one that started before our append): become the
                // syncer for everything appended so far.
                _ if state.syncing.is_none() => {
                    let goal = state.appended;
                    state.syncing = Some(goal);
                    drop(state);
                    let outcome = match store.lock() {
                        Ok(mut store) => store.sync().map_err(|_| ()),
                        Err(_) => Err(()),
                    };
                    state = self.state.lock().unwrap();
                    state.syncing = None;
                    match outcome {
                        Ok(()) => {
                            state.synced = state.synced.max(goal);
                            state.fsyncs += 1;
                            self.done.notify_all();
                            if state.synced >= target {
                                return (true, 1);
                            }
                        }
                        Err(()) => {
                            state.failed = true;
                            self.done.notify_all();
                            return (false, 0);
                        }
                    }
                }
                // A sync that won't cover us is in flight: wait for the slot.
                _ => {
                    state = self.done.wait(state).unwrap();
                }
            }
        }
    }
}

/// The [`DurabilitySink`] adapter: appends published batches to the [`UpdateStore`].
///
/// Called from inside [`EpochPublisher::try_publish`] while the admission lock is held,
/// so the lock order is always publisher → store — the same order the checkpoint path
/// uses, which is what makes the two paths deadlock-free. With a [`GroupCommitter`]
/// attached (durable + [`FsyncPolicy::Always`]) the append is *unsynced*: the fsync
/// happens outside the admission lock, shared across co-arriving updates.
struct WalSink {
    store: Arc<Mutex<UpdateStore>>,
    group: Option<Arc<GroupCommitter>>,
}

/// Flattens a [`StorageError`] into the `io::Error` the [`DurabilitySink`] contract
/// carries (unwrapping a plain Io error, stringifying the structured ones).
fn storage_to_io(e: StorageError) -> std::io::Error {
    match e {
        StorageError::Io(e) => e,
        other => std::io::Error::other(other.to_string()),
    }
}

impl DurabilitySink for WalSink {
    fn append(&mut self, updates: &[GraphUpdate]) -> std::io::Result<()> {
        let mut store = self
            .store
            .lock()
            .map_err(|_| std::io::Error::other("update store poisoned"))?;
        match &self.group {
            Some(group) => {
                let seq = store.append_unsynced(updates).map_err(storage_to_io)?;
                group.note_appended(seq);
                Ok(())
            }
            None => store.append(updates).map(|_| ()).map_err(storage_to_io),
        }
    }
}

/// The durable half of a [`PathService`]: the store, the background compactor, and what
/// recovery found at open time.
#[derive(Debug)]
struct Durability {
    store: Arc<Mutex<UpdateStore>>,
    recovery: Option<RecoveryReport>,
    checkpoints: Arc<AtomicU64>,
    /// The group-commit protocol state; `Some` iff the fsync policy is `Always`.
    group: Option<Arc<GroupCommitter>>,
    /// Stop flag + wakeup for the compactor (updates notify it after growing the tail).
    signal: Arc<(Mutex<bool>, Condvar)>,
    compactor: Option<JoinHandle<()>>,
}

/// One checkpoint pass, usable from both the background compactor and
/// [`PathService::checkpoint`]. Takes the admission lock, then the store lock — the
/// same order as the update path — to atomically rotate the WAL and capture the tip
/// graph the rotation point corresponds to; the snapshot itself is written with both
/// locks released, so queries and updates flow concurrently with the expensive part.
/// Returns whether a checkpoint was actually installed.
fn run_checkpoint(cell: &EpochCell, store: &Mutex<UpdateStore>) -> Result<bool, StorageError> {
    let (ticket, graph, vfs) = {
        let Ok(publisher) = cell.publisher.lock() else {
            // A poisoned admission lock means the epoch sequence is broken; there is no
            // consistent tip to snapshot. Recovery from the existing log stays correct.
            return Ok(false);
        };
        let mut store = store
            .lock()
            .map_err(|_| StorageError::Io(std::io::Error::other("update store poisoned")))?;
        let ticket = store.begin_checkpoint()?;
        // Under both locks the tip graph is exactly the state after every batch before
        // the rotation point: the pair (ticket, graph) is consistent by construction.
        (ticket, publisher.tip().graph_arc(), store.vfs())
    };
    match ticket {
        None => Ok(false),
        Some(ticket) => {
            write_snapshot(vfs.as_ref(), ticket.seq, &graph)?;
            store
                .lock()
                .map_err(|_| StorageError::Io(std::io::Error::other("update store poisoned")))?
                .commit_checkpoint(ticket)?;
            Ok(true)
        }
    }
}

/// The background compaction job: wake on the interval (or an update's nudge), check the
/// WAL tail against the threshold, checkpoint when it is exceeded. A storage error stops
/// the job — the service keeps serving and appending, only automatic compaction ends
/// (recovery replays a longer tail).
fn compactor_loop(
    cell: Arc<EpochCell>,
    store: Arc<Mutex<UpdateStore>>,
    signal: Arc<(Mutex<bool>, Condvar)>,
    threshold: u64,
    interval: Duration,
    checkpoints: Arc<AtomicU64>,
) {
    let (stop, wake) = &*signal;
    let mut stopped = stop.lock().unwrap();
    loop {
        if *stopped {
            return;
        }
        stopped = wake.wait_timeout(stopped, interval).unwrap().0;
        if *stopped {
            return;
        }
        let tail = match store.lock() {
            Ok(store) => store.tail_bytes(),
            Err(_) => return,
        };
        if tail < threshold {
            continue;
        }
        drop(stopped);
        match run_checkpoint(&cell, &store) {
            Ok(true) => {
                checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {}
            Err(e) => {
                eprintln!("hcsp-service: background checkpoint failed, compaction stops: {e}");
                return;
            }
        }
        stopped = stop.lock().unwrap();
    }
}

/// Configures and starts a [`PathService`].
#[derive(Debug, Clone)]
pub struct PathServiceBuilder {
    config: BatchEngine,
    policy: BatchPolicy,
    workers: usize,
    index_root_cap: Option<usize>,
    durability: DurabilityOptions,
}

impl Default for PathServiceBuilder {
    fn default() -> Self {
        PathServiceBuilder {
            config: BatchEngine::default(),
            policy: BatchPolicy::default(),
            workers: 1,
            index_root_cap: None,
            durability: DurabilityOptions::default(),
        }
    }
}

impl PathServiceBuilder {
    /// The per-batch engine configuration (algorithm + γ); default `BatchEnum+`.
    pub fn engine(mut self, config: BatchEngine) -> Self {
        self.config = config;
        self
    }

    /// The micro-batch admission policy.
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of worker threads executing micro-batches (each owns a reusable [`Engine`];
    /// values of 0 are treated as 1). This is how the service scales: a micro-batch runs
    /// sequentially on one worker, and workers run micro-batches side by side. One worker
    /// guarantees micro-batches execute in admission order.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Caps each worker's cached index at roughly `cap` roots (see
    /// [`Engine::set_index_root_cap`]): once exceeded, the cache is dropped and rebuilt
    /// from the next micro-batch alone. The default (`None`) keeps every endpoint ever
    /// served indexed — fastest for a stable working set, unbounded memory for a stream
    /// of one-off endpoints.
    pub fn index_root_cap(mut self, cap: usize) -> Self {
        self.index_root_cap = Some(cap);
        self
    }

    /// The durability configuration applied by [`PathServiceBuilder::start`] and
    /// [`PathServiceBuilder::open`]: backend (ephemeral / directory / explicit [`Vfs`]),
    /// fsync policy, compaction thresholds. The default is fully ephemeral.
    pub fn durability(mut self, options: DurabilityOptions) -> Self {
        self.durability = options;
        self
    }

    /// Starts the service over `graph`, durable or not according to the configured
    /// [`DurabilityOptions::backend`].
    ///
    /// With the default [`DurabilityBackend::Ephemeral`] this cannot fail (state lives
    /// only in memory). With a directory or [`Vfs`] backend a fresh [`UpdateStore`] is
    /// initialised there: `graph` becomes snapshot 0 and every acknowledged update batch
    /// is written ahead to the store's log, so [`PathServiceBuilder::open`] on the same
    /// backend recovers the exact acknowledged state after any crash. Fails with
    /// [`StorageError::AlreadyExists`] if the backend already holds a store (open it
    /// instead).
    pub fn start(self, graph: impl Into<Arc<DiGraph>>) -> Result<PathService, StorageError> {
        let graph = graph.into();
        match self.durability.backend.clone() {
            DurabilityBackend::Ephemeral => Ok(self.launch(graph, None)),
            DurabilityBackend::Directory(dir) => {
                let vfs: Arc<dyn Vfs> = Arc::new(StdFs::new(dir)?);
                self.start_on_vfs(graph, vfs)
            }
            DurabilityBackend::Vfs(vfs) => self.start_on_vfs(graph, vfs),
        }
    }

    /// The durable arm of [`PathServiceBuilder::start`]: create a fresh store on `vfs`.
    fn start_on_vfs(
        self,
        graph: Arc<DiGraph>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<PathService, StorageError> {
        let store = UpdateStore::create(
            vfs,
            StoreOptions {
                fsync: self.durability.fsync,
            },
            &graph,
        )?;
        Ok(self.launch(graph, Some((store, None))))
    }

    /// Opens a durable service from an existing store directory, recovering the last
    /// acknowledged state: the newest committed snapshot is loaded and the log tail is
    /// replayed over it. What recovery found is reported by
    /// [`PathService::recovery`].
    pub fn open(self, dir: impl AsRef<Path>) -> Result<PathService, StorageError> {
        let vfs: Arc<dyn Vfs> = Arc::new(StdFs::new(dir)?);
        self.open_vfs(vfs)
    }

    /// [`PathServiceBuilder::open`] over an explicit [`Vfs`].
    pub fn open_vfs(self, vfs: Arc<dyn Vfs>) -> Result<PathService, StorageError> {
        let recovered = UpdateStore::open(
            vfs,
            StoreOptions {
                fsync: self.durability.fsync,
            },
        )?;
        let graph = Arc::new(fold_batches(recovered.base, &recovered.batches));
        Ok(self.launch(graph, Some((recovered.store, Some(recovered.report)))))
    }

    /// Spawns the batcher, worker pool, and (for durable services) the WAL sink and
    /// background compactor.
    fn launch(
        self,
        graph: Arc<DiGraph>,
        durable: Option<(UpdateStore, Option<RecoveryReport>)>,
    ) -> PathService {
        let workers = self.workers.max(1);
        let epoch = Arc::new(EpochCell::new(graph));

        let durability = durable.map(|(store, recovery)| {
            let store = Arc::new(Mutex::new(store));
            // Under `Always`, co-arriving updates share one WAL fsync (group commit);
            // the sink then appends unsynced and each updater syncs through its own
            // sequence outside the admission lock.
            let group = matches!(self.durability.fsync, FsyncPolicy::Always)
                .then(|| Arc::new(GroupCommitter::default()));
            // Every subsequent publish appends to the WAL *before* the epoch swap.
            epoch.publisher.lock().unwrap().set_sink(Box::new(WalSink {
                store: Arc::clone(&store),
                group: group.clone(),
            }));
            let signal = Arc::new((Mutex::new(false), Condvar::new()));
            let checkpoints = Arc::new(AtomicU64::new(0));
            let compactor = (self.durability.compact_tail_bytes != u64::MAX).then(|| {
                let cell = Arc::clone(&epoch);
                let store = Arc::clone(&store);
                let signal = Arc::clone(&signal);
                let checkpoints = Arc::clone(&checkpoints);
                let threshold = self.durability.compact_tail_bytes;
                let interval = self.durability.compact_check_interval;
                std::thread::spawn(move || {
                    compactor_loop(cell, store, signal, threshold, interval, checkpoints)
                })
            });
            Durability {
                store,
                recovery,
                checkpoints,
                group,
                signal,
                compactor,
            }
        });
        let (submit_tx, submit_rx) = mpsc::channel::<Submission>();
        let (batch_tx, batch_rx) = mpsc::channel::<MicroBatch>();
        let policy = self.policy;
        let batcher = std::thread::spawn(move || batcher_loop(submit_rx, batch_tx, policy));

        let batch_rx = Arc::new(Mutex::new(batch_rx));
        let stats = Arc::new(Mutex::new(ServiceStats::default()));
        let workers = (0..workers)
            .map(|_| {
                let epoch = Arc::clone(&epoch);
                let batch_rx = Arc::clone(&batch_rx);
                let stats = Arc::clone(&stats);
                let config = self.config;
                let root_cap = self.index_root_cap;
                std::thread::spawn(move || worker_loop(epoch, config, root_cap, batch_rx, stats))
            })
            .collect();

        PathService {
            epoch,
            submit_tx: Some(submit_tx),
            batcher: Some(batcher),
            workers,
            stats,
            started_at: Instant::now(),
            durability,
        }
    }
}

/// Collects submissions into micro-batches according to the policy: a window opens when
/// its first query arrives and closes at the size cap, the deadline, **or an epoch
/// change**, whichever first.
///
/// Every submission carries the epoch pinned at its admission; a window holds
/// submissions of exactly one epoch. When an arriving submission pins a *different*
/// epoch than the window's, the window closes (its queries execute against their pinned
/// snapshot, undisturbed) and the newcomer seeds the next window. The batcher never sees
/// updates at all — publication happens synchronously inside [`PathService::update`] —
/// so a no-op update, which republishes the same tip, splits nothing.
fn batcher_loop(rx: Receiver<Submission>, batch_tx: Sender<MicroBatch>, policy: BatchPolicy) {
    // A submission that pinned a newer epoch than the open window; it closed that window
    // and must open the next one.
    let mut carry: Option<Submission> = None;
    loop {
        let first = match carry.take() {
            Some(submission) => submission,
            None => match rx.recv() {
                Ok(submission) => submission,
                Err(_) => return,
            },
        };
        let epoch = Arc::clone(&first.epoch);
        let mut submissions = vec![first];
        if !policy.is_per_query() {
            let deadline = Instant::now() + policy.max_delay;
            while submissions.len() < policy.max_batch_size {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match rx.recv_timeout(remaining) {
                    Ok(submission) => {
                        if submission.epoch.id() != epoch.id() {
                            // Epoch boundary: this window's queries keep their pinned
                            // snapshot; the newcomer seeds the next window.
                            carry = Some(submission);
                            break;
                        }
                        submissions.push(submission);
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        if batch_tx.send(MicroBatch { submissions, epoch }).is_err() {
            return;
        }
    }
    // Submission side disconnected: dropping `batch_tx` lets the workers drain and exit.
}

/// Executes micro-batches on one reusable engine, routing results back per query.
///
/// Before running a batch, the engine advances to the batch's pinned epoch
/// ([`Engine::advance_to_epoch`]): a no-op when already there, an incremental index
/// maintenance step when the epochs' retained deltas cover the gap, an index
/// invalidation otherwise — never a barrier against other workers.
fn worker_loop(
    epoch_cell: Arc<EpochCell>,
    config: BatchEngine,
    root_cap: Option<usize>,
    batch_rx: Arc<Mutex<Receiver<MicroBatch>>>,
    stats: Arc<Mutex<ServiceStats>>,
) {
    let mut engine = Engine::at_epoch(&epoch_cell.tip(), config);
    engine.set_index_root_cap(root_cap);
    loop {
        // Hold the lock only while waiting for one item; the next worker queues on the
        // mutex, so batches spread across the pool without a work-stealing scheduler.
        let item = { batch_rx.lock().unwrap().recv() };
        let batch = match item {
            Ok(batch) => batch,
            Err(_) => return,
        };

        let exec_start = Instant::now();
        let specs: Vec<QuerySpec> = batch.submissions.iter().map(|s| s.spec).collect();
        // A panicking batch (e.g. a query panicking deep in the enumeration) must not
        // kill the worker: the batch's submissions are dropped by the unwind, which
        // abandons their slots (waking the waiters), and the worker serves on with a
        // fresh engine at the batch's epoch — the cached index may be mid-mutation.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let advance = engine.advance_to_epoch(&batch.epoch);
            (advance, engine.run_specs(&specs))
        }));
        let (advance, outcome) = match executed {
            Ok(pair) => pair,
            Err(_) => {
                let epoch = Arc::clone(&batch.epoch);
                drop(batch);
                let mut fresh = Engine::at_epoch(&epoch, config);
                fresh.set_index_root_cap(root_cap);
                engine = fresh;
                continue;
            }
        };
        let exec_time = exec_start.elapsed();

        let batch_size = batch.submissions.len();
        let mut total_queue_wait = Duration::ZERO;
        let mut max_queue_wait = Duration::ZERO;
        for submission in &batch.submissions {
            let queue_wait = exec_start.saturating_duration_since(submission.submitted_at);
            total_queue_wait += queue_wait;
            max_queue_wait = max_queue_wait.max(queue_wait);
        }

        // Record before delivering: a caller returning from `wait()` may immediately
        // snapshot `PathService::stats()` and must see this batch counted.
        {
            let mut stats = stats.lock().unwrap();
            stats.record(&MicroBatchStats {
                batch_size,
                max_queue_wait,
                total_queue_wait,
                exec_time,
                run: outcome.stats,
            });
            if batch.epoch.id() < epoch_cell.tip_id() {
                // This batch ran to completion against a superseded snapshot — the
                // barrier-free read the epoch protocol exists for.
                stats.batches_pinned_behind += 1;
            }
            stats.rebfs_avoided += advance.supported_deletes;
        }

        for (submission, response) in batch.submissions.into_iter().zip(outcome.responses) {
            let queue_wait = exec_start.saturating_duration_since(submission.submitted_at);
            submission.slot.fulfill(SpecResult {
                response,
                queue_wait,
                batch_size,
            });
        }
    }
}

/// A long-lived path-query service: queries stream in one at a time, accumulate under a
/// [`BatchPolicy`], and execute as shared micro-batches on a pool of reusable engines.
///
/// # Example
///
/// ```
/// use hcsp_core::PathQuery;
/// use hcsp_graph::DiGraph;
/// use hcsp_service::{BatchPolicy, PathService};
/// use std::time::Duration;
///
/// // A diamond with two parallel 2-hop routes.
/// let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
/// let service = PathService::builder()
///     .policy(BatchPolicy::by_size(8, Duration::from_millis(2)))
///     .start(graph)
///     .unwrap();
///
/// // Queries are submitted one at a time; each handle waits for its own result.
/// let handle = service.submit(PathQuery::new(0u32, 3u32, 3));
/// let result = handle.wait();
/// assert_eq!(result.paths.len(), 2);
/// assert_eq!(result.paths.get(0)[0], hcsp_graph::VertexId(0));
///
/// let stats = service.shutdown();
/// assert_eq!(stats.num_queries, 1);
/// assert_eq!(stats.produced_paths, 2);
/// ```
#[derive(Debug)]
pub struct PathService {
    /// The epoch protocol state shared with the worker pool. Also the admission lock:
    /// pinning a tip for a query and publishing a new tip for an update serialise here.
    epoch: Arc<EpochCell>,
    submit_tx: Option<Sender<Submission>>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<Mutex<ServiceStats>>,
    started_at: Instant,
    /// The WAL + snapshot store and its background compactor; `None` for in-memory
    /// services.
    durability: Option<Durability>,
}

impl std::fmt::Debug for EpochCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("tip_id", &self.tip_id())
            .finish_non_exhaustive()
    }
}

impl PathService {
    /// Starts configuring a service.
    pub fn builder() -> PathServiceBuilder {
        PathServiceBuilder::default()
    }

    /// Starts a service over `graph` with default engine, policy and a single worker.
    pub fn start(graph: impl Into<Arc<DiGraph>>) -> Self {
        PathService::builder()
            .start(graph)
            .expect("an ephemeral service start cannot fail")
    }

    /// Opens a durable service from an existing store directory with default
    /// configuration, recovering the last acknowledged state (snapshot + log-tail
    /// replay). See [`PathServiceBuilder::open`] for the configurable variant and
    /// [`PathService::recovery`] for what recovery found.
    pub fn open(dir: impl AsRef<Path>) -> Result<PathService, StorageError> {
        PathService::builder().open(dir)
    }

    /// Submits one typed query request; returns a handle to wait on its typed result.
    ///
    /// The spec's [`hcsp_core::ResultMode`] decides both the response shape and how much
    /// work the query costs: an `Exists` probe or a `FirstK` request stops the moment it
    /// is satisfied, even mid-micro-batch next to full-enumeration queries.
    ///
    /// The query executes against the tip [`Epoch`] pinned here, at admission: updates
    /// published later never change what it returns, and it never waits for them.
    ///
    /// Note on `FirstK` determinism: the returned paths are the first `k` in the
    /// engine's enumeration order *for the executed micro-batch* — a deterministic
    /// function of the batch (and always a subset of the full result set), but batching
    /// itself depends on arrival timing.
    ///
    /// # Panics
    ///
    /// Panics if admission refuses the spec — out-of-range endpoints (in the caller's
    /// thread, rather than in a worker that is executing other users' queries), a
    /// shutting-down service, or a poisoned admission lock. Use
    /// [`PathService::try_submit_spec`] to handle those cases as errors; a thin
    /// `expect`-style wrapper is all this method is.
    pub fn submit_spec(&self, spec: QuerySpec) -> SpecHandle {
        match self.try_submit_spec(spec) {
            Ok(handle) => handle,
            Err(refusal) => panic!("{refusal}"),
        }
    }

    /// Fallible twin of [`PathService::submit_spec`]: refuses the spec with an
    /// [`AdmissionError`] instead of panicking.
    ///
    /// This is the surface a network front-end uses — an invalid query from one client
    /// must become an error *response*, never a panic inside the serving process.
    pub fn try_submit_spec(&self, spec: QuerySpec) -> Result<SpecHandle, AdmissionError> {
        // The admission lock is held across the send: the pinned tip cannot be
        // superseded between validation and admission, so a query validated against a
        // grown vertex space is guaranteed to be admitted after the update that grew it.
        let Ok(publisher) = self.epoch.publisher.lock() else {
            return Err(AdmissionError::Poisoned);
        };
        let tip = publisher.tip();
        let num_vertices = tip.graph().num_vertices();
        let query = spec.query;
        if query.source.index() >= num_vertices || query.target.index() >= num_vertices {
            return Err(AdmissionError::InvalidEndpoint {
                query,
                num_vertices,
            });
        }
        let slot = Arc::new(Slot::default());
        let submission = Submission {
            spec,
            submitted_at: Instant::now(),
            epoch: tip,
            slot: Arc::clone(&slot),
        };
        let Some(tx) = self.submit_tx.as_ref() else {
            return Err(AdmissionError::ShuttingDown);
        };
        if tx.send(submission).is_err() {
            // The batcher is gone; the returned submission's Drop abandoned the slot.
            return Err(AdmissionError::ShuttingDown);
        }
        drop(publisher);
        Ok(SpecHandle { slot })
    }

    /// Submits one query in `Collect` mode (the classic surface); returns a handle to
    /// wait on its full result set. Equivalent to
    /// `submit_spec(QuerySpec::collect(query))` with a [`QueryResult`]-shaped answer.
    ///
    /// # Panics
    ///
    /// Panics if admission refuses the query (see [`PathService::submit_spec`]); use
    /// [`PathService::try_submit`] to handle refusal as an error.
    pub fn submit(&self, query: PathQuery) -> QueryHandle {
        QueryHandle {
            inner: self.submit_spec(QuerySpec::collect(query)),
        }
    }

    /// Fallible twin of [`PathService::submit`]: refuses the query with an
    /// [`AdmissionError`] instead of panicking.
    pub fn try_submit(&self, query: PathQuery) -> Result<QueryHandle, AdmissionError> {
        self.try_submit_spec(QuerySpec::collect(query))
            .map(|inner| QueryHandle { inner })
    }

    /// Applies a batch of graph updates (edge insertions/deletions) by publishing a new
    /// [`Epoch`]; returns a handle that is already complete when this call returns.
    ///
    /// Publication is synchronous and barrier-free: the new tip is built and swapped in
    /// under the admission lock, so queries submitted before this call keep their pinned
    /// pre-update snapshot (and keep executing, even if their micro-batch is still
    /// waiting or running when the epoch lands) while queries submitted after it pin the
    /// post-update snapshot. No worker stops; worker engines advance to the new epoch
    /// lazily, when they next pick up a batch pinned to it. Insertions may grow the
    /// vertex space; queries naming the new vertices validate from the moment this call
    /// returns.
    ///
    /// Results are exactly those of an offline engine over the corresponding snapshot:
    /// the update path changes *which snapshot* a query sees (by admission order), never
    /// *what* a given snapshot returns.
    ///
    /// A poisoned admission lock or a durability failure means the batch was *not*
    /// acknowledged: the returned handle is *abandoned* — [`UpdateHandle::wait_result`]
    /// reports [`Abandoned`] — instead of propagating a panic into this caller. Use
    /// [`PathService::try_update`] to observe the refusal as an [`AdmissionError`].
    pub fn update(&self, updates: impl Into<Vec<GraphUpdate>>) -> UpdateHandle {
        match self.try_update(updates) {
            Ok(handle) => handle,
            Err(_) => {
                let slot = Arc::new(Slot::default());
                slot.abandon();
                UpdateHandle { slot }
            }
        }
    }

    /// Fallible twin of [`PathService::update`]: refuses the batch with an
    /// [`AdmissionError`] when it cannot be acknowledged.
    ///
    /// [`AdmissionError::Poisoned`] covers both a poisoned admission lock and a durable
    /// store that failed a write or fsync: in either case nothing past the last
    /// acknowledged batch will ever be durable, so no later update may be acknowledged
    /// until the service is reopened. (The failed batch's log write may still have
    /// partially landed: recovery treats such an un-acked batch appearing after a
    /// restart as applied, which the at-least-once contract of durable updates allows.)
    /// Queries keep serving the last acknowledged state throughout.
    ///
    /// On a durable service with [`FsyncPolicy::Always`], co-arriving updates share one
    /// WAL fsync (*group commit*): the frame is appended under the admission lock, the
    /// fsync happens outside it, batched across every update appended in the window.
    /// The new epoch becomes visible to queries when this call publishes it; the call
    /// returns — acknowledging durability — only after the covering fsync lands.
    pub fn try_update(
        &self,
        updates: impl Into<Vec<GraphUpdate>>,
    ) -> Result<UpdateHandle, AdmissionError> {
        let updates: Vec<GraphUpdate> = updates.into();
        let (summary, published, group_target) = {
            let Ok(mut publisher) = self.epoch.publisher.lock() else {
                return Err(AdmissionError::Poisoned);
            };
            let before = publisher.tip().id();
            // On a durable service the publish appends to the WAL first; a sink failure
            // means the batch was *not* acknowledged — the tip is untouched.
            let (tip, summary) = match publisher.try_publish(&updates) {
                Ok(pair) => pair,
                Err(_) => return Err(AdmissionError::Poisoned),
            };
            let published = tip.id() != before;
            self.epoch.tip_id.store(tip.id(), Ordering::Release);
            // Group-commit window bound: everything appended up to now (including this
            // batch) is what our covering fsync must reach. Read under the admission
            // lock so the bound is exact. Empty batches never touch the sink.
            let group_target = match (&self.durability, updates.is_empty()) {
                (Some(durability), false) => durability
                    .group
                    .as_ref()
                    .map(|group| (Arc::clone(group), group.state.lock().unwrap().appended)),
                _ => None,
            };
            (summary, published, group_target)
        };
        // Nudge the compactor: the tail just grew.
        if let Some(durability) = &self.durability {
            durability.signal.1.notify_all();
        }
        // The fsync happens here, *outside* the admission lock: co-arriving updates
        // append under the lock and share whichever single fsync covers them all.
        let mut group_fsyncs = 0;
        if let Some((group, target)) = group_target {
            let store = &self
                .durability
                .as_ref()
                .expect("group commit implies a durable service")
                .store;
            let (durable, fsyncs) = group.sync_through(target, store);
            group_fsyncs = fsyncs;
            if !durable {
                return Err(AdmissionError::Poisoned);
            }
        }
        // Record before fulfilling: a caller returning from `wait()` may immediately
        // snapshot `PathService::stats()` and must see this update counted.
        let slot = Arc::new(Slot::default());
        {
            let mut stats = self.stats.lock().unwrap();
            stats.record_update(&summary, 1);
            stats.group_commit_batches += group_fsyncs;
            if published {
                stats.epochs_published += 1;
            }
        }
        slot.fulfill(summary);
        Ok(UpdateHandle { slot })
    }

    /// Submits a sequence of queries back to back, returning one handle per query.
    pub fn submit_all(&self, queries: impl IntoIterator<Item = PathQuery>) -> Vec<QueryHandle> {
        queries.into_iter().map(|q| self.submit(q)).collect()
    }

    /// Submits a sequence of typed specs back to back, returning one handle per spec.
    pub fn submit_specs(&self, specs: impl IntoIterator<Item = QuerySpec>) -> Vec<SpecHandle> {
        specs.into_iter().map(|s| self.submit_spec(s)).collect()
    }

    /// Replays an open-loop arrival schedule: sleeps until each event's offset from now,
    /// then submits its query. Returns the handles in schedule order.
    ///
    /// Offsets are relative to the call, so a schedule generated by the workload crate's
    /// arrival process replays with its intended inter-arrival gaps.
    pub fn replay(
        &self,
        schedule: impl IntoIterator<Item = (Duration, PathQuery)>,
    ) -> Vec<QueryHandle> {
        let start = Instant::now();
        schedule
            .into_iter()
            .map(|(offset, query)| {
                let wait = offset.saturating_sub(start.elapsed());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                self.submit(query)
            })
            .collect()
    }

    /// A snapshot of the aggregate service statistics so far.
    pub fn stats(&self) -> ServiceStats {
        self.stats.lock().unwrap().clone()
    }

    /// The current tip epoch's version id (0 until the first effective update).
    pub fn epoch_id(&self) -> u64 {
        self.epoch.tip_id()
    }

    /// Whether the service writes acknowledged updates to a durable store.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// What recovery found when this service was opened from an existing store
    /// directory. `None` for in-memory services and for freshly created stores.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.durability.as_ref()?.recovery.as_ref()
    }

    /// Checkpoints completed so far (explicit calls plus the background compactor's).
    pub fn checkpoints(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(0, |d| d.checkpoints.load(Ordering::Relaxed))
    }

    /// Forces a checkpoint *now*: snapshot the current state, truncate the log tail.
    /// Returns whether one was installed (`false` when nothing has changed since the
    /// last checkpoint, or on an in-memory service). Queries and updates keep flowing
    /// while the snapshot is written; only the WAL rotation itself holds the admission
    /// lock.
    pub fn checkpoint(&self) -> Result<bool, StorageError> {
        let Some(durability) = &self.durability else {
            return Ok(false);
        };
        let installed = run_checkpoint(&self.epoch, &durability.store)?;
        if installed {
            durability.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(installed)
    }

    /// Wall-clock time since the service started (the denominator for
    /// [`ServiceStats::throughput_qps`]).
    pub fn uptime(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// Stops accepting queries, drains everything already submitted, joins all threads and
    /// returns the final statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.finish();
        self.stats.lock().unwrap().clone()
    }

    fn finish(&mut self) {
        // Stop the compactor first so no checkpoint races the shutdown.
        if let Some(durability) = &mut self.durability {
            if let Ok(mut stopped) = durability.signal.0.lock() {
                *stopped = true;
            }
            durability.signal.1.notify_all();
            if let Some(compactor) = durability.compactor.take() {
                let _ = compactor.join();
            }
        }
        // Dropping the submission sender unblocks the batcher, which flushes its final
        // window and drops the batch sender, which drains the workers.
        self.submit_tx.take();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // A clean shutdown leaves the whole log on stable storage whatever the policy.
        if let Some(durability) = &self.durability {
            if let Ok(mut store) = durability.store.lock() {
                let _ = store.sync();
            }
        }
    }
}

impl Drop for PathService {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsp_core::BatchEngine;
    use hcsp_graph::generators::regular::{complete, grid};
    use hcsp_graph::VertexId;

    fn grid_queries() -> Vec<PathQuery> {
        vec![
            PathQuery::new(0u32, 15u32, 6),
            PathQuery::new(1u32, 15u32, 6),
            PathQuery::new(0u32, 11u32, 5),
            PathQuery::new(4u32, 15u32, 5),
            PathQuery::new(0u32, 15u32, 4),
        ]
    }

    fn offline_counts(graph: &DiGraph, queries: &[PathQuery]) -> Vec<u64> {
        let (counts, _) = Engine::new(graph.clone(), BatchEngine::default()).run_counting(queries);
        counts
    }

    #[test]
    fn served_results_match_offline_batch_run() {
        let graph = grid(4, 4);
        let queries = grid_queries();
        let expected = offline_counts(&graph, &queries);

        let service = PathService::builder()
            .policy(BatchPolicy::by_size(
                queries.len(),
                Duration::from_millis(200),
            ))
            .start(graph)
            .unwrap();
        let handles = service.submit_all(queries.clone());
        for (handle, (query, expected)) in handles.into_iter().zip(queries.iter().zip(&expected)) {
            let result = handle.wait();
            assert_eq!(result.paths.len() as u64, *expected, "{query}");
            for p in result.paths.iter() {
                assert_eq!(p[0], query.source);
                assert_eq!(*p.last().unwrap(), query.target);
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.num_queries, queries.len());
        assert_eq!(stats.produced_paths, expected.iter().sum::<u64>());
    }

    #[test]
    fn zero_deadline_serves_every_query_alone() {
        let graph = grid(4, 4);
        let queries = grid_queries();
        let expected = offline_counts(&graph, &queries);

        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .start(graph)
            .unwrap();
        let handles = service.submit_all(queries.clone());
        let counts: Vec<u64> = handles
            .into_iter()
            .map(|h| h.wait().paths.len() as u64)
            .collect();
        assert_eq!(counts, expected);

        let stats = service.shutdown();
        assert_eq!(stats.num_batches, stats.num_queries, "one batch per query");
        assert_eq!(stats.max_batch_size, 1);
        assert_eq!(stats.sharing_ratio(), 0.0);
    }

    #[test]
    fn size_cap_closes_the_window_early() {
        let graph = grid(4, 4);
        // A generous deadline: dispatch must be triggered by the size cap, not time.
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(2, Duration::from_secs(30)))
            .start(graph)
            .unwrap();
        let handles = service.submit_all(grid_queries().into_iter().take(4));
        for handle in handles {
            let result = handle.wait();
            assert!(result.batch_size <= 2);
        }
        let stats = service.shutdown();
        assert_eq!(stats.num_queries, 4);
        assert!(stats.num_batches >= 2);
        assert!(stats.max_batch_size <= 2);
    }

    #[test]
    fn multiple_workers_preserve_per_query_results() {
        let graph = complete(6);
        let queries: Vec<PathQuery> = (0..12).map(|i| PathQuery::new(i % 5, 5u32, 3)).collect();
        let expected = offline_counts(&graph, &queries);

        let service = PathService::builder()
            .workers(3)
            .policy(BatchPolicy::by_size(3, Duration::from_millis(50)))
            .start(graph)
            .unwrap();
        let handles = service.submit_all(queries);
        let counts: Vec<u64> = handles
            .into_iter()
            .map(|h| h.wait().paths.len() as u64)
            .collect();
        assert_eq!(counts, expected);
        let stats = service.shutdown();
        assert_eq!(stats.num_queries, 12);
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let graph = complete(5);
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(64, Duration::from_millis(500)))
            .start(graph)
            .unwrap();
        let handles = service.submit_all((0..8).map(|i| PathQuery::new(i % 4, 4u32, 3)));
        // Shut down immediately: every already-submitted query must still be answered.
        let stats = service.shutdown();
        assert_eq!(stats.num_queries, 8);
        for handle in handles {
            assert!(handle.is_ready());
            assert!(!handle.wait().paths.is_empty());
        }
    }

    #[test]
    fn replay_submits_in_schedule_order() {
        let graph = complete(5);
        let service = PathService::start(graph);
        let schedule = vec![
            (Duration::ZERO, PathQuery::new(0u32, 4u32, 2)),
            (Duration::from_millis(1), PathQuery::new(1u32, 4u32, 2)),
            (Duration::from_millis(2), PathQuery::new(2u32, 4u32, 3)),
        ];
        let handles = service.replay(schedule);
        assert_eq!(handles.len(), 3);
        for handle in handles {
            let result = handle.wait();
            assert!(result
                .paths
                .iter()
                .all(|p| *p.last().unwrap() == VertexId(4)));
        }
        assert!(service.uptime() > Duration::ZERO);
        assert_eq!(service.stats().num_queries, 3);
        drop(service);
    }

    #[test]
    fn updates_are_snapshot_boundaries_in_admission_order() {
        // A diamond whose second route appears only after the update.
        let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap();
        let q = PathQuery::new(0u32, 3u32, 3);
        // A generous window: the pre-update query would otherwise wait out the deadline;
        // the epoch change carried by `after` must close the window instead.
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(64, Duration::from_secs(30)))
            .start(graph)
            .unwrap();
        let before = service.submit(q);
        let update = service.update(vec![
            GraphUpdate::insert(0u32, 2u32),
            GraphUpdate::insert(2u32, 3u32),
        ]);
        let after = service.submit(q);
        // Shutdown flushes the (30 s) window holding `after`; the window holding
        // `before` must already have been split off by the epoch boundary.
        let stats = service.shutdown();

        let before = before.wait();
        assert_eq!(before.paths.len(), 1, "pre-update snapshot");
        assert_eq!(
            before.batch_size, 1,
            "the epoch change must have closed the first window before `after` joined it"
        );
        assert_eq!(after.wait().paths.len(), 2, "post-update snapshot");
        assert_eq!(update.wait().applied, 2);
        assert_eq!(stats.update_batches, 1);
        assert_eq!(stats.updates_applied, 2);
        assert_eq!(stats.epochs_published, 1);
    }

    #[test]
    fn updates_reach_every_worker_engine() {
        let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap();
        let q = PathQuery::new(0u32, 3u32, 3);
        let service = PathService::builder()
            .workers(4)
            .policy(BatchPolicy::immediate())
            .start(graph)
            .unwrap();
        // Warm all workers on the old graph, then update, then hammer again: whichever
        // worker picks a post-update query must advance its engine to the new epoch.
        for handle in service.submit_all(std::iter::repeat_n(q, 8)) {
            assert_eq!(handle.wait().paths.len(), 1);
        }
        service
            .update(vec![
                GraphUpdate::insert(0u32, 2u32),
                GraphUpdate::insert(2u32, 3u32),
            ])
            .wait();
        for handle in service.submit_all(std::iter::repeat_n(q, 8)) {
            assert_eq!(handle.wait().paths.len(), 2);
        }
        let stats = service.shutdown();
        assert_eq!(stats.update_batches, 1, "one update however many workers");
        assert_eq!(stats.epochs_published, 1);
    }

    #[test]
    fn update_deletions_remove_paths() {
        let graph = grid(4, 4);
        let q = PathQuery::new(0u32, 15u32, 6);
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .start(graph.clone())
            .unwrap();
        let expected_before = offline_counts(&graph, &[q])[0];
        assert_eq!(service.submit(q).wait().paths.len() as u64, expected_before);

        let mut delta = hcsp_graph::DeltaGraph::new(graph);
        assert!(delta.delete_edge(VertexId(0), VertexId(1)));
        let summary = service.update(vec![GraphUpdate::delete(0u32, 1u32)]).wait();
        assert_eq!(summary.applied, 1);
        let expected_after = offline_counts(&delta.compact(), &[q])[0];
        assert!(expected_after < expected_before);
        assert_eq!(service.submit(q).wait().paths.len() as u64, expected_after);
        service.shutdown();
    }

    #[test]
    fn updates_grow_the_vertex_space_for_validation() {
        let graph = DiGraph::from_edge_list(2, &[(0, 1)]).unwrap();
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .start(graph)
            .unwrap();
        service.update(vec![GraphUpdate::insert(1u32, 2u32)]).wait();
        // Vertex 2 did not exist at start; after the update it is addressable.
        let result = service.submit(PathQuery::new(0u32, 2u32, 2)).wait();
        assert_eq!(result.paths.len(), 1);
        service.shutdown();
    }

    #[test]
    fn noop_update_completes_with_zero_applied() {
        let service = PathService::start(complete(3));
        let handle = service.update(Vec::new());
        let summary = handle.wait();
        assert_eq!(summary, UpdateSummary::default());
        let handle = service.update(vec![GraphUpdate::insert(0u32, 1u32)]);
        assert_eq!(handle.wait().ignored, 1);
        let stats = service.stats();
        assert_eq!(stats.update_batches, 2);
        assert_eq!(stats.epochs_published, 0, "no-op updates publish no epoch");
        assert_eq!(service.epoch_id(), 0);
        service.shutdown();
    }

    #[test]
    fn pending_updates_complete_at_shutdown() {
        let graph = complete(4);
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(64, Duration::from_millis(500)))
            .start(graph)
            .unwrap();
        let query = service.submit(PathQuery::new(0u32, 3u32, 2));
        let update = service.update(vec![GraphUpdate::delete(0u32, 3u32)]);
        // Publication is synchronous: the handle is ready before shutdown.
        assert!(update.is_ready());
        let stats = service.shutdown();
        assert_eq!(stats.update_batches, 1);
        assert_eq!(update.wait().applied, 1);
        // The query pinned the pre-update epoch: old snapshot (direct edge intact).
        assert!(
            query.wait().paths.iter().any(|p| p.len() == 2),
            "direct 0 -> 3 path must exist pre-update"
        );
    }

    #[test]
    fn spec_submissions_serve_typed_responses() {
        use hcsp_core::ResultMode;
        let graph = grid(4, 4);
        let queries = grid_queries();
        let specs = vec![
            QuerySpec::exists(queries[0]),
            QuerySpec::count(queries[1]),
            QuerySpec::first_k(queries[2], 2),
            QuerySpec::collect(queries[3]),
            QuerySpec::count(queries[4]).with_path_budget(3),
        ];
        // One admission window for the whole set and one worker: the micro-batch is
        // exactly `specs`, so the typed responses must equal the offline spec run.
        let mut offline = Engine::new(graph.clone(), BatchEngine::default());
        let expected = offline.run_specs(&specs);

        let service = PathService::builder()
            .policy(BatchPolicy::by_size(
                specs.len(),
                Duration::from_millis(500),
            ))
            .start(graph)
            .unwrap();
        let handles = service.submit_specs(specs.clone());
        for ((handle, spec), expected) in handles.into_iter().zip(&specs).zip(&expected.responses) {
            let result = handle.wait();
            assert_eq!(&result.response, expected, "{spec}");
            match spec.mode {
                ResultMode::Exists => assert!(matches!(
                    result.response,
                    hcsp_core::QueryResponse::Exists(_)
                )),
                ResultMode::Count => {
                    assert!(matches!(
                        result.response,
                        hcsp_core::QueryResponse::Count(_)
                    ))
                }
                _ => assert!(result.response.paths().is_some()),
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.num_queries, specs.len());
    }

    #[test]
    fn epoch_changes_split_admission_windows() {
        // Drive the batcher loop directly with a preloaded queue, so window splitting is
        // deterministic (no racing against live threads).
        let mut publisher = EpochPublisher::new(DiGraph::from_edge_list(4, &[(0, 1)]).unwrap());
        let e0 = publisher.tip();
        let (e1, _) = publisher.publish(&[GraphUpdate::insert(1u32, 2u32)]);
        assert_ne!(e0.id(), e1.id());

        let submission = |s: u32, epoch: &Arc<Epoch>| Submission {
            spec: QuerySpec::collect(PathQuery::new(s, 1u32, 2)),
            submitted_at: Instant::now(),
            epoch: Arc::clone(epoch),
            slot: Arc::new(Slot::default()),
        };
        let (tx, rx) = mpsc::channel::<Submission>();
        let (batch_tx, batch_rx) = mpsc::channel::<MicroBatch>();
        tx.send(submission(0, &e0)).unwrap();
        tx.send(submission(1, &e0)).unwrap();
        tx.send(submission(2, &e1)).unwrap();
        tx.send(submission(3, &e1)).unwrap();
        drop(tx);
        batcher_loop(
            rx,
            batch_tx,
            BatchPolicy::by_size(64, Duration::from_secs(30)),
        );

        // Despite one window having room for all four, the epoch boundary splits them.
        let batches: Vec<MicroBatch> = batch_rx.try_iter().collect();
        assert_eq!(batches.len(), 2, "one window per epoch");
        assert_eq!(batches[0].epoch.id(), e0.id());
        assert_eq!(batches[0].submissions.len(), 2);
        assert_eq!(batches[1].epoch.id(), e1.id());
        assert_eq!(batches[1].submissions.len(), 2);
    }

    #[test]
    fn pinned_batches_complete_while_updates_publish() {
        // The MVCC headline: a query batching under a long window neither blocks an
        // update nor is flushed by it; it completes later against its pinned snapshot.
        let graph = grid(4, 4);
        let q = PathQuery::new(0u32, 15u32, 6);
        let expected_before = offline_counts(&graph, &[q])[0];
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(64, Duration::from_secs(30)))
            .start(graph.clone())
            .unwrap();

        let pinned = service.submit(q);
        let update = service.update(vec![GraphUpdate::delete(0u32, 1u32)]);
        // The update completed synchronously — it did not wait for the open window...
        let summary = update.wait();
        assert_eq!(summary.applied, 1);
        // ...and it did not close the window either: the pinned query is still batching.
        assert!(
            !pinned.is_ready(),
            "a (no-op for readers) publish must not flush the open admission window"
        );
        assert_eq!(service.stats().epochs_published, 1);

        // A post-update submission pins the new epoch and thereby splits the window,
        // releasing the pinned batch to execute against its old snapshot.
        let after = service.submit(q);
        let pinned = pinned.wait();
        assert_eq!(
            pinned.paths.len() as u64,
            expected_before,
            "pinned snapshot"
        );
        assert_eq!(pinned.batch_size, 1);

        let mut delta = hcsp_graph::DeltaGraph::new(graph);
        assert!(delta.delete_edge(VertexId(0), VertexId(1)));
        let expected_after = offline_counts(&delta.compact(), &[q])[0];
        assert_eq!(after.wait().paths.len() as u64, expected_after);

        let stats = service.shutdown();
        assert!(
            stats.batches_pinned_behind >= 1,
            "the pinned batch ran behind the tip"
        );
    }

    #[test]
    fn update_bursts_stay_correct_end_to_end() {
        // A diamond built up by a burst of updates submitted without intermediate waits:
        // every publish is its own epoch; admission order semantics must hold.
        let graph = DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap();
        let q = PathQuery::new(0u32, 3u32, 3);
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(64, Duration::from_secs(30)))
            .start(graph)
            .unwrap();
        let before = service.submit(q);
        let u1 = service.update(vec![GraphUpdate::insert(0u32, 2u32)]);
        let u2 = service.update(vec![GraphUpdate::insert(2u32, 3u32)]);
        let u3 = service.update(vec![GraphUpdate::delete(0u32, 1u32)]);
        let after = service.submit(q);
        let stats = service.shutdown();

        assert_eq!(before.wait().paths.len(), 1, "pre-update snapshot");
        assert_eq!(
            after.wait().paths.len(),
            1,
            "post-update snapshot: 0->2->3 only"
        );
        assert_eq!(u1.wait().applied, 1);
        assert_eq!(u2.wait().applied, 1);
        assert_eq!(u3.wait().applied, 1);
        assert_eq!(stats.update_calls, 3);
        assert_eq!(stats.update_batches, 3, "synchronous publish: one per call");
        assert_eq!(stats.updates_applied, 3);
        assert_eq!(stats.epochs_published, 3);
    }

    #[test]
    fn abandoned_slots_surface_errors_instead_of_hanging() {
        let slot = Arc::new(Slot::default());
        let handle = SpecHandle {
            slot: Arc::clone(&slot),
        };
        assert!(!handle.is_ready());
        slot.abandon();
        assert!(handle.is_ready());
        assert_eq!(handle.wait_result().unwrap_err(), Abandoned);

        let slot = Arc::new(Slot::default());
        let handle = SpecHandle {
            slot: Arc::clone(&slot),
        };
        slot.abandon();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait()));
        assert!(outcome.is_err(), "wait() must surface the abandonment");

        let slot = Arc::new(Slot::default());
        let handle = UpdateHandle {
            slot: Arc::clone(&slot),
        };
        assert!(!handle.is_ready());
        slot.abandon();
        assert!(handle.is_ready());
        assert_eq!(handle.wait_result().unwrap_err(), Abandoned);
        assert!(!Abandoned.to_string().is_empty());
    }

    #[test]
    fn try_wait_returns_the_handle_back_while_pending() {
        let slot = Arc::new(Slot::default());
        let handle = SpecHandle {
            slot: Arc::clone(&slot),
        };
        let handle = match handle.try_wait() {
            Err(handle) => handle,
            Ok(_) => panic!("slot is still pending"),
        };
        slot.fulfill(SpecResult {
            response: QueryResponse::Count(7),
            queue_wait: Duration::ZERO,
            batch_size: 1,
        });
        match handle.try_wait() {
            Ok(Ok(result)) => assert_eq!(result.response, QueryResponse::Count(7)),
            other => panic!("expected the fulfilled result, got {other:?}"),
        }

        let slot = Arc::new(Slot::default());
        let handle = UpdateHandle {
            slot: Arc::clone(&slot),
        };
        let handle = match handle.try_wait() {
            Err(handle) => handle,
            Ok(_) => panic!("slot is still pending"),
        };
        slot.fulfill(UpdateSummary::default());
        match handle.try_wait() {
            Ok(Ok(summary)) => assert_eq!(summary, UpdateSummary::default()),
            other => panic!("expected the fulfilled summary, got {other:?}"),
        }
    }

    #[test]
    fn wait_result_works_on_a_live_service() {
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .start(complete(4))
            .unwrap();
        let result = service
            .submit(PathQuery::new(0u32, 3u32, 2))
            .wait_result()
            .expect("service is healthy");
        assert!(!result.paths.is_empty());
        let summary = service
            .update(vec![GraphUpdate::delete(0u32, 3u32)])
            .wait_result()
            .expect("service is healthy");
        assert_eq!(summary.applied, 1);
        service.shutdown();
    }

    #[test]
    fn double_fulfill_is_an_invariant_violation_in_debug() {
        if !cfg!(debug_assertions) {
            return; // release builds log instead of panicking
        }
        let slot = Slot::default();
        let result = || SpecResult {
            response: QueryResponse::Count(0),
            queue_wait: Duration::ZERO,
            batch_size: 1,
        };
        slot.fulfill(result());
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.fulfill(result())));
        assert!(outcome.is_err(), "double fulfill must debug-panic");

        let slot = Slot::default();
        slot.fulfill(UpdateSummary::default());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.fulfill(UpdateSummary::default())
        }));
        assert!(outcome.is_err(), "double fulfill must debug-panic");
    }

    #[test]
    #[should_panic(expected = "endpoints out of range")]
    fn out_of_range_query_panics_at_submit() {
        let service = PathService::start(complete(4));
        let _ = service.submit(PathQuery::new(99u32, 1u32, 3));
    }

    #[test]
    fn invalid_submission_no_longer_poisons_the_service() {
        let service = PathService::start(complete(4));
        // The panicking wrapper validates via the fallible path and panics only after
        // the admission lock is released, so one caller's bad query cannot take the
        // whole service down with a poisoned lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.submit(PathQuery::new(99u32, 1u32, 3))
        }));
        assert!(panicked.is_err());
        // Both updates and queries keep flowing afterwards.
        let summary = service.update(vec![GraphUpdate::insert(0u32, 1u32)]).wait();
        assert_eq!(summary.ignored, 1, "the edge already exists");
        let result = service.submit(PathQuery::new(0u32, 3u32, 2)).wait();
        assert!(!result.paths.is_empty());
        service.shutdown();
    }

    #[test]
    fn try_submit_reports_invalid_endpoints_instead_of_panicking() {
        let service = PathService::start(complete(4));
        let err = service
            .try_submit(PathQuery::new(99u32, 1u32, 3))
            .unwrap_err();
        assert_eq!(
            err,
            AdmissionError::InvalidEndpoint {
                query: PathQuery::new(99u32, 1u32, 3),
                num_vertices: 4,
            }
        );
        assert!(err.to_string().contains("endpoints out of range"));
        // A valid query right after still serves.
        let handle = service.try_submit(PathQuery::new(0u32, 3u32, 2)).unwrap();
        assert!(!handle.wait().paths.is_empty());
        service.shutdown();
    }

    #[test]
    fn try_submit_spec_validates_against_the_grown_vertex_space() {
        let service = PathService::start(DiGraph::from_edge_list(2, &[(0, 1)]).unwrap());
        assert!(matches!(
            service.try_submit_spec(QuerySpec::exists(PathQuery::new(0u32, 4u32, 3))),
            Err(AdmissionError::InvalidEndpoint {
                num_vertices: 2,
                ..
            })
        ));
        // An insert growing the vertex space makes the same spec admissible.
        service
            .try_update(vec![GraphUpdate::insert(1u32, 4u32)])
            .unwrap()
            .wait();
        let handle = service
            .try_submit_spec(QuerySpec::exists(PathQuery::new(0u32, 4u32, 3)))
            .unwrap();
        assert_eq!(handle.wait().response, QueryResponse::Exists(true));
        service.shutdown();
    }

    #[test]
    fn try_update_succeeds_and_reports_the_summary() {
        let service = PathService::start(complete(4));
        let handle = service
            .try_update(vec![GraphUpdate::delete(0u32, 3u32)])
            .unwrap();
        assert_eq!(handle.wait().applied, 1);
        // An empty batch is trivially acknowledged without publishing anything.
        let handle = service.try_update(Vec::new()).unwrap();
        assert_eq!(handle.wait().applied, 0);
        assert_eq!(service.epoch_id(), 1);
        service.shutdown();
    }

    #[test]
    fn group_commit_counts_fsyncs_and_acknowledges_durably() {
        use hcsp_storage::FailpointFs;
        let fs = FailpointFs::new();
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(durable(fs.as_vfs()))
            .start(complete(4))
            .unwrap();
        // Sequential updates cannot share a window: one group fsync each.
        service.update(vec![GraphUpdate::delete(0u32, 3u32)]).wait();
        service.update(vec![GraphUpdate::insert(0u32, 3u32)]).wait();
        let stats = service.stats();
        assert_eq!(stats.update_batches, 2);
        assert_eq!(stats.group_commit_batches, 2);
        service.shutdown();
    }

    #[test]
    fn concurrent_updates_share_group_fsyncs() {
        use hcsp_storage::FailpointFs;
        let fs = FailpointFs::new();
        let service = Arc::new(
            PathService::builder()
                .policy(BatchPolicy::immediate())
                .durability(durable(fs.as_vfs()))
                .start(complete(4))
                .unwrap(),
        );
        let threads = 8;
        let per_thread = 16;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let (u, v) = ((t % 4) as u32, ((t + i + 1) % 4) as u32);
                        let update = if i % 2 == 0 {
                            GraphUpdate::delete(u, v)
                        } else {
                            GraphUpdate::insert(u, v)
                        };
                        service.try_update(vec![update]).unwrap().wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.update_batches, threads * per_thread);
        // Every acknowledged batch was covered by some group fsync, and sharing can
        // never *exceed* one fsync per batch.
        assert!(stats.group_commit_batches >= 1);
        assert!(stats.group_commit_batches <= (threads * per_thread) as u64);
    }

    #[test]
    fn non_always_policies_do_not_group_commit() {
        use hcsp_storage::FailpointFs;
        let fs = FailpointFs::new();
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(durable(fs.as_vfs()).fsync(FsyncPolicy::EveryN(4)))
            .start(complete(4))
            .unwrap();
        service.update(vec![GraphUpdate::delete(0u32, 3u32)]).wait();
        assert_eq!(service.stats().group_commit_batches, 0);
        service.shutdown();
    }

    #[test]
    fn dropped_submission_abandons_its_handle_instead_of_hanging() {
        let slot = Arc::new(Slot::default());
        let handle = QueryHandle {
            inner: SpecHandle {
                slot: Arc::clone(&slot),
            },
        };
        let submission = Submission {
            spec: QuerySpec::collect(PathQuery::new(0u32, 1u32, 2)),
            submitted_at: Instant::now(),
            epoch: EpochPublisher::new(DiGraph::from_edge_list(2, &[(0, 1)]).unwrap()).tip(),
            slot,
        };
        assert!(!handle.is_ready());
        // A worker panic unwinds the batch, dropping its submissions unfulfilled.
        drop(submission);
        assert!(handle.is_ready());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait()));
        assert!(outcome.is_err(), "wait() must surface the abandonment");
    }

    #[test]
    fn index_root_cap_is_passed_through_and_stays_correct() {
        let graph = grid(4, 4);
        let queries = grid_queries();
        let expected = offline_counts(&graph, &queries);
        let service = PathService::builder()
            .index_root_cap(2)
            .policy(BatchPolicy::immediate())
            .start(graph)
            .unwrap();
        let handles = service.submit_all(queries.clone());
        let counts: Vec<u64> = handles
            .into_iter()
            .map(|h| h.wait().paths.len() as u64)
            .collect();
        assert_eq!(counts, expected);
        service.shutdown();
    }

    fn durable(vfs: Arc<dyn hcsp_storage::Vfs>) -> DurabilityOptions {
        DurabilityOptions::vfs(vfs).compact_tail_bytes(u64::MAX)
    }

    fn reopen(vfs: Arc<dyn hcsp_storage::Vfs>) -> PathService {
        PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(DurabilityOptions::default().compact_tail_bytes(u64::MAX))
            .open_vfs(vfs)
            .unwrap()
    }

    #[test]
    fn durable_service_round_trips_through_reopen() {
        use hcsp_storage::FailpointFs;
        let fs = FailpointFs::new();
        let graph = grid(4, 4);
        let q = PathQuery::new(0u32, 15u32, 6);

        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(durable(fs.as_vfs()))
            .start(graph)
            .unwrap();
        assert!(service.is_durable());
        assert!(
            service.recovery().is_none(),
            "a fresh store recovered nothing"
        );
        service.update(vec![GraphUpdate::delete(0u32, 1u32)]).wait();
        service.update(vec![GraphUpdate::insert(0u32, 5u32)]).wait();
        let expected = service.submit(q).wait().paths;
        service.shutdown();

        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .open_vfs(fs.as_vfs())
            .unwrap();
        let report = service.recovery().expect("opened from an existing store");
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(report.replayed_updates, 2);
        assert!(report.torn_tail.is_none());
        assert_eq!(service.submit(q).wait().paths, expected);
        service.shutdown();

        // A second durable start on the same directory must refuse, not wipe it.
        assert!(matches!(
            PathService::builder()
                .durability(DurabilityOptions::vfs(fs.as_vfs()))
                .start(grid(4, 4)),
            Err(StorageError::AlreadyExists)
        ));
    }

    #[test]
    fn explicit_checkpoint_truncates_the_replay_tail() {
        use hcsp_storage::FailpointFs;
        let fs = FailpointFs::new();
        let q = PathQuery::new(0u32, 3u32, 3);
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(durable(fs.as_vfs()))
            .start(DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap())
            .unwrap();
        service.update(vec![GraphUpdate::insert(0u32, 2u32)]).wait();
        service.update(vec![GraphUpdate::insert(2u32, 3u32)]).wait();
        assert!(service.checkpoint().unwrap());
        assert_eq!(service.checkpoints(), 1);
        assert!(!service.checkpoint().unwrap(), "nothing new to checkpoint");
        service.update(vec![GraphUpdate::delete(0u32, 1u32)]).wait();
        let expected = service.submit(q).wait().paths;
        service.shutdown();

        let service = reopen(fs.as_vfs());
        let report = service.recovery().unwrap();
        assert_eq!(
            report.snapshot_batches, 2,
            "the checkpoint absorbed two batches"
        );
        assert_eq!(
            report.replayed_batches, 1,
            "only the post-checkpoint tail replays"
        );
        assert_eq!(service.submit(q).wait().paths, expected);
        service.shutdown();
    }

    #[test]
    fn background_compactor_checkpoints_once_the_tail_grows() {
        use hcsp_storage::FailpointFs;
        let fs = FailpointFs::new();
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(
                DurabilityOptions::vfs(fs.as_vfs())
                    .compact_tail_bytes(1)
                    .compact_check_interval(Duration::from_millis(2)),
            )
            .start(complete(4))
            .unwrap();
        service.update(vec![GraphUpdate::delete(0u32, 3u32)]).wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.checkpoints() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(service.checkpoints() >= 1, "the compactor never woke up");
        // Queries and further updates keep working around the background checkpoints.
        service.update(vec![GraphUpdate::insert(0u32, 3u32)]).wait();
        let expected = service.submit(PathQuery::new(0u32, 3u32, 2)).wait().paths;
        service.shutdown();

        let service = reopen(fs.as_vfs());
        assert_eq!(
            service.submit(PathQuery::new(0u32, 3u32, 2)).wait().paths,
            expected
        );
        service.shutdown();
    }

    #[test]
    fn update_logged_but_unacked_recovers_as_applied() {
        use hcsp_storage::{CrashModel, FailpointFs, KillPoint};
        // Regression: an update whose WAL frame landed but whose in-process handle was
        // abandoned (the process died between the log write and the ack) must resolve
        // as *applied* after restart — the log, not the slot, is the source of truth.
        let fs = FailpointFs::new();
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(durable(fs.as_vfs()))
            .start(DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap())
            .unwrap();
        service.update(vec![GraphUpdate::insert(0u32, 2u32)]).wait();

        // Kill the *fsync* of the next append: the frame write (ops + 1) lands, the
        // sync (ops + 2) dies, so the publish fails after the bytes reached the file.
        fs.set_kill(KillPoint::Op(fs.ops() + 2));
        let handle = service.update(vec![GraphUpdate::insert(2u32, 3u32)]);
        assert_eq!(
            handle.wait_result(),
            Err(Abandoned),
            "the caller was never acked"
        );
        drop(service); // the final sync of shutdown fails on the dead fs; ignored

        // The crash happens to preserve the page cache: the logged frame survives.
        let image = fs.crash(CrashModel::KeepAll);
        let service = reopen(image.as_vfs());
        assert_eq!(
            service.recovery().unwrap().replayed_batches,
            2,
            "the logged-but-unacked batch replays"
        );
        let result = service.submit(PathQuery::new(0u32, 3u32, 3)).wait();
        assert_eq!(result.paths.len(), 2, "0→1→3 and the recovered 0→2→3");
        service.shutdown();
    }

    #[test]
    fn a_sink_write_failure_latches_updates_until_restart() {
        use hcsp_storage::{FailpointFs, KillPoint};
        // Regression: a transient short write tears the active WAL but the process
        // lives on. The store must poison itself so no later update is acknowledged
        // after the garbage (recovery would silently drop it as torn tail); the
        // service keeps serving reads and refuses writes until reopened.
        let fs = FailpointFs::new();
        let service = PathService::builder()
            .policy(BatchPolicy::immediate())
            .durability(durable(fs.as_vfs()))
            .start(DiGraph::from_edge_list(4, &[(0, 1), (1, 3)]).unwrap())
            .unwrap();
        service.update(vec![GraphUpdate::insert(0u32, 2u32)]).wait();

        fs.set_kill(KillPoint::TransientWriteByte(fs.bytes_written() + 5));
        let torn = service.update(vec![GraphUpdate::insert(2u32, 3u32)]);
        assert_eq!(
            torn.wait_result(),
            Err(Abandoned),
            "the torn write is unacked"
        );
        // The filesystem recovered, but the store is latched: no further update may
        // be acknowledged on top of the torn tail.
        let refused = service.update(vec![GraphUpdate::delete(0u32, 1u32)]);
        assert_eq!(refused.wait_result(), Err(Abandoned));
        // Reads keep serving the last acknowledged state.
        let result = service.submit(PathQuery::new(0u32, 3u32, 3)).wait();
        assert_eq!(
            result.paths.len(),
            1,
            "only 0→1→3; neither failed update landed"
        );
        service.shutdown();

        // A restart truncates the torn tail and the service accepts updates again.
        let service = reopen(fs.as_vfs());
        let report = service.recovery().unwrap();
        assert_eq!(report.replayed_batches, 1, "the acked update survives");
        assert!(report.torn_tail.is_some());
        service.update(vec![GraphUpdate::insert(2u32, 3u32)]).wait();
        let result = service.submit(PathQuery::new(0u32, 3u32, 3)).wait();
        assert_eq!(result.paths.len(), 2, "0→1→3 and the new 0→2→3");
        service.shutdown();
    }

    #[test]
    fn queue_wait_is_reported() {
        let graph = complete(4);
        let service = PathService::builder()
            .policy(BatchPolicy::by_size(2, Duration::from_millis(40)))
            .start(graph)
            .unwrap();
        let a = service.submit(PathQuery::new(0u32, 3u32, 2));
        let ra = a.wait();
        // The lone query waited out (most of) the 40 ms window.
        assert!(ra.queue_wait >= Duration::from_millis(20));
        let stats = service.shutdown();
        assert!(stats.max_queue_wait >= Duration::from_millis(20));
        assert!(stats.total_exec_time > Duration::ZERO);
    }
}
