//! Crash-matrix recovery tests: kill the filesystem at every interesting point of a
//! durable service's life and prove recovery serves a consistent acknowledged prefix.
//!
//! Each matrix cell runs the same deterministic scenario — create a durable
//! [`PathService`] on a [`FailpointFs`], feed it a seeded update-batch sequence with
//! explicit checkpoints at fixed positions — with the filesystem armed to die at one
//! [`KillPoint`]. The post-crash image (under both [`CrashModel`]s) is reopened and the
//! recovered service is interrogated with a seeded reference query set; answers must be
//! **identical** (`PathSet` equality, i.e. the same paths in the same order) to a
//! never-crashed twin serving the prefix of batches recovery reported.
//!
//! Invariants every cell asserts:
//!
//! 1. *Recovery succeeds* whenever the store finished `create`; only a kill inside
//!    `create` itself may leave an unopenable directory (and then nothing was acked).
//! 2. *Prefix property*: the recovered batch count `r` never exceeds the acked count
//!    plus the single possibly-in-flight batch, and the recovered graph is exactly the
//!    fold of the first `r` batches — via the query oracle, not a structural shortcut.
//! 3. *Durability floor*: `r` is at least what the fsync policy promised — every acked
//!    batch under `Always` (or whenever the page cache survived), every checkpointed
//!    batch otherwise.
//!
//! The sweep honours two environment variables so CI can rotate coverage:
//! `HCSP_RECOVERY_SEED` reseeds the whole scenario, `HCSP_RECOVERY_DENSE=1` widens the
//! byte-granular sweep. On any failure the crash image is dumped to
//! `target/recovery-failure/` (uploaded as a CI artifact) next to a `repro.txt` naming
//! the exact cell.

use hcsp::core::{Algorithm, BatchEngine};
use hcsp::prelude::{
    BatchPolicy, DiGraph, DurabilityOptions, FsyncPolicy, GraphUpdate, PathQuery, PathService,
    PathServiceBuilder, PathSet, QuerySpec,
};
use hcsp::storage::{CrashModel, FailpointFs, KillPoint};
use hcsp::workload::{
    recovery_workload, state_after, Dataset, DatasetScale, RecoveryWorkload, RecoveryWorkloadSpec,
};
use std::time::Duration;

/// Explicit checkpoints after these acked-batch counts: the sweep thereby crosses every
/// phase of a checkpoint (WAL rotation, snapshot write, manifest swap, GC) twice.
const CHECKPOINT_AFTER: [usize; 2] = [2, 4];

/// The full answer of `service` to `query`, in the service's path order.
fn paths(service: &PathService, query: PathQuery) -> PathSet {
    let handle = service.try_submit_spec(QuerySpec::collect(query)).unwrap();
    handle.wait_result().unwrap().response.into_paths().unwrap()
}

/// Applies one update batch; panics unless it is acknowledged.
fn acknowledge(service: &PathService, batch: &[GraphUpdate]) {
    service
        .try_update(batch.to_vec())
        .unwrap()
        .wait_result()
        .unwrap();
}

fn seed() -> u64 {
    std::env::var("HCSP_RECOVERY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn dense() -> bool {
    std::env::var("HCSP_RECOVERY_DENSE").is_ok_and(|v| v != "0" && !v.is_empty())
}

struct Scenario {
    graph: DiGraph,
    workload: RecoveryWorkload,
}

fn scenario() -> Scenario {
    let graph = Dataset::EP.build(DatasetScale::Tiny);
    let workload = recovery_workload(&graph, RecoveryWorkloadSpec::seeded(seed()));
    assert!(
        !workload.batches.is_empty() && !workload.queries.is_empty(),
        "the scenario graph must admit a non-degenerate workload"
    );
    Scenario { graph, workload }
}

/// One deterministic service configuration: single worker, per-query batches, no
/// background compactor — so the stream of filesystem operations is a pure function of
/// the driver below, and `KillPoint::Op(n)` means the same operation in every run.
fn durable_builder(fsync: FsyncPolicy, algorithm: Algorithm) -> PathServiceBuilder {
    PathService::builder()
        .engine(BatchEngine::with_algorithm(algorithm))
        .workers(1)
        .policy(BatchPolicy::immediate())
        .durability(durable_options(fsync))
}

/// The matrix's durability options minus a backend (`open_vfs` supplies the image).
fn durable_options(fsync: FsyncPolicy) -> DurabilityOptions {
    DurabilityOptions::default()
        .fsync(fsync)
        .compact_tail_bytes(u64::MAX)
        .compact_check_interval(Duration::from_millis(5))
}

/// The same options bound to a live [`FailpointFs`], for creating a fresh store on it.
fn durable_vfs_options(fsync: FsyncPolicy, fs: &FailpointFs) -> DurabilityOptions {
    DurabilityOptions::vfs(fs.as_vfs())
        .fsync(fsync)
        .compact_tail_bytes(u64::MAX)
        .compact_check_interval(Duration::from_millis(5))
}

/// What the driver observed before the filesystem (possibly) died.
struct DriveLog {
    /// Whether the durable `start` (the store `create`) succeeded.
    create_ok: bool,
    /// Batches whose `UpdateHandle` resolved `Ok` — the acknowledged prefix.
    acked: usize,
    /// Acked batches covered by the last checkpoint that committed before the kill.
    checkpointed: usize,
}

/// Feeds the scenario into a durable service on `fs`, stopping at the first failure
/// (the armed kill). Every batch is awaited before the next is submitted, so the
/// acked prefix is exact and the op stream is deterministic.
fn drive(fs: &FailpointFs, fsync: FsyncPolicy, algorithm: Algorithm, sc: &Scenario) -> DriveLog {
    let service = match durable_builder(fsync, algorithm)
        .durability(durable_vfs_options(fsync, fs))
        .start(sc.graph.clone())
    {
        Ok(service) => service,
        Err(_) => {
            return DriveLog {
                create_ok: false,
                acked: 0,
                checkpointed: 0,
            }
        }
    };
    let mut log = DriveLog {
        create_ok: true,
        acked: 0,
        checkpointed: 0,
    };
    for (i, batch) in sc.workload.batches.iter().enumerate() {
        if service.try_update(batch.clone()).is_err() {
            break;
        }
        log.acked = i + 1;
        if CHECKPOINT_AFTER.contains(&(i + 1)) {
            match service.checkpoint() {
                Ok(true) => log.checkpointed = i + 1,
                Ok(false) => {}
                Err(_) => break,
            }
        }
    }
    service.shutdown();
    log
}

/// The smallest recovered-batch count the matrix cell's policy promises.
fn durability_floor(
    model: CrashModel,
    fsync: FsyncPolicy,
    log: &DriveLog,
    fs_survived: bool,
) -> usize {
    if !log.create_ok {
        return 0;
    }
    // If the kill never fired, shutdown's final sync made everything acked durable; if
    // the page cache survived (`KeepAll`), the mere append (which an ack implies) did.
    if fs_survived || model == CrashModel::KeepAll {
        return log.acked;
    }
    match fsync {
        FsyncPolicy::Always => log.acked,
        // Sync points land on multiples of N (checkpoints sit on multiples too, and
        // both rotation and the policy counter sync-and-reset there).
        FsyncPolicy::EveryN(n) => {
            let n = n.max(1) as usize;
            log.checkpointed.max(log.acked - log.acked % n)
        }
        FsyncPolicy::Never => log.checkpointed,
    }
}

/// Dumps the crash image for post-mortem and fails the test with the cell's repro line.
fn fail(image: &FailpointFs, case: &str, msg: &str) -> ! {
    let dir = std::path::Path::new("target").join("recovery-failure");
    let dumped = image.dump_to(&dir);
    let _ = std::fs::write(dir.join("repro.txt"), format!("{case}\n{msg}\n"));
    panic!(
        "[recovery-matrix {case}] {msg}; crash image dump to {}: {dumped:?}",
        dir.display()
    );
}

/// Reopens the crash image and checks the three invariants of the module doc, using a
/// never-crashed twin service as the answer oracle.
fn verify_recovery(
    fs: &FailpointFs,
    model: CrashModel,
    fsync: FsyncPolicy,
    algorithm: Algorithm,
    sc: &Scenario,
    log: &DriveLog,
    case: &str,
) {
    let fs_survived = !fs.is_dead();
    let image = fs.crash(model);
    let recovered = match durable_builder(fsync, algorithm).open_vfs(image.as_vfs()) {
        Ok(service) => service,
        Err(e) => {
            if log.create_ok {
                fail(
                    &image,
                    case,
                    &format!("open failed after a completed create: {e}"),
                );
            }
            return; // killed inside create: no store, and nothing was ever acked
        }
    };
    let report = recovered
        .recovery()
        .expect("opened service carries a report");
    let r = report.snapshot_batches as usize + report.replayed_batches;

    let ceiling = (log.acked + 1).min(sc.workload.batches.len());
    if r > ceiling {
        fail(
            &image,
            case,
            &format!(
                "recovered {r} batches but only {} were acked (+1 in flight)",
                log.acked
            ),
        );
    }
    let floor = durability_floor(model, fsync, log, fs_survived);
    if r < floor {
        fail(
            &image,
            case,
            &format!("recovered only {r} batches; the policy guarantees {floor}"),
        );
    }

    // The oracle: a twin serving the fold of exactly the first `r` batches must answer
    // the whole reference query set identically, paths and order included.
    let expected = state_after(&sc.graph, &sc.workload.batches, r);
    let twin = PathService::builder()
        .engine(BatchEngine::with_algorithm(algorithm))
        .workers(1)
        .policy(BatchPolicy::immediate())
        .start(expected)
        .unwrap();
    for query in &sc.workload.queries {
        let got = paths(&recovered, *query);
        let want = paths(&twin, *query);
        if got != want {
            fail(
                &image,
                case,
                &format!(
                    "answers diverge for {query} on the {r}-batch prefix: \
                     recovered {} paths, twin {}",
                    got.len(),
                    want.len()
                ),
            );
        }
    }
    twin.shutdown();
    recovered.shutdown();
}

/// Runs one full matrix cell: arm the kill, drive, crash under `model`, verify.
fn run_cell(kill: KillPoint, model: CrashModel, fsync: FsyncPolicy, sc: &Scenario) {
    let algorithm = Algorithm::BatchEnumPlus;
    let fs = FailpointFs::new();
    fs.set_kill(kill);
    let log = drive(&fs, fsync, algorithm, sc);
    let case = format!(
        "seed={:#x} fsync={fsync:?} kill={kill:?} model={model:?}",
        seed()
    );
    verify_recovery(&fs, model, fsync, algorithm, sc, &log, &case);
}

/// Profiles the total mutating-op count of the scenario under `fsync` (no kill).
fn profile_ops(fsync: FsyncPolicy, sc: &Scenario) -> u64 {
    let fs = FailpointFs::new();
    let log = drive(&fs, fsync, Algorithm::BatchEnumPlus, sc);
    assert!(log.create_ok, "profile run must not fail");
    assert_eq!(
        log.acked,
        sc.workload.batches.len(),
        "profile run acks everything"
    );
    fs.ops()
}

/// Profiles the total written-byte count of the scenario under `fsync` (no kill).
fn profile_bytes(fsync: FsyncPolicy, sc: &Scenario) -> u64 {
    let fs = FailpointFs::new();
    drive(&fs, fsync, Algorithm::BatchEnumPlus, sc);
    fs.bytes_written()
}

/// The op-granular matrix: every mutating filesystem operation of the scenario's life —
/// store creation, each WAL append and fsync, both checkpoints (rotation, snapshot,
/// manifest swap, GC) and the shutdown sync — is killed once, under every crash model
/// and fsync policy.
#[test]
fn op_kill_matrix_recovers_a_consistent_acked_prefix() {
    let sc = scenario();
    for fsync in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(2),
        FsyncPolicy::Never,
    ] {
        let total_ops = profile_ops(fsync, &sc);
        assert!(
            total_ops > 20,
            "the scenario must exercise a non-trivial op stream"
        );
        for op in 1..=total_ops {
            for model in [CrashModel::DropUnsynced, CrashModel::KeepAll] {
                run_cell(KillPoint::Op(op), model, fsync, &sc);
            }
        }
    }
}

/// The byte-granular sweep: tear writes mid-frame and mid-snapshot at a stride of
/// byte offsets across the whole written stream (every offset is near-reachable in
/// dense mode), under both crash models. Torn WAL frames must truncate to the longest
/// valid prefix, torn snapshot tmp files must be garbage, never state.
#[test]
fn byte_kill_sweep_recovers_a_consistent_prefix() {
    let sc = scenario();
    let fsync = FsyncPolicy::Always;
    let total_bytes = profile_bytes(fsync, &sc);
    assert!(
        total_bytes > 256,
        "the scenario must write a non-trivial byte stream"
    );
    let stride = if dense() {
        (total_bytes / 512).max(1)
    } else {
        (total_bytes / 48).max(1)
    };
    let mut cut = 0;
    while cut <= total_bytes {
        for model in [CrashModel::DropUnsynced, CrashModel::KeepAll] {
            run_cell(KillPoint::WriteByte(cut), model, fsync, &sc);
        }
        // Also probe the off-by-one neighbour of each stride point: frame and header
        // boundaries are the bug-rich offsets.
        for model in [CrashModel::DropUnsynced, CrashModel::KeepAll] {
            run_cell(KillPoint::WriteByte(cut + 1), model, fsync, &sc);
        }
        cut += stride;
    }
}

/// Every one of the five evaluated algorithms answers identically after recovery — the
/// recovered service is compared against a *literal* never-crashed durable twin (same
/// storage stack, same batches, no kill), not just a state fold.
#[test]
fn all_five_algorithms_agree_after_recovery() {
    let sc = scenario();
    let fsync = FsyncPolicy::Always;
    // Kill two ops past the mid-scenario profile point: inside the post-checkpoint
    // append region, with both a snapshot and a live tail to recover from.
    let kill_op = profile_ops(fsync, &sc) * 2 / 3;
    for algorithm in Algorithm::ALL {
        let fs = FailpointFs::new();
        fs.set_kill(KillPoint::Op(kill_op));
        let log = drive(&fs, fsync, algorithm, &sc);
        let case = format!(
            "seed={:#x} algorithm={algorithm} fsync={fsync:?} kill=Op({kill_op}) model=KeepAll",
            seed()
        );
        let image = fs.crash(CrashModel::KeepAll);
        let recovered = durable_builder(fsync, algorithm)
            .open_vfs(image.as_vfs())
            .unwrap_or_else(|e| fail(&image, &case, &format!("open failed: {e}")));
        let report = recovered
            .recovery()
            .expect("recovered service carries a report");
        let r = report.snapshot_batches as usize + report.replayed_batches;
        assert!(r >= log.acked, "{case}: acked batches lost");

        // The literal twin: a second durable service that lives the same life minus
        // the crash, checkpointing at the same positions, fed exactly `r` batches.
        let twin_fs = FailpointFs::new();
        let twin = durable_builder(fsync, algorithm)
            .durability(durable_vfs_options(fsync, &twin_fs))
            .start(sc.graph.clone())
            .expect("twin create");
        for (i, batch) in sc.workload.batches[..r].iter().enumerate() {
            acknowledge(&twin, batch);
            if CHECKPOINT_AFTER.contains(&(i + 1)) {
                twin.checkpoint().expect("twin checkpoint");
            }
        }
        for query in &sc.workload.queries {
            let got = paths(&recovered, *query);
            let want = paths(&twin, *query);
            if got != want {
                fail(&image, &case, &format!("answers diverge for {query}"));
            }
        }
        twin.shutdown();
        recovered.shutdown();
    }
}

/// A crash while the *background* compactor is enabled (tiny threshold, so it runs
/// eagerly) still recovers a consistent prefix: whatever mix of snapshots and tails the
/// compactor left behind, the page-cache-survived image must replay every acked batch.
#[test]
fn crash_with_background_compaction_active_recovers_every_acked_batch() {
    let sc = scenario();
    let fs = FailpointFs::new();
    let service = PathService::builder()
        .workers(1)
        .policy(BatchPolicy::immediate())
        .durability(
            DurabilityOptions::vfs(fs.as_vfs())
                .fsync(FsyncPolicy::Always)
                .compact_tail_bytes(1)
                .compact_check_interval(Duration::from_millis(1)),
        )
        .start(sc.graph.clone())
        .expect("create");
    for batch in &sc.workload.batches {
        acknowledge(&service, batch);
    }
    // Snapshot the image mid-flight — the compactor may be between any two of its
    // operations right now, which is the point: `crash` is an any-moment power cut.
    let image = fs.crash(CrashModel::KeepAll);
    let case = format!("seed={:#x} background-compaction crash", seed());
    drop(service); // the original service keeps running against `fs`; now stop it

    let recovered = durable_builder(FsyncPolicy::Always, Algorithm::BatchEnumPlus)
        .open_vfs(image.as_vfs())
        .unwrap_or_else(|e| fail(&image, &case, &format!("open failed: {e}")));
    let report = recovered
        .recovery()
        .expect("recovered service carries a report");
    let r = report.snapshot_batches as usize + report.replayed_batches;
    if r != sc.workload.batches.len() {
        fail(
            &image,
            &case,
            &format!(
                "all {} batches were acked+fsynced, recovered {r}",
                sc.workload.batches.len()
            ),
        );
    }
    let expected = state_after(&sc.graph, &sc.workload.batches, r);
    let twin = PathService::builder()
        .workers(1)
        .policy(BatchPolicy::immediate())
        .start(expected)
        .unwrap();
    for query in &sc.workload.queries {
        let got = paths(&recovered, *query);
        let want = paths(&twin, *query);
        if got != want {
            fail(&image, &case, &format!("answers diverge for {query}"));
        }
    }
    twin.shutdown();
    recovered.shutdown();
}

/// The sweep machinery itself is sound: a no-kill cell is a real end-to-end round trip
/// (everything acked, everything recovered, zero drops) — guarding against the matrix
/// silently passing because `drive` never got off the ground.
#[test]
fn the_unkilled_cell_recovers_everything_exactly() {
    let sc = scenario();
    for fsync in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(2),
        FsyncPolicy::Never,
    ] {
        let fs = FailpointFs::new();
        let log = drive(&fs, fsync, Algorithm::BatchEnumPlus, &sc);
        assert!(log.create_ok);
        assert_eq!(log.acked, sc.workload.batches.len());
        assert_eq!(log.checkpointed, *CHECKPOINT_AFTER.last().unwrap());
        for model in [CrashModel::DropUnsynced, CrashModel::KeepAll] {
            let image = fs.crash(model);
            let recovered = durable_builder(fsync, Algorithm::BatchEnumPlus)
                .open_vfs(image.as_vfs())
                .expect("clean shutdown image opens");
            let report = recovered.recovery().unwrap();
            assert_eq!(
                report.snapshot_batches as usize + report.replayed_batches,
                sc.workload.batches.len(),
                "{fsync:?}/{model:?}: clean shutdown loses nothing"
            );
            assert_eq!(
                report.dropped_bytes, 0,
                "{fsync:?}/{model:?}: nothing to drop"
            );
            assert!(report.torn_tail.is_none());
            recovered.shutdown();
        }
    }
}
