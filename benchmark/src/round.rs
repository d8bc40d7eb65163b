//! One round: a fresh cluster, an untimed warm-up, the closed loop of two
//! client threads for a fixed time, then the correctness checks.

use crate::audit::{audit, Expected, SiteSnapshot};
use crate::machine::{calibration_rate, REFERENCE_RATE};
use crate::procfs::ProcSample;
use crate::stats::median;
use crate::workload::{
    execute, item_ids, BodyMarks, Op, Workload, CLIENTS, INITIAL_VALUE, ITEMS, MAX_DELTA,
};
use rainbow_common::{ItemId, StatsSnapshot};
use rainbow_core::{Cluster, EngineKind};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations generated per client and second of a round, several times what
/// a client gets through today; a client that does exhaust them starts over.
const OPS_PER_CLIENT_SECOND: f64 = 16_384.0;
/// How long the cluster is left alone after the clients stop, so that
/// acknowledgements still in flight are counted before the counters are read.
const QUIESCE: Duration = Duration::from_millis(10);
/// A calibrated round's measured phase is cut into this many slices, with
/// the machine's speed sampled before each and after the last, each sample
/// taking a third of a slice's time on top of the measured time.
const SLICES: u32 = 4;

pub struct RoundSpec<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Names the round within the run; part of its input seed and of its
    /// data directory.
    pub tag: &'a str,
    pub warmup: Duration,
    pub measure: Duration,
    /// Run with the tracer's phase histograms and history recording on.
    pub traced: bool,
    /// Sample the machine's speed during the measured phase (see
    /// [`crate::machine`]). Off in the per-layer pass, whose process-wide
    /// counters must see nothing but the program.
    pub calibrated: bool,
    /// Where disk rounds create (and remove) their data directory.
    pub scratch: &'a Path,
}

/// One operation as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub read_only: bool,
    pub committed: bool,
    /// Aborted attempts before the commit (0 when it failed for good: the
    /// count is then unknown to the client).
    pub restarts: u32,
    pub start: Instant,
    /// Body of the last attempt: `begin` returned … last call before `commit`.
    pub body: BodyMarks,
    pub end: Instant,
}

/// The always-on counters, read while no client runs.
pub struct Counters {
    pub stats: StatsSnapshot,
    pub proc: ProcSample,
    /// Bytes under the data directory (0 on the memory engine).
    pub data_bytes: u64,
}

/// How long the serializability checker took over how many transactions.
pub struct HistoryCheck {
    pub txns: usize,
    pub check_s: f64,
}

pub struct RoundResult {
    /// Input generation + `Cluster::start` + first committed transaction
    /// (+ data directory creation on the disk engine).
    pub setup_s: f64,
    /// Wall time the clients ran for in the measured phase, each slice until
    /// its last client returned.
    pub elapsed_s: f64,
    /// Calibrated rounds: the machine's speed during the measured phase as a
    /// share of the reference machine's (median of the samples).
    pub machine_speed: Option<f64>,
    /// Measured-phase operations, one list per client.
    pub ops: Vec<Vec<OpRecord>>,
    pub before: Counters,
    pub after: Counters,
    /// Traced rounds only: the verdict on the recorded history.
    pub history: Option<HistoryCheck>,
    /// Every correctness check that did not pass.
    pub errors: Vec<String>,
}

/// A client's inputs and what it has learned so far; lives across the
/// warm-up and the measured phase.
struct ClientState {
    ops: Vec<Op>,
    next: usize,
    /// Sum of the deltas of every operation this client saw commit.
    committed_delta: i64,
    /// Last value read per item, to check that reads never go backwards.
    last_seen: Vec<i64>,
    regressions: u64,
}

impl ClientState {
    fn run_until(
        &mut self,
        cluster: &Cluster,
        items: &[ItemId],
        deadline: Instant,
    ) -> Vec<OpRecord> {
        let mut client = cluster.client();
        let mut records = Vec::new();
        loop {
            let start = Instant::now();
            if start >= deadline {
                return records;
            }
            let op = self.ops[self.next % self.ops.len()];
            self.next += 1;
            let (body, outcome) = execute(&mut client, items, &op);
            let end = Instant::now();
            let mut restarts = 0;
            if let Ok((reads, receipt)) = &outcome {
                restarts = receipt.restarts;
                self.committed_delta += op.net_delta();
                for &(item, value) in reads {
                    if value < self.last_seen[item] {
                        self.regressions += 1;
                    }
                    self.last_seen[item] = value;
                }
            }
            records.push(OpRecord {
                read_only: op.is_read_only(),
                committed: outcome.is_ok(),
                restarts,
                start,
                body,
                end,
            });
        }
    }
}

fn drive(
    cluster: &Cluster,
    items: &[ItemId],
    clients: &mut [ClientState],
    duration: Duration,
) -> Vec<Vec<OpRecord>> {
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|state| scope.spawn(move || state.run_until(cluster, items, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    })
}

/// The measured phase: the closed loop for `spec.measure`, in one piece or,
/// when calibrating, in slices between samples of the machine's speed.
fn measure(
    cluster: &Cluster,
    items: &[ItemId],
    clients: &mut [ClientState],
    spec: &RoundSpec<'_>,
) -> (Vec<Vec<OpRecord>>, f64, Option<f64>) {
    let slices = if spec.calibrated { SLICES } else { 1 };
    let slice = spec.measure / slices;
    let mut ops: Vec<Vec<OpRecord>> = vec![Vec::new(); CLIENTS];
    let mut elapsed = Duration::ZERO;
    let mut rates = Vec::new();
    for _ in 0..slices {
        if spec.calibrated {
            rates.push(calibration_rate(slice / 3));
        }
        let start = Instant::now();
        let part = drive(cluster, items, clients, slice);
        elapsed += start.elapsed();
        for (all, part) in ops.iter_mut().zip(part) {
            all.extend(part);
        }
    }
    if spec.calibrated {
        rates.push(calibration_rate(slice / 3));
    }
    let speed = median(&rates).map(|rate| rate / REFERENCE_RATE);
    (ops, elapsed.as_secs_f64(), speed)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn read_counters(cluster: &Cluster, data_dir: &Path) -> Counters {
    std::thread::sleep(QUIESCE);
    Counters {
        stats: cluster.stats(),
        proc: ProcSample::now(),
        data_bytes: dir_bytes(data_dir),
    }
}

pub fn run_round(spec: &RoundSpec<'_>) -> RoundResult {
    let workload = spec.workload;
    let setup_start = Instant::now();
    let seconds = (spec.warmup + spec.measure).as_secs_f64();
    let ops_per_client = (seconds * OPS_PER_CLIENT_SECOND).ceil().max(1.0) as usize;
    let mut clients: Vec<ClientState> = (0..CLIENTS)
        .map(|client| ClientState {
            ops: workload.generate_ops(spec.seed, spec.tag, client, ops_per_client),
            next: 0,
            committed_delta: 0,
            last_seen: vec![i64::MIN; ITEMS],
            regressions: 0,
        })
        .collect();
    let items = item_ids();
    let data_dir: PathBuf = spec.scratch.join(format!(
        "{}-{}-{}",
        workload.name(),
        std::process::id(),
        spec.tag
    ));
    if workload.engine() == EngineKind::Disk {
        std::fs::create_dir_all(&data_dir).expect("create the round's data directory");
    }
    let config = workload.cluster_config(spec.traced, &data_dir);
    let mut cluster = Cluster::start(config).expect("start the cluster");
    // Whatever RAINBOW_ENGINE says, the cluster runs the workload's engine.
    assert_eq!(cluster.config().storage.engine, workload.engine());
    execute(&mut cluster.client(), &items, &Op::FIRST)
        .1
        .expect("the first transaction on a fresh cluster commits");
    let setup_s = setup_start.elapsed().as_secs_f64();

    drive(&cluster, &items, &mut clients, spec.warmup);
    let before = read_counters(&cluster, &data_dir);
    let (ops, elapsed_s, machine_speed) = measure(&cluster, &items, &mut clients, spec);
    let after = read_counters(&cluster, &data_dir);

    let mut errors = Vec::new();
    let snapshots: Vec<SiteSnapshot> = cluster
        .site_ids()
        .into_iter()
        .map(|site| cluster.database_snapshot(site).expect("configured site"))
        .collect();
    let unknown_per_orphan = match workload {
        Workload::HotTransfer => 0,
        _ => MAX_DELTA,
    };
    let expected = Expected {
        items: ITEMS,
        sum: ITEMS as i64 * INITIAL_VALUE + clients.iter().map(|c| c.committed_delta).sum::<i64>(),
        unknown: after.stats.orphans as i64 * unknown_per_orphan,
    };
    if let Err(problem) = audit(&snapshots, expected) {
        errors.push(format!("audit: {problem}"));
    }
    let regressions: u64 = clients.iter().map(|c| c.regressions).sum();
    if regressions > 0 {
        errors.push(format!("{regressions} reads went backwards"));
    }
    let failed = ops.iter().flatten().filter(|op| !op.committed).count();
    if workload.must_not_fail() && failed > 0 {
        errors.push(format!(
            "{failed} operations failed on an uncontended workload"
        ));
    }

    let history = spec.traced.then(|| {
        if !cluster.await_history_quiescence(Duration::from_secs(5)) {
            errors.push("history did not quiesce".to_string());
        }
        let history = cluster.history().expect("traced rounds record history");
        let check_start = Instant::now();
        let report = rainbow_check::check_history(&history);
        let check_s = check_start.elapsed().as_secs_f64();
        if !report.is_serializable() {
            errors.push(format!("history not serializable: {}", report.summary()));
        }
        HistoryCheck {
            txns: history.len(),
            check_s,
        }
    });

    // Joins every site thread and, on the disk engine, removes the
    // (ephemeral) data directory; nothing of this round outlives it.
    cluster.shutdown();
    RoundResult {
        setup_s,
        elapsed_s,
        machine_speed,
        ops,
        before,
        after,
        history,
        errors,
    }
}
