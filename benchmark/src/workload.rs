//! The five workloads: what each runs, on which configuration, and why.

use rainbow_common::rng::{derive_seed, seeded_rng, AccessDistribution, ItemSampler};
use rainbow_common::{ItemId, TxnError, TxnReceipt};
use rainbow_core::client::Client;
use rainbow_core::ClusterConfig;
use rainbow_net::{LatencyModel, LinkConfig, NetworkConfig};
use rainbow_storage::{EngineKind, StorageConfig};
use rainbow_trace::TraceConfig;
use std::path::Path;
use std::time::{Duration, Instant};

/// Sites, items and copies per item of every cluster the benchmark starts:
/// `ClusterConfig::quick(3, 1024, 3)`, what a student gets.
pub const SITES: usize = 3;
pub const ITEMS: usize = 1024;
pub const REPLICATION: usize = 3;
/// Every item starts at this value (`ClusterConfig::quick`'s schema).
pub const INITIAL_VALUE: i64 = 100;
/// Closed-loop client threads. Fixed, not `nproc`, so results compare
/// across machines.
pub const CLIENTS: usize = 2;
/// Items `hot_transfer` moves value between.
const HOT_ITEMS: usize = 4;
/// Keys per read-only transaction of `read_mostly`.
const READ_KEYS: usize = 4;
/// Largest increment drawn; all increments are positive so that reads of
/// one client can never go backwards.
pub const MAX_DELTA: i64 = 3;
/// One-way delay of every link of `update_lan`, client links included.
pub const LAN_DELAY: Duration = Duration::from_micros(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UpdateDisjoint,
    ReadMostly,
    HotTransfer,
    UpdateDisk,
    UpdateLan,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::UpdateDisjoint,
        Workload::ReadMostly,
        Workload::HotTransfer,
        Workload::UpdateDisk,
        Workload::UpdateLan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UpdateDisjoint => "update_disjoint",
            Workload::ReadMostly => "read_mostly",
            Workload::HotTransfer => "hot_transfer",
            Workload::UpdateDisk => "update_disk",
            Workload::UpdateLan => "update_lan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// No lock is ever contended and nothing can time out: an operation
    /// that fails here is a defect, not load.
    pub fn must_not_fail(self) -> bool {
        matches!(
            self,
            Workload::UpdateDisjoint | Workload::ReadMostly | Workload::UpdateLan
        )
    }

    /// Whether the machine's speed sets the workload's pace. `update_lan`
    /// waits for the link's timer most of the time instead, so its figures
    /// are reported as measured, not scaled to the reference machine.
    pub fn machine_bound(self) -> bool {
        self != Workload::UpdateLan
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::UpdateDisk => EngineKind::Disk,
            _ => EngineKind::Memory,
        }
    }

    /// The cluster a round runs on. Storage is always set explicitly, so the
    /// `RAINBOW_ENGINE` variable `quick` consults never decides; the
    /// protocol stack is whatever `quick` gives and is never named here, so
    /// the benchmark follows the repository's default runtime.
    pub fn cluster_config(self, traced: bool, data_dir: &Path) -> ClusterConfig {
        let storage = match self.engine() {
            // Ephemeral: `Cluster::shutdown` removes the directory.
            EngineKind::Disk => StorageConfig {
                ephemeral: true,
                ..StorageConfig::disk(data_dir)
            },
            EngineKind::Memory => StorageConfig::memory(),
        };
        let mut config = ClusterConfig::quick(SITES, ITEMS, REPLICATION)
            .expect("three sites hold three copies")
            .with_storage(storage);
        if self == Workload::UpdateLan {
            let link = LinkConfig::with_latency(LatencyModel::constant(LAN_DELAY));
            config = config.with_network(NetworkConfig::perfect().with_default_link(link));
        }
        if traced {
            config = config
                .with_tracing(TraceConfig::histograms_only())
                .with_history_recording(true);
        }
        config
    }

    /// The operations one client issues in one round, all drawn from `seed`.
    pub fn generate_ops(self, seed: u64, round: &str, client: usize, count: usize) -> Vec<Op> {
        let stream = format!("{}/{round}/client{client}", self.name());
        let mut rng = seeded_rng(derive_seed(seed, &stream));
        let uniform = |n| ItemSampler::new(n, AccessDistribution::Uniform);
        let (all, own_half, hot) = (uniform(ITEMS), uniform(ITEMS / CLIENTS), uniform(HOT_ITEMS));
        let (tenth, delta) = (uniform(10), uniform(MAX_DELTA as usize));
        (0..count)
            .map(|_| match self {
                Workload::UpdateDisjoint | Workload::UpdateDisk | Workload::UpdateLan => {
                    Op::Increment {
                        item: client * (ITEMS / CLIENTS) + own_half.sample(&mut rng),
                        delta: 1 + delta.sample(&mut rng) as i64,
                    }
                }
                Workload::ReadMostly if tenth.sample(&mut rng) == 0 => Op::Increment {
                    item: all.sample(&mut rng),
                    delta: 1 + delta.sample(&mut rng) as i64,
                },
                Workload::ReadMostly => {
                    let keys = all.sample_distinct(&mut rng, READ_KEYS);
                    Op::ReadMany(keys.try_into().expect("four distinct keys of 1024"))
                }
                Workload::HotTransfer => {
                    let pair = hot.sample_distinct(&mut rng, 2);
                    Op::Transfer {
                        from: pair[0],
                        to: pair[1],
                    }
                }
            })
            .collect()
    }
}

/// The ids of the schema's items (`x0`, `x1`, …), by index.
pub fn item_ids() -> Vec<ItemId> {
    (0..ITEMS).map(|i| ItemId::new(format!("x{i}"))).collect()
}

/// One logical transaction, as item indices into the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Increment {
        item: usize,
        delta: i64,
    },
    ReadMany([usize; READ_KEYS]),
    /// `increment(from, -1)` then `increment(to, +1)`.
    Transfer {
        from: usize,
        to: usize,
    },
}

impl Op {
    /// The transaction the set-up commits before the warm-up: it proves the
    /// cluster answers and changes no value.
    pub const FIRST: Op = Op::Increment { item: 0, delta: 0 };

    pub fn is_read_only(&self) -> bool {
        matches!(self, Op::ReadMany(_))
    }

    /// What the operation adds to the sum of all values when it commits.
    pub fn net_delta(&self) -> i64 {
        match self {
            Op::Increment { delta, .. } => *delta,
            Op::ReadMany(_) | Op::Transfer { .. } => 0,
        }
    }
}

/// When the transaction body (the calls between `begin` and `commit`) of an
/// operation's last attempt started and ended.
#[derive(Debug, Clone, Copy)]
pub struct BodyMarks {
    pub start: Instant,
    pub end: Instant,
}

/// What an operation came to: the values it read (item index, value) and
/// the commit's receipt, or why `Client::run` gave up.
pub type Outcome = Result<(Vec<(usize, i64)>, TxnReceipt), TxnError>;

/// Runs `op` through `Client::run` with the client's default retry policy.
/// Returns where the body of the last attempt lay in time, and the outcome.
pub fn execute(client: &mut Client<'_>, items: &[ItemId], op: &Op) -> (BodyMarks, Outcome) {
    let label = match op {
        Op::Increment { .. } => "increment",
        Op::ReadMany(_) => "read",
        Op::Transfer { .. } => "transfer",
    };
    let now = Instant::now();
    let mut marks = BodyMarks {
        start: now,
        end: now,
    };
    let outcome = client.run(label, |txn| {
        marks.start = Instant::now();
        let outcome = match op {
            Op::Increment { item, delta } => txn
                .increment(items[*item].clone(), *delta)
                .map(|_| Vec::new()),
            Op::ReadMany(keys) => txn
                .read_many(keys.iter().map(|key| items[*key].clone()))
                .map(|values| {
                    keys.iter()
                        .zip(values)
                        .map(|(key, (_, value))| (*key, value.as_int().unwrap_or(i64::MIN)))
                        .collect()
                }),
            Op::Transfer { from, to } => txn
                .increment(items[*from].clone(), -1)
                .and_then(|_| txn.increment(items[*to].clone(), 1))
                .map(|_| Vec::new()),
        };
        marks.end = Instant::now();
        outcome
    });
    (marks, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_gives_others() {
        for workload in Workload::ALL {
            let a = workload.generate_ops(7, "r0", 1, 64);
            assert_eq!(a, workload.generate_ops(7, "r0", 1, 64));
            assert_ne!(a, workload.generate_ops(8, "r0", 1, 64));
            assert_ne!(a, workload.generate_ops(7, "r1", 1, 64));
        }
    }

    #[test]
    fn inputs_have_the_shape_the_workload_promises() {
        for client in 0..CLIENTS {
            let half = client * ITEMS / CLIENTS..(client + 1) * ITEMS / CLIENTS;
            for op in Workload::UpdateDisjoint.generate_ops(1, "r0", client, 500) {
                match op {
                    Op::Increment { item, delta } => {
                        assert!(half.contains(&item));
                        assert!((1..=MAX_DELTA).contains(&delta));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let ops = Workload::ReadMostly.generate_ops(1, "r0", 0, 4000);
        let reads = ops.iter().filter(|op| op.is_read_only()).count();
        assert!((3400..=3800).contains(&reads), "{reads} reads of 4000");
        for op in Workload::HotTransfer.generate_ops(1, "r0", 0, 500) {
            match op {
                Op::Transfer { from, to } => {
                    assert!(from != to && from < HOT_ITEMS && to < HOT_ITEMS);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
