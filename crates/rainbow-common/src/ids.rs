//! Strongly-typed identifiers used throughout the Rainbow system.
//!
//! The paper's name server stores "metadata of all Rainbow sites, such as the
//! id and end point specifications". We model those ids (and the ids of every
//! other entity that flows between sites) as dedicated newtypes so that the
//! compiler rejects accidental mix-ups such as passing a transaction id where
//! a site id is expected.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Identifier of a physical (simulated) host in the Rainbow host domain.
///
/// In the paper a host is a machine running the "ServletRunner"; several
/// Rainbow sites and/or the name server may live on one host (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

/// Identifier of a Rainbow site (a node of the distributed database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u32);

/// One entry of the global item-name intern pool: the name plus its
/// precomputed FNV-1a hash (so hashing an [`ItemId`] never rescans the
/// name bytes on the hot path).
#[derive(Debug)]
struct InternedName {
    hash: u64,
    name: Box<str>,
}

/// Pool entry wrapper so the intern set can be probed by `&str` without
/// allocating.
#[derive(Debug)]
struct PoolEntry(Arc<InternedName>);

impl std::borrow::Borrow<str> for PoolEntry {
    fn borrow(&self) -> &str {
        &self.0.name
    }
}

impl PartialEq for PoolEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for PoolEntry {}

impl Hash for PoolEntry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `<str as Hash>` so `HashSet::get::<str>` finds entries.
        (*self.0.name).hash(state)
    }
}

/// Number of intern-pool shards (hashes spread construction across locks).
const INTERN_SHARDS: usize = 32;

type InternPool = [Mutex<std::collections::HashSet<PoolEntry>>; INTERN_SHARDS];

fn intern_pool() -> &'static InternPool {
    static POOL: OnceLock<InternPool> = OnceLock::new();
    POOL.get_or_init(|| std::array::from_fn(|_| Mutex::new(std::collections::HashSet::new())))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Identifier of a logical database item (the unit of fragmentation,
/// replication and distribution in the name-server schema).
///
/// Item ids are **interned**: every `ItemId` with the same name shares one
/// allocation in a process-wide pool, so cloning is an atomic increment
/// (instead of a heap `String` copy), equality is a pointer comparison, and
/// hashing reuses the name's precomputed hash. These properties carry the
/// whole data plane — lock tables, timestamp-ordering maps, store indexes
/// and WAL records all key on `ItemId` — which is why the id must be cheap.
///
/// Ordering remains lexicographic on the name, so sorted containers and
/// snapshots keep their human-readable order.
#[derive(Clone)]
pub struct ItemId(Arc<InternedName>);

/// Identifier of one physical copy of an item: the item plus the site that
/// stores the copy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CopyId {
    /// The logical item this copy replicates.
    pub item: ItemId,
    /// The site holding the copy.
    pub site: SiteId,
}

/// Globally unique transaction identifier.
///
/// A transaction id is minted by its *home site* (the site it arrives at) and
/// combines that site id with a locally increasing sequence number, mirroring
/// how Rainbow sites each "concurrently process multiple transactions".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId {
    /// Site at which the transaction was submitted.
    pub home: SiteId,
    /// Per-home-site sequence number.
    pub seq: u64,
}

/// Identifier of a message exchanged through the network simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

/// A logical timestamp: `(counter, site)` pairs ordered lexicographically.
///
/// Timestamps are site-unique (ties on the counter are broken by the site id)
/// which is exactly what basic and multi-version timestamp ordering require.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Timestamp {
    /// Monotonic counter component (Lamport time at the issuing site).
    pub counter: u64,
    /// Issuing site, used as a tie breaker so no two sites issue equal
    /// timestamps.
    pub site: u32,
}

/// Version number of a replicated copy, as used by quorum consensus: reads
/// return the value of the highest-versioned copy in the read quorum, writes
/// install `max(version in write quorum) + 1`.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Version(pub u64);

impl HostId {
    /// Numeric value of the id.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl SiteId {
    /// Numeric value of the id.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// When a pool shard exceeds this many entries, inserting sweeps out names
/// no live `ItemId` references any more (pool-only `Arc`s), bounding the
/// pool for long-lived processes that keep minting fresh names.
const INTERN_SWEEP_THRESHOLD: usize = 4096;

impl ItemId {
    /// Creates (or looks up) the interned item id for `name`.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let hash = fnv1a(name.as_bytes());
        let shard = &intern_pool()[(hash as usize) % INTERN_SHARDS];
        let mut pool = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = pool.get(name) {
            return ItemId(Arc::clone(&entry.0));
        }
        if pool.len() >= INTERN_SWEEP_THRESHOLD {
            // Drop names whose only remaining reference is the pool's own.
            pool.retain(|entry| Arc::strong_count(&entry.0) > 1);
        }
        let interned = Arc::new(InternedName {
            hash,
            name: Box::from(name),
        });
        pool.insert(PoolEntry(Arc::clone(&interned)));
        ItemId(interned)
    }

    /// Borrowed name of the item.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Borrowed name of the item (serde-style alias).
    pub fn as_str(&self) -> &str {
        &self.0.name
    }

    /// The precomputed 64-bit hash of the name. Deterministic across runs
    /// and processes; `Hash` feeds exactly this to the hasher.
    pub fn token(&self) -> u64 {
        self.0.hash
    }
}

// Every `ItemId` is minted through the intern pool, so two ids with equal
// names always share one allocation: equality is pointer equality and the
// hash is the precomputed name hash (consistent because equal names imply
// equal hashes).
impl PartialEq for ItemId {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ItemId {}

impl Hash for ItemId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for ItemId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ItemId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.name.cmp(&other.0.name)
        }
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ItemId").field(&self.name()).finish()
    }
}

impl Serialize for ItemId {
    fn to_content(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for ItemId {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content.as_str() {
            Some(name) => Ok(ItemId::new(name)),
            None => Err(DeError::custom(format!(
                "expected item name string, found {}",
                content.kind()
            ))),
        }
    }
}

impl CopyId {
    /// Creates a copy id.
    pub fn new(item: ItemId, site: SiteId) -> Self {
        CopyId { item, site }
    }
}

impl TxnId {
    /// Creates a transaction id.
    pub fn new(home: SiteId, seq: u64) -> Self {
        TxnId { home, seq }
    }
}

impl Timestamp {
    /// The zero timestamp, smaller than every timestamp a site can issue.
    pub const ZERO: Timestamp = Timestamp {
        counter: 0,
        site: 0,
    };

    /// Creates a timestamp.
    pub fn new(counter: u64, site: u32) -> Self {
        Timestamp { counter, site }
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Version {
    /// The initial version of a freshly created copy.
    pub const INITIAL: Version = Version(0);

    /// The version that follows this one.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for CopyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.item, self.site)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.home.0, self.seq)
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.counter, self.site)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<&str> for ItemId {
    fn from(s: &str) -> Self {
        ItemId::new(s)
    }
}

impl From<String> for ItemId {
    fn from(s: String) -> Self {
        ItemId::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_is_lexicographic() {
        let a = Timestamp::new(1, 5);
        let b = Timestamp::new(2, 0);
        let c = Timestamp::new(2, 1);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
        assert_eq!(b.max(c), c);
        assert_eq!(c.max(b), c);
    }

    #[test]
    fn timestamps_from_distinct_sites_never_compare_equal_unless_identical() {
        let a = Timestamp::new(7, 1);
        let b = Timestamp::new(7, 2);
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn zero_timestamp_is_minimal() {
        assert!(Timestamp::ZERO <= Timestamp::new(0, 0));
        assert!(Timestamp::ZERO < Timestamp::new(0, 1));
        assert!(Timestamp::ZERO < Timestamp::new(1, 0));
    }

    #[test]
    fn version_next_increments() {
        assert_eq!(Version::INITIAL.next(), Version(1));
        assert_eq!(Version(41).next(), Version(42));
        assert!(Version(41) < Version(42));
    }

    #[test]
    fn txn_id_orders_by_home_then_sequence() {
        let a = TxnId::new(SiteId(0), 10);
        let b = TxnId::new(SiteId(0), 11);
        let c = TxnId::new(SiteId(1), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn item_id_round_trips_through_strings() {
        let id: ItemId = "accounts.balance[7]".into();
        assert_eq!(id.name(), "accounts.balance[7]");
        assert_eq!(format!("{id}"), "accounts.balance[7]");
    }

    #[test]
    fn item_ids_with_equal_names_share_one_interned_allocation() {
        let a = ItemId::new("interned.x");
        let b = ItemId::new(String::from("interned.x"));
        let c = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(std::ptr::eq(a.name(), b.name()), "same backing allocation");
        assert!(std::ptr::eq(a.name(), c.name()));
        assert_ne!(a, ItemId::new("interned.y"));
    }

    #[test]
    fn item_id_ordering_is_lexicographic_on_names() {
        let mut ids = [
            ItemId::new("zeta"),
            ItemId::new("alpha"),
            ItemId::new("mid"),
        ];
        ids.sort();
        let names: Vec<&str> = ids.iter().map(ItemId::name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn item_id_token_is_stable_and_name_derived() {
        let a = ItemId::new("tok");
        let b = ItemId::new("tok");
        assert_eq!(a.token(), b.token());
        assert_ne!(a.token(), ItemId::new("tok2").token());
    }

    #[test]
    fn item_id_serializes_as_its_plain_name() {
        let id = ItemId::new("serde.item");
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "\"serde.item\"");
        let back: ItemId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn item_ids_key_hash_and_btree_maps_interchangeably() {
        let mut hashed = std::collections::HashMap::new();
        let mut sorted = std::collections::BTreeMap::new();
        for i in 0..32 {
            let id = ItemId::new(format!("map.{i}"));
            hashed.insert(id.clone(), i);
            sorted.insert(id, i);
        }
        for i in 0..32 {
            let probe = ItemId::new(format!("map.{i}"));
            assert_eq!(hashed.get(&probe), Some(&i));
            assert_eq!(sorted.get(&probe), Some(&i));
        }
    }

    #[test]
    fn copy_id_display_includes_site() {
        let c = CopyId::new(ItemId::new("x"), SiteId(3));
        assert_eq!(format!("{c}"), "x@site3");
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(format!("{}", HostId(2)), "host2");
        assert_eq!(format!("{}", SiteId(4)), "site4");
        assert_eq!(format!("{}", TxnId::new(SiteId(4), 9)), "T4.9");
        assert_eq!(format!("{}", MessageId(77)), "m77");
        assert_eq!(format!("{}", Timestamp::new(3, 1)), "3:1");
        assert_eq!(format!("{}", Version(5)), "v5");
    }

    #[test]
    fn serde_round_trip() {
        let t = TxnId::new(SiteId(2), 99);
        let json = serde_json::to_string(&t).unwrap();
        let back: TxnId = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);

        let ts = Timestamp::new(8, 3);
        let json = serde_json::to_string(&ts).unwrap();
        let back: Timestamp = serde_json::from_str(&json).unwrap();
        assert_eq!(ts, back);
    }
}
