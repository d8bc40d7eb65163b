//! Database, replication and distribution schema types.
//!
//! The Rainbow name server "stores metadata of all Rainbow sites, such as the
//! id and end point specifications. Also maintained in the name server are
//! the database fragmentation, replication and distribution schema." These
//! types are that metadata; the name server in `rainbow-core` serves them to
//! sites, and the Session API in `rainbow-control` builds them from user
//! configuration (mirroring the GUI's "Database Replication Configuration"
//! panel, Figure A-1).

use crate::error::{RainbowError, RainbowResult};
use crate::ids::{HostId, ItemId, SiteId};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Static description of one Rainbow site: which simulated host it lives
/// on. (A site is one thread, its event loop, however many transactions it
/// processes concurrently.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// The site's id.
    pub id: SiteId,
    /// The host the site lives on (several sites may share a host, as in
    /// Figure 2 of the paper).
    pub host: HostId,
}

impl SiteSpec {
    /// Creates a site spec.
    pub fn new(id: SiteId, host: HostId) -> Self {
        SiteSpec { id, host }
    }
}

/// Declaration of one logical database item and its initial value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemSpec {
    /// The item's id (name).
    pub id: ItemId,
    /// Initial value installed at every copy when the database is created.
    pub initial: Value,
}

impl ItemSpec {
    /// Creates an item spec.
    pub fn new(id: impl Into<ItemId>, initial: impl Into<Value>) -> Self {
        ItemSpec {
            id: id.into(),
            initial: initial.into(),
        }
    }
}

/// Where the copies of one item live and how they vote.
///
/// Quorum consensus assigns each copy a (positive) number of votes and
/// defines read/write thresholds such that `read + write > total` and
/// `2 * write > total`; ROWA ignores the vote assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItemPlacement {
    /// Copy-holder sites with their vote weights.
    pub copies: BTreeMap<SiteId, u32>,
    /// Read-quorum threshold (sum of votes needed to read).
    pub read_quorum: u32,
    /// Write-quorum threshold (sum of votes needed to write).
    pub write_quorum: u32,
}

impl ItemPlacement {
    /// Uniform placement: one vote per copy, majority read and write quorums.
    pub fn majority(sites: impl IntoIterator<Item = SiteId>) -> Self {
        let copies: BTreeMap<SiteId, u32> = sites.into_iter().map(|s| (s, 1)).collect();
        let total: u32 = copies.values().sum();
        let write = total / 2 + 1;
        // Smallest read quorum that still intersects every write quorum.
        let read = total + 1 - write;
        ItemPlacement {
            copies,
            read_quorum: read,
            write_quorum: write,
        }
    }

    /// Read-one-write-all placement: one vote per copy, read quorum 1, write
    /// quorum = all votes. (Quorum consensus configured this way degenerates
    /// to ROWA, which is a useful cross-check in tests.)
    pub fn read_one_write_all(sites: impl IntoIterator<Item = SiteId>) -> Self {
        let copies: BTreeMap<SiteId, u32> = sites.into_iter().map(|s| (s, 1)).collect();
        let total: u32 = copies.values().sum();
        ItemPlacement {
            copies,
            read_quorum: 1,
            write_quorum: total,
        }
    }

    /// Weighted placement with explicit thresholds.
    pub fn weighted(copies: BTreeMap<SiteId, u32>, read_quorum: u32, write_quorum: u32) -> Self {
        ItemPlacement {
            copies,
            read_quorum,
            write_quorum,
        }
    }

    /// Total number of votes across all copies.
    pub fn total_votes(&self) -> u32 {
        self.copies.values().sum()
    }

    /// Number of copies (replication degree).
    pub fn replication_degree(&self) -> usize {
        self.copies.len()
    }

    /// The sites holding copies of this item.
    pub fn holders(&self) -> Vec<SiteId> {
        self.copies.keys().copied().collect()
    }

    /// Whether `site` holds a copy.
    pub fn holds_copy(&self, site: SiteId) -> bool {
        self.copies.contains_key(&site)
    }

    /// Validates quorum intersection: `read + write > total` (read quorums
    /// intersect write quorums) and `2 * write > total` (write quorums
    /// intersect each other), plus non-empty placement and positive votes.
    pub fn validate(&self, item: &ItemId) -> RainbowResult<()> {
        if self.copies.is_empty() {
            return Err(RainbowError::InvalidConfig(format!(
                "item {item} has no copy holders"
            )));
        }
        if self.copies.values().any(|&v| v == 0) {
            return Err(RainbowError::InvalidConfig(format!(
                "item {item} assigns a zero vote weight to a copy"
            )));
        }
        let total = self.total_votes();
        if self.read_quorum == 0 || self.write_quorum == 0 {
            return Err(RainbowError::InvalidConfig(format!(
                "item {item} has a zero quorum threshold"
            )));
        }
        if self.read_quorum > total || self.write_quorum > total {
            return Err(RainbowError::InvalidConfig(format!(
                "item {item}: quorum threshold exceeds total votes {total}"
            )));
        }
        if self.read_quorum + self.write_quorum <= total {
            return Err(RainbowError::InvalidConfig(format!(
                "item {item}: read ({}) + write ({}) quorums do not intersect (total {total})",
                self.read_quorum, self.write_quorum
            )));
        }
        if 2 * self.write_quorum <= total {
            return Err(RainbowError::InvalidConfig(format!(
                "item {item}: write quorum {} does not intersect itself (total {total})",
                self.write_quorum
            )));
        }
        Ok(())
    }
}

/// The replication scheme: an [`ItemPlacement`] per item.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationScheme {
    /// Placement per item.
    pub placements: BTreeMap<ItemId, ItemPlacement>,
}

impl ReplicationScheme {
    /// Creates an empty scheme.
    pub fn new() -> Self {
        ReplicationScheme::default()
    }

    /// Adds or replaces the placement of an item.
    pub fn place(&mut self, item: impl Into<ItemId>, placement: ItemPlacement) {
        self.placements.insert(item.into(), placement);
    }

    /// The placement of an item, if declared.
    pub fn placement(&self, item: &ItemId) -> Option<&ItemPlacement> {
        self.placements.get(item)
    }

    /// All sites that hold at least one copy.
    pub fn copy_holders(&self) -> BTreeSet<SiteId> {
        self.placements
            .values()
            .flat_map(|p| p.copies.keys().copied())
            .collect()
    }

    /// Items stored (fully or partially) at `site`.
    pub fn items_at(&self, site: SiteId) -> Vec<ItemId> {
        self.placements
            .iter()
            .filter(|(_, p)| p.holds_copy(site))
            .map(|(item, _)| item.clone())
            .collect()
    }

    /// Validates every placement.
    pub fn validate(&self) -> RainbowResult<()> {
        for (item, placement) in &self.placements {
            placement.validate(item)?;
        }
        Ok(())
    }
}

/// The complete database schema: item declarations plus the replication
/// scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatabaseSchema {
    /// Item declarations.
    pub items: Vec<ItemSpec>,
    /// Replication scheme.
    pub replication: ReplicationScheme,
}

impl DatabaseSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        DatabaseSchema::default()
    }

    /// Declares an item with its initial value and placement.
    pub fn declare(
        &mut self,
        item: impl Into<ItemId>,
        initial: impl Into<Value>,
        placement: ItemPlacement,
    ) {
        let id = item.into();
        self.items.push(ItemSpec::new(id.clone(), initial));
        self.replication.place(id, placement);
    }

    /// Convenience constructor used by tests, examples and the workload
    /// generator: `n_items` integer items named `x0..x{n-1}`, each valued
    /// `initial` and replicated on `degree` sites chosen round-robin from
    /// `sites`, with majority quorums.
    pub fn uniform(
        n_items: usize,
        initial: i64,
        sites: &[SiteId],
        degree: usize,
    ) -> RainbowResult<Self> {
        if sites.is_empty() {
            return Err(RainbowError::InvalidConfig(
                "uniform schema needs at least one site".into(),
            ));
        }
        let degree = degree.clamp(1, sites.len());
        let mut schema = DatabaseSchema::new();
        for i in 0..n_items {
            let holders: Vec<SiteId> = (0..degree).map(|k| sites[(i + k) % sites.len()]).collect();
            schema.declare(format!("x{i}"), initial, ItemPlacement::majority(holders));
        }
        Ok(schema)
    }

    /// Looks up the spec of an item.
    pub fn item(&self, id: &ItemId) -> Option<&ItemSpec> {
        self.items.iter().find(|spec| &spec.id == id)
    }

    /// All declared item ids, in declaration order.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.items.iter().map(|spec| spec.id.clone()).collect()
    }

    /// Number of declared items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no item is declared.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Validates the schema: every item must have a valid placement and every
    /// placement must refer to a declared item.
    pub fn validate(&self) -> RainbowResult<()> {
        let declared: BTreeSet<&ItemId> = self.items.iter().map(|s| &s.id).collect();
        for spec in &self.items {
            match self.replication.placement(&spec.id) {
                None => {
                    return Err(RainbowError::InvalidConfig(format!(
                        "item {} has no placement in the replication scheme",
                        spec.id
                    )))
                }
                Some(p) => p.validate(&spec.id)?,
            }
        }
        for item in self.replication.placements.keys() {
            if !declared.contains(item) {
                return Err(RainbowError::InvalidConfig(format!(
                    "replication scheme places undeclared item {item}"
                )));
            }
        }
        Ok(())
    }
}

/// The distribution schema: which sites exist and on which hosts they live.
/// Together with [`DatabaseSchema`] this is the metadata the name server
/// serves.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributionSchema {
    /// Site declarations.
    pub sites: Vec<SiteSpec>,
}

impl DistributionSchema {
    /// Creates an empty distribution schema.
    pub fn new() -> Self {
        DistributionSchema::default()
    }

    /// `n` sites, one per host, default worker threads.
    pub fn one_site_per_host(n: usize) -> Self {
        DistributionSchema {
            sites: (0..n as u32)
                .map(|i| SiteSpec::new(SiteId(i), HostId(i)))
                .collect(),
        }
    }

    /// Adds a site.
    pub fn add(&mut self, spec: SiteSpec) {
        self.sites.push(spec);
    }

    /// All site ids.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.sites.iter().map(|s| s.id).collect()
    }

    /// All host ids (deduplicated).
    pub fn host_ids(&self) -> Vec<HostId> {
        let set: BTreeSet<HostId> = self.sites.iter().map(|s| s.host).collect();
        set.into_iter().collect()
    }

    /// The spec of a site.
    pub fn site(&self, id: SiteId) -> Option<&SiteSpec> {
        self.sites.iter().find(|s| s.id == id)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when there is no site.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Validates that site ids are unique.
    pub fn validate(&self) -> RainbowResult<()> {
        let mut seen = BTreeSet::new();
        for spec in &self.sites {
            if !seen.insert(spec.id) {
                return Err(RainbowError::InvalidConfig(format!(
                    "duplicate site id {}",
                    spec.id
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(n: u32) -> Vec<SiteId> {
        (0..n).map(SiteId).collect()
    }

    #[test]
    fn majority_placement_thresholds() {
        let p = ItemPlacement::majority(sites(5));
        assert_eq!(p.total_votes(), 5);
        assert_eq!(p.write_quorum, 3);
        assert_eq!(p.read_quorum, 3);
        p.validate(&ItemId::new("x")).unwrap();

        let p = ItemPlacement::majority(sites(4));
        assert_eq!(p.write_quorum, 3);
        assert_eq!(p.read_quorum, 2);
        p.validate(&ItemId::new("x")).unwrap();

        let p = ItemPlacement::majority(sites(1));
        assert_eq!(p.write_quorum, 1);
        assert_eq!(p.read_quorum, 1);
        p.validate(&ItemId::new("x")).unwrap();
    }

    #[test]
    fn rowa_placement_thresholds() {
        let p = ItemPlacement::read_one_write_all(sites(4));
        assert_eq!(p.read_quorum, 1);
        assert_eq!(p.write_quorum, 4);
        p.validate(&ItemId::new("x")).unwrap();
    }

    #[test]
    fn invalid_quorums_are_rejected() {
        let item = ItemId::new("x");
        // Non-intersecting read/write quorums.
        let p = ItemPlacement::weighted(sites(4).into_iter().map(|s| (s, 1)).collect(), 1, 3);
        assert!(p.validate(&item).is_err());
        // Write quorum not intersecting itself.
        let p = ItemPlacement::weighted(sites(4).into_iter().map(|s| (s, 1)).collect(), 3, 2);
        assert!(p.validate(&item).is_err());
        // Zero votes.
        let mut copies: BTreeMap<SiteId, u32> = sites(2).into_iter().map(|s| (s, 1)).collect();
        copies.insert(SiteId(0), 0);
        let p = ItemPlacement::weighted(copies, 1, 2);
        assert!(p.validate(&item).is_err());
        // Empty placement.
        let p = ItemPlacement::weighted(BTreeMap::new(), 1, 1);
        assert!(p.validate(&item).is_err());
        // Threshold above total.
        let p = ItemPlacement::weighted(sites(2).into_iter().map(|s| (s, 1)).collect(), 3, 2);
        assert!(p.validate(&item).is_err());
        // Zero threshold.
        let p = ItemPlacement::weighted(sites(2).into_iter().map(|s| (s, 1)).collect(), 0, 2);
        assert!(p.validate(&item).is_err());
    }

    #[test]
    fn weighted_votes_count_toward_totals() {
        let copies: BTreeMap<SiteId, u32> = vec![(SiteId(0), 3), (SiteId(1), 1), (SiteId(2), 1)]
            .into_iter()
            .collect();
        let p = ItemPlacement::weighted(copies, 3, 3);
        assert_eq!(p.total_votes(), 5);
        assert_eq!(p.replication_degree(), 3);
        p.validate(&ItemId::new("x")).unwrap();
    }

    #[test]
    fn replication_scheme_queries() {
        let mut scheme = ReplicationScheme::new();
        scheme.place("x", ItemPlacement::majority(sites(3)));
        scheme.place("y", ItemPlacement::majority(vec![SiteId(1), SiteId(2)]));
        assert!(scheme.placement(&ItemId::new("x")).is_some());
        assert!(scheme.placement(&ItemId::new("z")).is_none());
        assert_eq!(scheme.copy_holders().len(), 3);
        assert_eq!(scheme.items_at(SiteId(0)), vec![ItemId::new("x")]);
        let at1 = scheme.items_at(SiteId(1));
        assert!(at1.contains(&ItemId::new("x")) && at1.contains(&ItemId::new("y")));
        scheme.validate().unwrap();
    }

    #[test]
    fn uniform_schema_round_robins_placements() {
        let s = sites(4);
        let schema = DatabaseSchema::uniform(8, 100, &s, 3).unwrap();
        assert_eq!(schema.len(), 8);
        assert!(!schema.is_empty());
        schema.validate().unwrap();
        for spec in &schema.items {
            let p = schema.replication.placement(&spec.id).unwrap();
            assert_eq!(p.replication_degree(), 3);
            assert_eq!(spec.initial, Value::Int(100));
        }
        // Every site ends up holding something.
        for site in &s {
            assert!(!schema.replication.items_at(*site).is_empty());
        }
    }

    #[test]
    fn uniform_schema_clamps_degree_and_rejects_empty_sites() {
        assert!(DatabaseSchema::uniform(4, 0, &[], 2).is_err());
        let schema = DatabaseSchema::uniform(4, 0, &sites(2), 10).unwrap();
        for spec in &schema.items {
            assert_eq!(
                schema
                    .replication
                    .placement(&spec.id)
                    .unwrap()
                    .replication_degree(),
                2
            );
        }
    }

    #[test]
    fn schema_validation_catches_mismatches() {
        let mut schema = DatabaseSchema::new();
        schema.items.push(ItemSpec::new("x", 1i64));
        // No placement for x.
        assert!(schema.validate().is_err());
        // Placement for an undeclared item.
        let mut schema = DatabaseSchema::new();
        schema
            .replication
            .place("ghost", ItemPlacement::majority(sites(2)));
        assert!(schema.validate().is_err());
    }

    #[test]
    fn schema_item_lookup() {
        let schema = DatabaseSchema::uniform(3, 7, &sites(2), 2).unwrap();
        assert!(schema.item(&ItemId::new("x1")).is_some());
        assert!(schema.item(&ItemId::new("nope")).is_none());
        assert_eq!(schema.item_ids().len(), 3);
    }

    #[test]
    fn distribution_schema_basics() {
        let dist = DistributionSchema::one_site_per_host(3);
        assert_eq!(dist.len(), 3);
        assert!(!dist.is_empty());
        assert_eq!(dist.site_ids(), sites(3));
        assert_eq!(dist.host_ids().len(), 3);
        assert!(dist.site(SiteId(1)).is_some());
        assert!(dist.site(SiteId(9)).is_none());
        dist.validate().unwrap();
    }

    #[test]
    fn distribution_schema_rejects_duplicates() {
        let mut dist = DistributionSchema::new();
        dist.add(SiteSpec::new(SiteId(0), HostId(0)));
        dist.add(SiteSpec::new(SiteId(0), HostId(1)));
        assert!(dist.validate().is_err());
    }

    #[test]
    fn schema_serde_round_trip() {
        let schema = DatabaseSchema::uniform(4, 10, &sites(3), 2).unwrap();
        let json = serde_json::to_string(&schema).unwrap();
        let back: DatabaseSchema = serde_json::from_str(&json).unwrap();
        assert_eq!(schema, back);
    }
}
