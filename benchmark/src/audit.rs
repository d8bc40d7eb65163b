//! The exact-sum audit run over every site's committed state after a round.

use rainbow_common::{ItemId, Value, Version};
use std::collections::BTreeMap;

/// One site's `Cluster::database_snapshot`.
pub type SiteSnapshot = Vec<(ItemId, Value, Version)>;

/// What the clients know the database must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Number of items in the schema.
    pub items: usize,
    /// Sum of all initial values plus every delta of an operation the
    /// client saw commit.
    pub sum: i64,
    /// How far above `sum` the total may lie: the deltas of transactions
    /// whose outcome the client never learned (orphans). Zero when every
    /// conversation got its answer.
    pub unknown: i64,
}

/// Checks the snapshots of all sites against the clients' ledger: an item's
/// value is the one at its highest version, every copy at that version holds
/// the same value, and the values add up to what the clients committed.
pub fn audit(sites: &[SiteSnapshot], expected: Expected) -> Result<(), String> {
    let mut latest: BTreeMap<&ItemId, (Version, i64)> = BTreeMap::new();
    for (site, snapshot) in sites.iter().enumerate() {
        for (item, value, version) in snapshot {
            let value = value
                .as_int()
                .ok_or_else(|| format!("site {site}: {item} holds non-integer {value:?}"))?;
            match latest.get_mut(item) {
                Some((seen, _)) if *seen > *version => {}
                Some((seen, agreed)) if *seen == *version => {
                    if *agreed != value {
                        return Err(format!(
                            "divergent replicas: {item} at {version:?} is {agreed} and {value}"
                        ));
                    }
                }
                _ => {
                    latest.insert(item, (*version, value));
                }
            }
        }
    }
    if latest.len() != expected.items {
        return Err(format!(
            "{} items found, {} expected",
            latest.len(),
            expected.items
        ));
    }
    let sum: i64 = latest.values().map(|(_, value)| value).sum();
    if sum < expected.sum || sum > expected.sum + expected.unknown {
        return Err(format!(
            "sum of values is {sum}, expected {}..={}",
            expected.sum,
            expected.sum + expected.unknown
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy(item: &str, value: i64, version: u64) -> (ItemId, Value, Version) {
        (ItemId::new(item), Value::Int(value), Version(version))
    }

    /// Two items on three sites; `a` was incremented twice (+3), and site 2
    /// missed the second write quorum of `a`.
    fn snapshots() -> Vec<SiteSnapshot> {
        vec![
            vec![copy("a", 103, 2), copy("b", 100, 0)],
            vec![copy("a", 103, 2), copy("b", 100, 0)],
            vec![copy("a", 101, 1), copy("b", 100, 0)],
        ]
    }

    const EXACT: Expected = Expected {
        items: 2,
        sum: 203,
        unknown: 0,
    };

    #[test]
    fn accepts_the_exact_sum_and_a_lagging_copy() {
        assert_eq!(audit(&snapshots(), EXACT), Ok(()));
    }

    #[test]
    fn rejects_off_by_one_in_either_direction() {
        for sum in [202, 204] {
            let err = audit(&snapshots(), Expected { sum, ..EXACT }).unwrap_err();
            assert!(err.contains("sum of values is 203"), "{err}");
        }
    }

    #[test]
    fn unknown_outcomes_widen_only_the_upper_bound() {
        let widened = Expected {
            sum: 202,
            unknown: 1,
            ..EXACT
        };
        assert_eq!(audit(&snapshots(), widened), Ok(()));
        let too_low = Expected {
            sum: 204,
            unknown: 1,
            ..EXACT
        };
        assert!(audit(&snapshots(), too_low).is_err());
    }

    #[test]
    fn rejects_replicas_that_disagree_at_the_highest_version() {
        let mut sites = snapshots();
        sites[1][0] = copy("a", 104, 2);
        let err = audit(&sites, EXACT).unwrap_err();
        assert!(err.contains("divergent replicas"), "{err}");
    }

    #[test]
    fn rejects_a_missing_item() {
        let err = audit(&snapshots(), Expected { items: 3, ..EXACT }).unwrap_err();
        assert!(err.contains("2 items found"), "{err}");
    }
}
