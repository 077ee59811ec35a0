//! Distributed extent locks over file stripes.
//!
//! Lustre's DLM grants extent locks per client; when two clients write
//! into the same stripe of a shared file, ownership ping-pongs: each
//! write pays a revocation round-trip, and a partial-stripe write under a
//! foreign lock implies reading the stripe back first (read-modify-write).
//! "The Lustre file system prefers aligned offsets when writing to a
//! shared file" — the GCRM alignment optimization exists precisely to
//! eliminate these shared boundary stripes.

use crate::NodeId;
use pio_des::FxHashMap;

/// What a write into a stripe costs in lock terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// This node already owns the stripe lock — free.
    Owned,
    /// Nobody held the stripe — a fresh grant (cheap, counted but free of
    /// revocation cost).
    Granted,
    /// Another node held the stripe: revocation round-trip required; if
    /// the write is partial the stripe must be read back (RMW).
    Conflict {
        /// Whether a read-modify-write of the stripe is needed.
        rmw: bool,
    },
}

/// Aggregate lock-table counters for a run.
///
/// Replaces the old positional `(grants, conflicts, rmws)` tuple so call
/// sites name what they read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Fresh extent-lock grants (nobody held the stripe).
    pub acquired: u64,
    /// Acquisitions that hit a foreign owner — each costs a revocation
    /// round-trip through the DLM.
    pub contended: u64,
    /// Contended acquisitions whose partial-stripe write also had to read
    /// the stripe back (read-modify-write) under the revoked lock — the
    /// expensive subset of `contended`.
    pub revoked: u64,
}

/// Stripes per lock-table page, as a power of two.
const PAGE_SHIFT: u32 = 12;
/// Stripes per lock-table page (4,096: 16 KiB of owners).
const PAGE_STRIPES: usize = 1 << PAGE_SHIFT;
/// Owner sentinel of a stripe nobody holds.
const UNHELD: NodeId = NodeId::MAX;

/// Owners of `PAGE_STRIPES` consecutive stripes of one file.
type Page = [NodeId; PAGE_STRIPES];

/// Lock table for all shared files.
///
/// Owners live in flat pages of [`PAGE_STRIPES`] stripes, indexed by
/// stripe within the page and allocated on a file's first write into
/// that stripe range. A shared file written end to end costs four bytes
/// per stripe; a sparse one costs one page per touched range, however
/// high its stripe numbers run. The page directory is keyed by
/// `(file, page)` and stays small (a few hundred entries for a
/// 600,000-stripe file), so a grant is one probe of a cache-resident
/// table plus one array write.
#[derive(Debug, Default)]
pub struct LockMap {
    /// (file, stripe / PAGE_STRIPES) → owners of that stripe range.
    pages: FxHashMap<(u32, u64), Box<Page>>,
    /// Stripes currently held, over all files.
    held: usize,
    grants: u64,
    conflicts: u64,
    rmws: u64,
}

impl LockMap {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a write by `node` covering `stripe` of `file`;
    /// `full_stripe` is whether the write covers the stripe completely.
    pub fn write_stripe(
        &mut self,
        file: u32,
        stripe: u64,
        node: NodeId,
        full_stripe: bool,
    ) -> LockOutcome {
        debug_assert_ne!(node, UNHELD, "node id reserved for unheld stripes");
        let page = self
            .pages
            .entry((file, stripe >> PAGE_SHIFT))
            .or_insert_with(|| Box::new([UNHELD; PAGE_STRIPES]));
        let slot = &mut page[stripe as usize & (PAGE_STRIPES - 1)];
        let owner = std::mem::replace(slot, node);
        if owner == UNHELD {
            self.held += 1;
            self.grants += 1;
            LockOutcome::Granted
        } else if owner == node {
            LockOutcome::Owned
        } else {
            self.conflicts += 1;
            let rmw = !full_stripe;
            if rmw {
                self.rmws += 1;
            }
            LockOutcome::Conflict { rmw }
        }
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquired: self.grants,
            contended: self.conflicts,
            revoked: self.rmws,
        }
    }

    /// Total fresh grants.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total cross-node conflicts.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Conflicts that also required read-modify-write.
    pub fn rmws(&self) -> u64 {
        self.rmws
    }

    /// Drop all locks of a file (close/unlink), freeing its pages.
    pub fn drop_file(&mut self, file: u32) {
        let mut released = 0;
        self.pages.retain(|&(f, _), page| {
            if f == file {
                released += page.iter().filter(|&&o| o != UNHELD).count();
            }
            f != file
        });
        self.held -= released;
    }

    /// Stripes currently locked.
    pub fn held(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_writer_gets_grant_then_owns() {
        let mut l = LockMap::new();
        assert_eq!(l.write_stripe(1, 0, 10, true), LockOutcome::Granted);
        assert_eq!(l.write_stripe(1, 0, 10, true), LockOutcome::Owned);
        assert_eq!(l.grants(), 1);
        assert_eq!(l.conflicts(), 0);
    }

    #[test]
    fn cross_node_write_conflicts() {
        let mut l = LockMap::new();
        l.write_stripe(1, 5, 10, true);
        assert_eq!(
            l.write_stripe(1, 5, 11, true),
            LockOutcome::Conflict { rmw: false }
        );
        // Ownership transferred: node 11 now owns.
        assert_eq!(l.write_stripe(1, 5, 11, true), LockOutcome::Owned);
        // Ping-pong back.
        assert_eq!(
            l.write_stripe(1, 5, 10, false),
            LockOutcome::Conflict { rmw: true }
        );
        assert_eq!(l.conflicts(), 2);
        assert_eq!(l.rmws(), 1);
    }

    #[test]
    fn partial_stripe_conflict_requires_rmw() {
        let mut l = LockMap::new();
        l.write_stripe(2, 7, 1, false);
        let out = l.write_stripe(2, 7, 2, false);
        assert_eq!(out, LockOutcome::Conflict { rmw: true });
    }

    #[test]
    fn files_and_stripes_are_independent() {
        let mut l = LockMap::new();
        l.write_stripe(1, 0, 10, true);
        assert_eq!(l.write_stripe(2, 0, 11, true), LockOutcome::Granted);
        assert_eq!(l.write_stripe(1, 1, 11, true), LockOutcome::Granted);
        assert_eq!(l.conflicts(), 0);
        assert_eq!(l.held(), 3);
    }

    #[test]
    fn drop_file_releases_locks() {
        let mut l = LockMap::new();
        l.write_stripe(1, 0, 10, true);
        l.write_stripe(1, 1, 10, true);
        l.write_stripe(2, 0, 10, true);
        l.drop_file(1);
        assert_eq!(l.held(), 1);
        // Re-acquiring file 1 stripes is a fresh grant, not a conflict.
        assert_eq!(l.write_stripe(1, 0, 11, true), LockOutcome::Granted);
    }

    #[test]
    fn aligned_writers_never_conflict() {
        // Each of 8 nodes writes its own stripe range — the aligned GCRM
        // pattern: zero conflicts by construction.
        let mut l = LockMap::new();
        for node in 0..8u32 {
            for s in 0..4u64 {
                let stripe = node as u64 * 4 + s;
                assert_eq!(l.write_stripe(1, stripe, node, true), LockOutcome::Granted);
            }
        }
        assert_eq!(l.conflicts(), 0);
    }

    #[test]
    fn unaligned_boundaries_conflict_between_neighbours() {
        // Each writer's range spills one partial stripe into the next
        // writer's first stripe — the unaligned GCRM pattern.
        let mut l = LockMap::new();
        let mut conflicts = 0;
        for node in 0..8u32 {
            let first = node as u64 * 3; // overlaps previous node's last
            for s in first..first + 4 {
                let full = s != first + 3; // last stripe partial
                if matches!(
                    l.write_stripe(1, s, node, full),
                    LockOutcome::Conflict { .. }
                ) {
                    conflicts += 1;
                }
            }
        }
        assert!(conflicts >= 7, "neighbour boundary stripes must conflict");
    }

    #[test]
    fn pages_are_allocated_per_touched_range() {
        let mut l = LockMap::new();
        l.write_stripe(1, 0, 3, true);
        l.write_stripe(1, PAGE_STRIPES as u64 - 1, 3, true);
        assert_eq!(l.pages.len(), 1, "one page covers stripes 0..PAGE_STRIPES");
        l.write_stripe(1, PAGE_STRIPES as u64, 3, true);
        l.write_stripe(1, 1 << 44, 3, true);
        assert_eq!(l.pages.len(), 3, "a high sparse stripe costs one page");
        assert_eq!(l.held(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The map the paged table replaced: one `(file, stripe)` key per
    /// held stripe, with the same counter semantics.
    #[derive(Default)]
    struct Reference {
        owners: HashMap<(u32, u64), NodeId>,
        grants: u64,
        conflicts: u64,
        rmws: u64,
    }

    impl Reference {
        fn write_stripe(
            &mut self,
            file: u32,
            stripe: u64,
            node: NodeId,
            full: bool,
        ) -> LockOutcome {
            match self.owners.insert((file, stripe), node) {
                None => {
                    self.grants += 1;
                    LockOutcome::Granted
                }
                Some(owner) if owner == node => LockOutcome::Owned,
                Some(_) => {
                    self.conflicts += 1;
                    if !full {
                        self.rmws += 1;
                    }
                    LockOutcome::Conflict { rmw: !full }
                }
            }
        }

        fn drop_file(&mut self, file: u32) {
            self.owners.retain(|&(f, _), _| f != file);
        }
    }

    /// A stripe from one of four regimes: a few hot stripes (repeat
    /// owners and conflicts), stripes straddling the first page
    /// boundary, a dense multi-page range, and very sparse stripes far
    /// above any written range.
    fn stripe_of(class: u32, raw: u64) -> u64 {
        let page = PAGE_STRIPES as u64;
        match class {
            0 => raw % 16,
            1 => page - 4 + raw % 8,
            2 => raw % (3 * page),
            _ => (1 << 40) + (raw % 4) * (1 << 33) + (raw >> 8) % 3,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn paged_table_matches_hash_map_reference(
            ops in proptest::collection::vec(
                (0u32..24, 0u32..3, 0u32..4, 0u64..1_000_000, 0u32..5, 0u32..2),
                1..400,
            ),
        ) {
            let mut paged = LockMap::new();
            let mut reference = Reference::default();
            for (op, file, class, raw, node, full) in ops {
                if op == 0 {
                    paged.drop_file(file);
                    reference.drop_file(file);
                } else {
                    let stripe = stripe_of(class, raw);
                    let full = full == 1;
                    prop_assert_eq!(
                        paged.write_stripe(file, stripe, node, full),
                        reference.write_stripe(file, stripe, node, full),
                        "file {} stripe {} node {}", file, stripe, node
                    );
                }
                prop_assert_eq!(paged.held(), reference.owners.len());
                prop_assert_eq!(paged.grants(), reference.grants);
                prop_assert_eq!(paged.conflicts(), reference.conflicts);
                prop_assert_eq!(paged.rmws(), reference.rmws);
            }
        }
    }
}
