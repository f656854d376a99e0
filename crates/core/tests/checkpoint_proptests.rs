//! Property tests for the analytics checkpoint contract: an
//! [`IncrementalSweep`] snapshotted after an arbitrary vote prefix and
//! restored must finish the story bit-identically to an uninterrupted
//! machine — including when the continuation runs inside a
//! `des_core::par_map` fan-out at 1, 2 and 8 threads — and damaged
//! containers are typed errors, never panics.

use digg_core::predictor::fig5_predictor;
use digg_core::IncrementalSweep;
use digg_snapshot::{Restore, Snapshot, SnapshotError, FORMAT_VERSION, MAGIC};
use proptest::prelude::*;
use social_graph::{GraphBuilder, SocialGraph, UserId};
use std::collections::HashSet;

const N: u32 = 24;

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    prop::collection::vec((0u32..N, 0u32..N), 0..150).prop_map(|edges| {
        let mut b = GraphBuilder::new(N as usize);
        for (a, c) in edges {
            b.add_watch(UserId(a), UserId(c));
        }
        b.build()
    })
}

/// Distinct voter lists (submitter first).
fn voters_strategy() -> impl Strategy<Value = Vec<UserId>> {
    prop::collection::vec(0u32..N, 1..20).prop_map(|raw| {
        let mut seen = HashSet::new();
        raw.into_iter()
            .filter(|u| seen.insert(*u))
            .map(UserId)
            .collect()
    })
}

proptest! {
    /// Snapshot after an arbitrary prefix, restore, apply the rest:
    /// final sweep series, features, verdict, and snapshot bytes all
    /// match the uninterrupted machine.
    #[test]
    fn restore_at_any_prefix_finishes_identically(
        g in graph_strategy(),
        voters in voters_strategy(),
        cut_pick in any::<usize>(),
    ) {
        let cut = cut_pick % (voters.len() + 1);
        let predictor = fig5_predictor();

        let mut straight = IncrementalSweep::new(&g);
        straight.begin(&g);
        for v in &voters {
            straight.apply_vote(&g, *v);
        }

        let mut first = IncrementalSweep::new(&g);
        first.begin(&g);
        for v in &voters[..cut] {
            first.apply_vote(&g, *v);
        }
        let bytes = first.snapshot();
        let mut resumed = IncrementalSweep::restore(&bytes, ()).map_err(|e| format!("{e:?}"))?;
        prop_assert_eq!(resumed.snapshot(), bytes, "re-snapshot must be byte-stable");
        for v in &voters[cut..] {
            // The restored machine must answer per-vote queries
            // identically too, not just converge at the end.
            prop_assert_eq!(resumed.apply_vote(&g, *v), first.apply_vote(&g, *v));
        }

        prop_assert_eq!(resumed.flags(), straight.flags());
        prop_assert_eq!(resumed.cascade(), straight.cascade());
        prop_assert_eq!(resumed.influence(), straight.influence());
        prop_assert_eq!(resumed.features(), straight.features());
        prop_assert_eq!(resumed.verdict(&predictor), straight.verdict(&predictor));
        prop_assert_eq!(resumed.snapshot(), straight.snapshot());
    }

    /// Continuing from a snapshot inside a parallel fan-out is
    /// thread-count invariant: every worker at 1, 2 and 8 threads
    /// restores the same bytes and produces the same final snapshot as
    /// a serial continuation.
    #[test]
    fn parallel_restore_is_thread_count_invariant(
        g in graph_strategy(),
        voters in voters_strategy(),
        cut_pick in any::<usize>(),
    ) {
        let cut = cut_pick % (voters.len() + 1);
        let mut first = IncrementalSweep::new(&g);
        first.begin(&g);
        for v in &voters[..cut] {
            first.apply_vote(&g, *v);
        }
        let bytes = first.snapshot();

        let mut serial = IncrementalSweep::restore(&bytes, ()).map_err(|e| format!("{e:?}"))?;
        for v in &voters[cut..] {
            serial.apply_vote(&g, *v);
        }
        let want = serial.snapshot();

        let lanes: Vec<usize> = (0..8).collect();
        for threads in [1usize, 2, 8] {
            let outs = des_core::par_map(&lanes, threads, |_| {
                let mut m = IncrementalSweep::restore(&bytes, ()).expect("restore in worker");
                for v in &voters[cut..] {
                    m.apply_vote(&g, *v);
                }
                m.snapshot()
            });
            for out in outs {
                prop_assert_eq!(&out, &want, "{} threads", threads);
            }
        }
    }

    /// Any single flipped byte is a typed error from restore — never a
    /// panic — and a version-patched container reports the mismatch.
    #[test]
    fn damaged_sweep_snapshot_is_a_typed_error(
        g in graph_strategy(),
        voters in voters_strategy(),
        at_pick in any::<usize>(),
        mask in 1..=255u8,
        found_raw in any::<u32>(),
    ) {
        let mut m = IncrementalSweep::new(&g);
        m.begin(&g);
        for v in &voters {
            m.apply_vote(&g, *v);
        }
        let bytes = m.snapshot();

        let mut corrupt = bytes.clone();
        let at = at_pick % corrupt.len();
        corrupt[at] ^= mask;
        prop_assert!(IncrementalSweep::restore(&corrupt, ()).is_err());

        let found = if found_raw == FORMAT_VERSION { FORMAT_VERSION ^ 1 } else { found_raw };
        let mut patched = bytes.clone();
        patched[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&found.to_le_bytes());
        match IncrementalSweep::restore(&patched, ()) {
            Err(SnapshotError::VersionMismatch { found: f, expected }) => {
                prop_assert_eq!(f, found);
                prop_assert_eq!(expected, FORMAT_VERSION);
            }
            other => {
                prop_assert!(false, "expected VersionMismatch, got {:?}", other.err());
            }
        }
    }
}
