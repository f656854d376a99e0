//! The `mmap_sweep` experiment: the out-of-core CSR snapshot at scale
//! (ISSUE 8 tentpole part 3).
//!
//! Builds the same graph as `graph_scale` (`DIGG_SCALE_USERS` users at
//! ~10 watch edges per user), serialises it to the versioned
//! [`GraphMap`] snapshot, loads it back both ways (`open` = full
//! checksum verify, `open_trusted` = header-only, O(1) in the edge
//! count), and then proves the mmap-backed graph is a drop-in for the
//! in-memory one:
//!
//! * **bit-identity** — every friend and fan row of the [`GraphMap`]
//!   is compared slice-for-slice against the in-memory
//!   [`SocialGraph`];
//! * **sweep equality** — the batch story sweep runs over both
//!   backings at 1, 2, and 8 threads and all six `(in-network,
//!   influence)` checksum pairs must agree;
//! * **membership kernels** — the same probe workload is pushed
//!   through the scalar dispatch and the [`FanBitset`] probe and the
//!   hit counts must match, yielding the measured bitset-vs-scalar
//!   throughput row.
//!
//! Timings land as `scale` rows in `bench_summary.json`: snapshot
//! write and load rates, resident-set after the mapped sweep (the
//! out-of-core memory model's observable), sweep votes/sec over the
//! map, and the two membership-kernel rates. The `mmap_resident`
//! row abuses `per_sec` as a gauge — it carries `VmRSS` in kB, not a
//! rate — because the summary schema has exactly one free numeric
//! column; its `unit` says so.
//!
//! The artifact payload is timing-free (counts, equality verdicts,
//! checksums), like every other experiment.

use crate::registry::{record_scale, Artifact, ScaleRecord};
use crate::scale::{builder_from, scale_edge_list, story_batch, sweep_totals, ScaleParams};
use crate::timing::time_ms;
use des_core::par::worker_threads;
use social_graph::io::write_graph_map;
use social_graph::{membership, FanBitset, FanView, GraphMap, SocialGraph, UserId};
use std::path::PathBuf;

/// Where the snapshot file goes: `DIGG_RESULTS_DIR` when set (so CI
/// artifacts keep it), the system temp dir otherwise. Removed after
/// the run unless `DIGG_KEEP_GRAPH_MAP=1`.
fn map_path(users: usize) -> PathBuf {
    let dir = std::env::var("DIGG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    dir.join(format!("graph_scale_{users}.gmap"))
}

/// Resident set (`VmRSS`) of this process in kB, from
/// `/proc/self/status`; 0 where the proc filesystem is unavailable.
fn vm_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Slice-for-slice row comparison between the two backings — the
/// bit-identity verdict the experiment exists to enforce.
fn rows_identical(mem: &SocialGraph, map: &GraphMap) -> bool {
    if FanView::user_count(mem) != map.user_count() || FanView::edge_count(mem) != map.edge_count()
    {
        return false;
    }
    (0..map.user_count()).all(|i| {
        let u = UserId::from_index(i);
        FanView::friends(mem, u) == map.friends(u) && FanView::fans(mem, u) == map.fans(u)
    })
}

/// Push every (voter row, story voter list) pair through one
/// membership kernel and count hits. The story voter lists are
/// unsorted and ~100 long, so `probe` sees exactly the candidate
/// shape the incremental sweep's in-network test sees.
fn membership_hits<G, F>(graph: &G, stories: &[Vec<UserId>], mut probe: F) -> u64
where
    G: FanView,
    F: FnMut(&[UserId], &[UserId]) -> bool,
{
    let mut hits = 0u64;
    for voters in stories {
        for &v in voters {
            if probe(graph.friends(v), voters) {
                hits += 1;
            }
        }
    }
    hits
}

/// The timing-free `mmap_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MmapSweepPayload {
    /// Users in the graph.
    pub users: usize,
    /// Deduplicated edges in the built graph (= snapshot edges).
    pub edges: usize,
    /// Snapshot file size in bytes.
    pub file_bytes: u64,
    /// Every friend/fan row of the map equals the in-memory graph.
    pub rows_identical: bool,
    /// Sweep checksums agree across both backings at 1/2/8 threads.
    pub sweeps_identical: bool,
    /// Total in-network votes across the sweep batch (checksum).
    pub in_network_votes: u64,
    /// Total final influence across the sweep batch (checksum).
    pub final_influence: u64,
    /// Scalar and bitset membership kernels counted the same hits.
    pub membership_identical: bool,
    /// In-network probe hits over the membership workload (checksum).
    pub membership_hits: u64,
}

/// The `mmap_sweep` standalone experiment.
pub fn run_mmap_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let params = ScaleParams::from_env();
    let threads = worker_threads();

    let edges = scale_edge_list(seed, params.users, params.avg_degree, threads);
    let mem = builder_from(params.users, &edges).build_parallel(threads);
    drop(edges);
    let edge_count = FanView::edge_count(&mem);

    // Snapshot write + the two load paths.
    let path = map_path(params.users);
    let (write_res, write_ms) = time_ms(|| write_graph_map(&mem, &path));
    write_res.unwrap_or_else(|e| panic!("mmap_sweep: writing {} failed: {e}", path.display()));
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let (map, open_ms) = time_ms(|| GraphMap::open(&path));
    let map = map.unwrap_or_else(|e| panic!("mmap_sweep: verified open failed: {e}"));
    let (trusted, trusted_ms) = time_ms(|| GraphMap::open_trusted(&path));
    drop(trusted);

    // Bit-identity: the whole point of the format.
    let (identical, identity_ms) = time_ms(|| rows_identical(&mem, &map));

    // Sweep equality across backings and thread counts.
    let stories = story_batch(seed, &params);
    let total_votes = (params.stories * params.votes_per_story) as f64;
    let ((map_in, map_fi), map_sweep_ms) = time_ms(|| sweep_totals(&map, &stories, threads));
    let ((_, _), map_sweep1_ms) = time_ms(|| sweep_totals(&map, &stories, 1));
    let ((mem_in, mem_fi), mem_sweep_ms) = time_ms(|| sweep_totals(&mem, &stories, threads));
    let mut sweeps_identical = (map_in, map_fi) == (mem_in, mem_fi);
    for t in [1usize, 2, 8] {
        sweeps_identical &= sweep_totals(&map, &stories, t) == (map_in, map_fi);
        sweeps_identical &= sweep_totals(&mem, &stories, t) == (map_in, map_fi);
    }
    let rss_kb = vm_rss_kb();

    // Membership kernels over the mapped rows: scalar dispatch vs the
    // bitset probe, same workload, same hit count required.
    let (scalar_hits, scalar_ms) =
        time_ms(|| membership_hits(&map, &stories, membership::is_fan_of_any));
    let mut scratch = FanBitset::new(params.users);
    let (bitset_hits, bitset_ms) = time_ms(|| {
        membership_hits(&map, &stories, |row, cand| {
            membership::bitset_probe(row, cand, &mut scratch)
        })
    });
    let membership_identical = scalar_hits == bitset_hits;
    let probes = stories.iter().map(|s| s.len() as u64).sum::<u64>() as f64;

    let payload = MmapSweepPayload {
        users: params.users,
        edges: edge_count,
        file_bytes,
        rows_identical: identical,
        sweeps_identical,
        in_network_votes: map_in,
        final_influence: map_fi,
        membership_identical,
        membership_hits: scalar_hits,
    };

    record_scale(vec![
        ScaleRecord {
            name: "mmap_write".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: write_ms,
            per_sec: edge_count as f64 / (write_ms / 1e3).max(1e-9),
            unit: "edges",
            speedup_vs_serial: None,
        },
        ScaleRecord {
            name: "mmap_load".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: open_ms,
            per_sec: edge_count as f64 / (open_ms / 1e3).max(1e-9),
            unit: "edges",
            // Checksum-verified load over header-only (O(1)) load.
            speedup_vs_serial: Some(open_ms / trusted_ms.max(1e-9)),
        },
        ScaleRecord {
            name: "mmap_load_trusted".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: trusted_ms,
            per_sec: edge_count as f64 / (trusted_ms / 1e3).max(1e-9),
            unit: "edges",
            speedup_vs_serial: None,
        },
        ScaleRecord {
            // Gauge row: per_sec carries VmRSS after the mapped
            // sweeps, not a rate (see module docs).
            name: "mmap_resident".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: open_ms,
            per_sec: rss_kb as f64,
            unit: "kB",
            speedup_vs_serial: None,
        },
        ScaleRecord {
            name: "mmap_sweeps".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: map_sweep_ms,
            per_sec: total_votes / (map_sweep_ms / 1e3).max(1e-9),
            unit: "votes",
            speedup_vs_serial: Some(map_sweep1_ms / map_sweep_ms.max(1e-9)),
        },
        ScaleRecord {
            name: "membership_scalar".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: scalar_ms,
            per_sec: probes / (scalar_ms / 1e3).max(1e-9),
            unit: "probes",
            speedup_vs_serial: None,
        },
        ScaleRecord {
            name: "membership_bitset".into(),
            users: params.users,
            edges: edge_count,
            wall_ms: bitset_ms,
            per_sec: probes / (bitset_ms / 1e3).max(1e-9),
            unit: "probes",
            // Bitset-vs-scalar membership throughput ratio.
            speedup_vs_serial: Some(scalar_ms / bitset_ms.max(1e-9)),
        },
    ]);

    let mut rendered = format!(
        "Mmap CSR snapshot harness ({} users, {} edges, {} threads)\n",
        params.users, edge_count, threads
    );
    rendered.push_str(&format!(
        "snapshot: {file_bytes} bytes written in {write_ms:.1} ms ({:.2}M edges/sec)\n",
        edge_count as f64 / (write_ms / 1e3).max(1e-9) / 1e6
    ));
    rendered.push_str(&format!(
        "load: verified {open_ms:.1} ms, trusted {trusted_ms:.3} ms (O(1)), VmRSS {:.1} MB after mapped sweeps\n",
        rss_kb as f64 / 1024.0
    ));
    rendered.push_str(&format!(
        "rows vs in-memory graph: {} ({identity_ms:.1} ms full scan)\n",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    ));
    rendered.push_str(&format!(
        "sweeps: map {map_sweep_ms:.1} ms ({:.2}M votes/sec) vs mem {mem_sweep_ms:.1} ms ({:.2}M votes/sec), 1/2/8-thread checksums {}\n",
        total_votes / (map_sweep_ms / 1e3).max(1e-9) / 1e6,
        total_votes / (mem_sweep_ms / 1e3).max(1e-9) / 1e6,
        if sweeps_identical { "identical" } else { "DIVERGED" }
    ));
    rendered.push_str(&format!(
        "membership: scalar {scalar_ms:.1} ms vs bitset {bitset_ms:.1} ms ({:.2}x), {scalar_hits} hits {}\n",
        scalar_ms / bitset_ms.max(1e-9),
        if membership_identical { "identical" } else { "DIVERGED" }
    ));

    drop(map);
    if std::env::var("DIGG_KEEP_GRAPH_MAP").ok().as_deref() != Some("1") {
        std::fs::remove_file(&path).ok();
    }

    let ok = identical && sweeps_identical && membership_identical;
    (
        vec![Artifact::new("mmap_sweep", rendered, &payload).with_ok(ok)],
        params.stories,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_backing_is_bit_identical_and_sweep_equivalent() {
        let params = ScaleParams {
            users: 3_000,
            avg_degree: 6,
            stories: 30,
            votes_per_story: 25,
        };
        let edges = scale_edge_list(13, params.users, params.avg_degree, 2);
        let mem = builder_from(params.users, &edges).build();

        let path = std::env::temp_dir().join("digg-bench-mmap-sweep-test.gmap");
        write_graph_map(&mem, &path).unwrap();
        let map = GraphMap::open(&path).unwrap();
        assert!(rows_identical(&mem, &map));

        let stories = story_batch(13, &params);
        let want = sweep_totals(&mem, &stories, 1);
        for threads in [1usize, 2, 8] {
            assert_eq!(sweep_totals(&map, &stories, threads), want);
            assert_eq!(sweep_totals(&mem, &stories, threads), want);
        }

        let scalar = membership_hits(&map, &stories, membership::is_fan_of_any);
        let mut scratch = FanBitset::new(params.users);
        let bitset = membership_hits(&map, &stories, |row, cand| {
            membership::bitset_probe(row, cand, &mut scratch)
        });
        assert_eq!(scalar, bitset);

        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rows_identical_rejects_a_different_graph() {
        let edges = scale_edge_list(13, 1_000, 5, 2);
        let mem = builder_from(1_000, &edges).build();
        let other = builder_from(1_000, &edges[..edges.len() - 1]).build();

        let path = std::env::temp_dir().join("digg-bench-mmap-reject-test.gmap");
        write_graph_map(&other, &path).unwrap();
        let map = GraphMap::open(&path).unwrap();
        assert!(!rows_identical(&mem, &map));
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vm_rss_reads_a_positive_resident_set_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(vm_rss_kb() > 0);
        }
    }
}
