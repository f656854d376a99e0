//! Fig. 4 — "Distribution of the number of in-network votes stories
//! receive vs how interesting they are."
//!
//! For each value of the early in-network vote count (within the first
//! 6, 10 and 20 post-submitter votes), the paper plots the median and
//! trimmed spread of the final vote counts, showing "a clear inverse
//! relationship between interestingness and the fraction of in-network
//! votes … already visible … within the first 6-10 votes".

use crate::features::has_enough_votes;
use crate::incremental::IncrementalSweep;
use crate::story_metrics::sweep_map;
use des_core::par::worker_threads;
use digg_data::DiggDataset;
use digg_stats::binstats::{GroupRow, GroupedSummary};
use digg_stats::correlation::spearman;
use serde::{Deserialize, Serialize};

/// One panel (one observation window).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Panel {
    /// Window size (6, 10 or 20).
    pub window: usize,
    /// Stories contributing (those with at least `window`
    /// post-submitter votes and a final count).
    pub stories: usize,
    /// Per-in-network-count rows: key, count, median, trimmed lo/hi.
    pub rows: Vec<PanelRow>,
    /// Spearman correlation between the in-network count and the
    /// final votes (paper: strongly negative).
    pub spearman: Option<f64>,
}

/// Serializable clone of a [`GroupRow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelRow {
    /// In-network vote count.
    pub in_network: u64,
    /// Stories at this count.
    pub count: usize,
    /// Median final votes.
    pub median: f64,
    /// Trimmed lower whisker.
    pub lo: f64,
    /// Trimmed upper whisker.
    pub hi: f64,
}

impl From<GroupRow> for PanelRow {
    fn from(r: GroupRow) -> PanelRow {
        PanelRow {
            in_network: r.key,
            count: r.count,
            median: r.median,
            lo: r.lo,
            hi: r.hi,
        }
    }
}

/// The full figure: panels for windows 6, 10 and 20.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// One panel per window.
    pub panels: Vec<Panel>,
}

/// The windows of the paper's three panels.
const WINDOWS: [usize; 3] = [6, 10, 20];

/// Run one panel. Single-window callers (e.g. the robustness sweep)
/// use this; [`run`] computes all three windows from one sweep per
/// story instead. Serial, with one engine reused across stories, and
/// each story swept in full — an independent reference for [`run_with`]'s
/// truncated sweeps.
pub fn run_panel(ds: &DiggDataset, window: usize) -> Panel {
    let g = &ds.network;
    let mut sweep = IncrementalSweep::new(g);
    let mut grouped = GroupedSummary::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in &ds.front_page {
        if !has_enough_votes(&r.voters, window) {
            continue;
        }
        let Some(fin) = r.final_votes else { continue };
        let v = sweep
            .sweep_story(g, &r.voters)
            .in_network_count_within(window) as u64;
        grouped.add(v, f64::from(fin));
        xs.push(v as f64);
        ys.push(f64::from(fin));
    }
    Panel {
        window,
        stories: xs.len(),
        rows: grouped.rows().into_iter().map(PanelRow::from).collect(),
        spearman: spearman(&xs, &ys),
    }
}

/// Run all three panels (6, 10, 20) — the paper's figure.
pub fn run(ds: &DiggDataset) -> Fig4Result {
    run_with(ds, worker_threads())
}

/// [`run`] with an explicit worker-thread count: one sweep per story
/// supplies every window's in-network count.
pub fn run_with(ds: &DiggDataset, threads: usize) -> Fig4Result {
    let g = &ds.network;
    let per_story = sweep_map(g, &ds.front_page, threads, |sw, r| {
        // The widest window is 20 post-submitter votes, so sweeping
        // voters[..21] decides every panel.
        let s = sw.sweep_story(g, &r.voters[..r.voters.len().min(21)]);
        (
            r.voters.len(),
            WINDOWS.map(|w| s.in_network_count_within(w) as u64),
            r.final_votes,
        )
    });
    let panels = WINDOWS
        .iter()
        .enumerate()
        .map(|(i, &window)| {
            let mut grouped = GroupedSummary::new();
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for &(voters, counts, fin) in &per_story {
                // has_enough_votes: more voters than the window
                // (submitter included in the list, not the window).
                if voters <= window {
                    continue;
                }
                let Some(fin) = fin else { continue };
                grouped.add(counts[i], f64::from(fin));
                xs.push(counts[i] as f64);
                ys.push(f64::from(fin));
            }
            Panel {
                window,
                stories: xs.len(),
                rows: grouped.rows().into_iter().map(PanelRow::from).collect(),
                spearman: spearman(&xs, &ys),
            }
        })
        .collect();
    Fig4Result { panels }
}

impl Fig4Result {
    /// Render all panels as aligned tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.panels {
            out.push_str(&format!(
                "Fig 4 (after {} votes, n={} stories, spearman {})\n",
                p.window,
                p.stories,
                p.spearman
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "n/a".into())
            ));
            out.push_str("  in-network  n      median   [trimmed range]\n");
            for r in &p.rows {
                out.push_str(&format!(
                    "  {:>10}  {:<5}  {:>7.0}  [{:>6.0}, {:>6.0}]\n",
                    r.in_network, r.count, r.median, r.lo, r.hi
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digg_data::{SampleSource, StoryRecord};
    use digg_sim::{Minute, StoryId};
    use social_graph::{GraphBuilder, UserId};

    /// Synthetic sample with a built-in inverse relationship.
    fn ds() -> DiggDataset {
        let mut b = GraphBuilder::new(500);
        for f in 1..=30 {
            b.add_watch(UserId(f), UserId(0));
        }
        let network = b.build();
        let mut front_page = Vec::new();
        for i in 0..8u32 {
            // i in-network votes among the first 10; final votes
            // decrease with i. 21 post-submitter votes so every
            // window (6, 10, 20) is populated.
            let mut voters = vec![0u32];
            voters.extend(1..=i); // fans (in-network)
            voters.extend(200 + 30 * i..200 + 30 * i + (21 - i)); // outsiders
            front_page.push(StoryRecord {
                story: StoryId(i),
                submitter: UserId(0),
                submitted_at: Minute(0),
                voters: voters.into_iter().map(UserId).collect(),
                source: SampleSource::FrontPage,
                final_votes: Some(2000 - 200 * i),
            });
        }
        DiggDataset {
            scraped_at: Minute(10),
            front_page,
            upcoming: vec![],
            network,
            top_users: vec![UserId(0)],
        }
    }

    #[test]
    fn panels_group_by_in_network_count() {
        let r = run(&ds());
        assert_eq!(r.panels.len(), 3);
        let p10 = &r.panels[1];
        assert_eq!(p10.window, 10);
        assert_eq!(p10.stories, 8);
        // Eight distinct in-network counts -> eight rows.
        assert_eq!(p10.rows.len(), 8);
        for (i, row) in p10.rows.iter().enumerate() {
            assert_eq!(row.in_network, i as u64);
            assert_eq!(row.median, 2000.0 - 200.0 * i as f64);
        }
    }

    #[test]
    fn inverse_relationship_detected() {
        let r = run(&ds());
        for p in &r.panels {
            let rho = p.spearman.expect("correlation defined");
            assert!(rho < -0.9, "window {} rho {}", p.window, rho);
        }
    }

    #[test]
    fn short_stories_are_excluded() {
        let mut d = ds();
        // A story with only 3 post-submitter votes joins only the
        // 6-window if it has >= 6... it has 3, so it joins none.
        d.front_page.push(StoryRecord {
            story: StoryId(99),
            submitter: UserId(0),
            submitted_at: Minute(0),
            voters: vec![UserId(0), UserId(1), UserId(2), UserId(3)],
            source: SampleSource::FrontPage,
            final_votes: Some(50),
        });
        let r = run(&d);
        assert_eq!(r.panels[0].stories, 8);
        assert_eq!(r.panels[1].stories, 8);
        assert_eq!(r.panels[2].stories, 8);
    }

    #[test]
    fn run_matches_per_panel_runs_at_any_thread_count() {
        let d = ds();
        for threads in [1, 2, 8] {
            let r = run_with(&d, threads);
            for (p, &w) in r.panels.iter().zip(WINDOWS.iter()) {
                let single = run_panel(&d, w);
                assert_eq!(p.window, single.window);
                assert_eq!(p.stories, single.stories);
                assert_eq!(p.rows, single.rows);
                assert_eq!(p.spearman, single.spearman);
            }
        }
    }

    #[test]
    fn render_mentions_all_windows() {
        let text = run(&ds()).render();
        for w in [6, 10, 20] {
            assert!(text.contains(&format!("after {w} votes")));
        }
    }
}
