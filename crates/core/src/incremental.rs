//! The story-analytics engine: one vote-apply state machine for both
//! the batch and the per-vote paths.
//!
//! Every artifact in the paper reduces to one primitive: walk a
//! story's chronological voter list and track (a) which votes are
//! *in-network* — the voter was already reachable through the Friends
//! interface — and (b) the *influence*, the number of users who can
//! currently see the story through that interface. [`IncrementalSweep`]
//! keeps both, plus the cumulative cascade and everything the
//! `(v_n, fans1)` feature vector needs, current after each
//! [`apply_vote`](IncrementalSweep::apply_vote). A batch sweep of a
//! finished voter list is [`sweep_story`](IncrementalSweep::sweep_story):
//! `begin` plus one `apply_vote` per voter, so the batch and live
//! paths cannot drift.
//!
//! The identities that make one pass sufficient, with `reached` = the
//! union of the fans of voters so far and `voted` = the voters so far:
//!
//! * vote `k` (k ≥ 1) is in-network  ⇔  `voters[k] ∈ reached` just
//!   before it is processed (being a fan of a prior voter *is* being
//!   in that union);
//! * influence after `k + 1` voters = `|reached \ voted|`, which a
//!   counter maintains incrementally: `+1` for each newly reached
//!   non-voter, `-1` when a reached user votes.
//!
//! Costs and guarantees:
//!
//! * applying a vote is **O(fan-degree of the new voter)** — one O(1)
//!   membership probe plus one streamed CSR fan row; nothing already
//!   absorbed is revisited;
//! * the batch path gathers before it absorbs: `sweep_story` loads the
//!   fan rows of a fixed block of voters in one read-only pass, then
//!   applies the block, so the rows' cache misses overlap instead of
//!   stalling one vote each (about 3x fewer ns per vote on a
//!   1M-user graph, DESIGN §16.2); `apply_vote` alone has no later
//!   voter to gather and is unchanged;
//! * after `k` applied votes the series, the [`StoryFeatures`] and the
//!   C4.5 verdict are **byte-identical** to a fresh
//!   [`sweep_story`](IncrementalSweep::sweep_story) of the `k`-voter
//!   prefix (a proptest pins it);
//! * scratch is epoch-stamped, so `begin` is O(1) and one worker of
//!   [`sweep_map`] can stream thousands of stories through one
//!   instance with zero per-story allocation.

use crate::features::StoryFeatures;
use crate::predictor::InterestingnessPredictor;
use social_graph::{FanBitset, FanView, UserId};

/// The story-analytics state machine. Construct once (or once per
/// worker), then either call [`begin`](IncrementalSweep::begin) per
/// story and [`apply_vote`](IncrementalSweep::apply_vote) per arriving
/// vote, or [`sweep_story`](IncrementalSweep::sweep_story) per
/// finished voter list. The series accessors read the applied prefix;
/// copy out what must outlive the next story.
///
/// # Examples
///
/// ```
/// use digg_core::incremental::IncrementalSweep;
/// use social_graph::{GraphBuilder, UserId};
///
/// // User 1 is a fan of user 0.
/// let mut b = GraphBuilder::new(3);
/// b.add_watch(UserId(1), UserId(0));
/// let g = b.build();
///
/// let mut incr = IncrementalSweep::new(&g);
/// incr.begin(&g);
/// let submit = incr.apply_vote(&g, UserId(0));
/// assert_eq!(submit.in_network, None); // the submitter has no prior
/// assert_eq!(submit.influence, 1); // fan 1 can now see the story
/// let vote = incr.apply_vote(&g, UserId(1));
/// assert_eq!(vote.in_network, Some(true));
/// assert_eq!(vote.cascade, 1);
///
/// // The batch path: 1 votes as a fan (in-network), then the
/// // unconnected 2 (independent discovery).
/// let s = incr.sweep_story(&g, &[UserId(0), UserId(1), UserId(2)]);
/// assert_eq!(s.flags(), &[true, false]);
/// assert_eq!(s.in_network_count_within(10), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSweep {
    /// Users reachable through the Friends interface: the fan-union of
    /// everyone who has voted so far.
    reached: FanBitset,
    /// Users who have voted so far.
    voted: FanBitset,
    /// Per post-submitter vote, whether it was in-network.
    flags: Vec<bool>,
    /// Structure-of-arrays output columns: `u32` per entry, half the
    /// memory traffic of `usize` on the per-vote push path (values are
    /// bounded by the u32 user count / vote count). Cascade after each
    /// post-submitter vote…
    cascade_series: Vec<u32>,
    /// …and influence after each vote (submitter included).
    influence_series: Vec<u32>,
    /// Current influence: `|reached \ voted|`, in the column unit.
    audience: u32,
    /// Current cascade: in-network votes so far (submitter excluded).
    cascade: u32,
    /// Fan count of the first applied voter (the paper's `fans1`),
    /// captured when the submitter's vote is applied.
    fans1: usize,
    /// Votes applied since the last `begin` (submitter included).
    votes_applied: usize,
}

/// What one [`IncrementalSweep::apply_vote`] changed — the derived
/// quantities current *after* this vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteApplied {
    /// 0-based position of this vote in the story (0 = submitter).
    pub position: usize,
    /// Was the vote in-network (the voter a fan of a prior voter)?
    /// `None` for the submitter, who has no prior voters.
    pub in_network: Option<bool>,
    /// Cascade size after this vote.
    pub cascade: usize,
    /// Influence (Friends-interface audience) after this vote.
    pub influence: usize,
}

impl IncrementalSweep {
    /// A state machine sized for `graph`.
    pub fn new<G: FanView>(graph: &G) -> IncrementalSweep {
        let n = graph.user_count();
        IncrementalSweep {
            reached: FanBitset::new(n),
            voted: FanBitset::new(n),
            flags: Vec::new(),
            cascade_series: Vec::new(),
            influence_series: Vec::new(),
            audience: 0,
            cascade: 0,
            fans1: 0,
            votes_applied: 0,
        }
    }

    /// Start a new story: O(1) scratch reset (plus capacity growth if
    /// `graph` gained users since the last story).
    pub fn begin<G: FanView>(&mut self, graph: &G) {
        self.reached.ensure_capacity(graph.user_count());
        self.voted.ensure_capacity(graph.user_count());
        self.reached.clear();
        self.voted.clear();
        self.flags.clear();
        self.cascade_series.clear();
        self.influence_series.clear();
        self.audience = 0;
        self.cascade = 0;
        self.fans1 = 0;
        self.votes_applied = 0;
    }

    /// Pre-size the output series for `n` more votes (perf only; the
    /// series grow on demand regardless).
    pub fn reserve_votes(&mut self, n: usize) {
        self.flags.reserve(n.saturating_sub(1));
        self.cascade_series.reserve(n.saturating_sub(1));
        self.influence_series.reserve(n);
    }

    /// Sweep one finished story's chronological voter list (submitter
    /// first): [`begin`](IncrementalSweep::begin),
    /// [`reserve_votes`](IncrementalSweep::reserve_votes), then one
    /// [`apply_vote`](IncrementalSweep::apply_vote) per voter.
    /// O(Σ fan-degree of voters); no allocation once the output columns
    /// have grown to the story size. Returns `self` for the accessors.
    ///
    /// The voters are applied in fixed blocks (64 voters); before
    /// each block, one read-only pass loads every voter's fan row so
    /// that the rows' cache misses overlap instead of each vote
    /// waiting out its own. The pass changes no state, so the result
    /// is exactly the `apply_vote` walk's; an out-of-range voter
    /// panics in it, before the earlier votes of its block are
    /// applied.
    pub fn sweep_story<G: FanView>(&mut self, graph: &G, voters: &[UserId]) -> &Self {
        self.begin(graph);
        self.reserve_votes(voters.len());
        for block in voters.chunks(GATHER_BLOCK) {
            gather_fan_rows(graph, block);
            for &v in block {
                self.apply_vote(graph, v);
            }
        }
        self
    }

    /// Apply the next chronological vote. O(fan-degree of `v`): one
    /// membership probe against the reached set, then `v`'s CSR fan
    /// row is streamed into it. Votes by the same user twice — absent
    /// from real data, possible in randomized tests — still count as
    /// in-network arrivals but change neither audience nor the voter
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for `graph` (ids come from the
    /// graph the story was scraped against).
    // digg-lint: hot-path
    pub fn apply_vote<G: FanView>(&mut self, graph: &G, v: UserId) -> VoteApplied {
        let position = self.votes_applied;
        let mut in_network = None;
        if position > 0 {
            let hit = self.reached.contains(v);
            if hit {
                self.cascade += 1;
            }
            // digg-lint: allow(hot-path-alloc) — amortized push into the per-story output column; one story's votes stay well under a doubling
            self.flags.push(hit);
            // digg-lint: allow(hot-path-alloc) — amortized push into the per-story output column; one story's votes stay well under a doubling
            self.cascade_series.push(self.cascade);
            in_network = Some(hit);
        } else {
            self.fans1 = graph.fan_count(v);
        }
        // `v` stops being audience the moment it votes.
        if self.voted.insert(v) && self.reached.contains(v) {
            self.audience -= 1;
        }
        // Fans reached for the first time join the audience unless
        // they already voted.
        let mut audience = self.audience;
        for &f in graph.fans(v) {
            if self.reached.insert(f) && !self.voted.contains(f) {
                audience += 1;
            }
        }
        self.audience = audience;
        // digg-lint: allow(hot-path-alloc) — amortized push into the per-story output column; one story's votes stay well under a doubling
        self.influence_series.push(audience);
        self.votes_applied += 1;
        VoteApplied {
            position,
            in_network,
            cascade: self.cascade as usize,
            influence: audience as usize,
        }
    }

    /// Votes applied since the last [`begin`](IncrementalSweep::begin)
    /// (submitter included).
    pub fn votes_applied(&self) -> usize {
        self.votes_applied
    }

    /// Per post-submitter vote, whether it was in-network; aligned
    /// with `voters[1..]`.
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Cumulative in-network counts; entry `k` is the cascade size
    /// after `k + 1` post-submitter votes. `u32` entries — the SoA
    /// column layout; widen at the consumer when a `usize` is needed.
    pub fn cascade(&self) -> &[u32] {
        &self.cascade_series
    }

    /// Influence after each voter; entry `k` is the Friends-interface
    /// audience after `k + 1` voters (submitter included). The voters
    /// so far are excluded — the interface notifies *other* users.
    /// `u32` entries, as [`cascade`](IncrementalSweep::cascade).
    pub fn influence(&self) -> &[u32] {
        &self.influence_series
    }

    /// The paper's `v_n`: in-network votes among the first `n`
    /// post-submitter votes (all of them if the story is shorter).
    pub fn in_network_count_within(&self, n: usize) -> usize {
        match n.min(self.cascade_series.len()) {
            0 => 0,
            m => self.cascade_series[m - 1] as usize,
        }
    }

    /// Influence after the first `k` voters, `k` clamped to the applied
    /// votes; 0 when `k == 0` or no vote has been applied.
    pub fn influence_after(&self, k: usize) -> usize {
        match k.min(self.influence_series.len()) {
            0 => 0,
            m => self.influence_series[m - 1] as usize,
        }
    }

    /// Final cascade size (all applied post-submitter votes).
    pub fn final_cascade(&self) -> usize {
        self.cascade_series.last().copied().unwrap_or(0) as usize
    }

    /// Early-vote features of the applied prefix, equal to
    /// [`StoryFeatures::extract`] on a record truncated to the applied
    /// votes. `None` until the paper's minimum observation window is
    /// in (at least 10 post-submitter votes). `fans1` is the fan
    /// count of the first applied voter (the submitter by the scraped
    /// list's convention).
    pub fn features(&self) -> Option<StoryFeatures> {
        if self.votes_applied <= 10 {
            return None;
        }
        Some(StoryFeatures {
            v6: self.in_network_count_within(6),
            v10: self.in_network_count_within(10),
            v20: self.in_network_count_within(20),
            fans1: self.fans1,
            scraped_votes: self.votes_applied,
        })
    }

    /// The C4.5 "interesting?" verdict on the applied prefix, current
    /// as of the last vote. `None` until the 10-vote window is in.
    pub fn verdict(&self, predictor: &InterestingnessPredictor) -> Option<bool> {
        self.features().map(|f| predictor.predict_features(&f))
    }
}

/// The batch path for per-story analytics:
/// [`des_core::par::par_map_with`] handing each worker chunk its own
/// [`IncrementalSweep`] sized for `graph` — one voter walk per story,
/// one engine per chunk, zero per-story allocation. The engine is
/// epoch-stamped scratch, so reusing it across a chunk's stories
/// cannot leak state between items and the output is identical at any
/// thread count.
pub fn sweep_map<G, T, R, F>(graph: &G, items: &[T], threads: usize, f: F) -> Vec<R>
where
    G: FanView + Sync,
    T: Sync,
    R: Send,
    F: Fn(&mut IncrementalSweep, &T) -> R + Sync,
{
    des_core::par::par_map_with(items, threads, || IncrementalSweep::new(graph), f)
}

/// Voters per gather pass in [`IncrementalSweep::sweep_story`]. A
/// block's rows must stay cached until their votes are applied: at
/// ~10 fans a row, 64 rows are a few kB of L1.
const GATHER_BLOCK: usize = 64;

/// Load the first and last fan of each voter's CSR row. The applying
/// loop's data-dependent branches keep out-of-order execution from
/// reaching the next voter's row, so each row fetch (offset, then
/// targets) would stall one vote; here the fetches are independent
/// and their misses overlap. `black_box` keeps the loads from being
/// optimised away.
// digg-lint: hot-path
fn gather_fan_rows<G: FanView>(graph: &G, voters: &[UserId]) {
    let mut touched = 0u32;
    for &v in voters {
        let row = graph.fans(v);
        if let (Some(first), Some(last)) = (row.first(), row.last()) {
            touched ^= first.0 ^ last.0;
        }
    }
    std::hint::black_box(touched);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::fig5_predictor;
    use social_graph::{GraphBuilder, SocialGraph};

    /// Fans: 0 <- {1, 2, 3}; 4 <- {5, 6}; 1 <- {2}.
    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(7);
        for f in [1, 2, 3] {
            b.add_watch(UserId(f), UserId(0));
        }
        for f in [5, 6] {
            b.add_watch(UserId(f), UserId(4));
        }
        b.add_watch(UserId(2), UserId(1));
        b.build()
    }

    /// The three output columns, copied out for comparison.
    fn series(s: &IncrementalSweep) -> (Vec<bool>, Vec<u32>, Vec<u32>) {
        (
            s.flags().to_vec(),
            s.cascade().to_vec(),
            s.influence().to_vec(),
        )
    }

    #[test]
    fn apply_vote_reports_running_counters() {
        let g = graph();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        let a = incr.apply_vote(&g, UserId(0));
        assert_eq!(a.position, 0);
        assert_eq!(a.in_network, None);
        assert_eq!(a.cascade, 0);
        assert_eq!(a.influence, 3);
        let b = incr.apply_vote(&g, UserId(1));
        assert_eq!(b.in_network, Some(true));
        assert_eq!(b.cascade, 1);
        assert_eq!(b.influence, 2);
        let c = incr.apply_vote(&g, UserId(4));
        assert_eq!(c.in_network, Some(false));
        assert_eq!(c.cascade, 1);
        assert_eq!(c.influence, 4);
        assert_eq!(incr.votes_applied(), 3);
    }

    #[test]
    fn sweep_matches_batch_at_every_prefix() {
        let g = graph();
        let voters = [UserId(0), UserId(1), UserId(4), UserId(2), UserId(5)];
        let mut incr = IncrementalSweep::new(&g);
        let mut batch = IncrementalSweep::new(&g);
        incr.begin(&g);
        for (k, &v) in voters.iter().enumerate() {
            incr.apply_vote(&g, v);
            assert_eq!(
                series(&incr),
                series(batch.sweep_story(&g, &voters[..=k])),
                "prefix {}",
                k + 1
            );
        }
    }

    #[test]
    fn begin_resets_for_the_next_story() {
        let g = graph();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        incr.apply_vote(&g, UserId(0));
        incr.apply_vote(&g, UserId(1));
        incr.begin(&g);
        assert_eq!(incr.votes_applied(), 0);
        let a = incr.apply_vote(&g, UserId(4));
        // No stale reached/voted state from the previous story.
        assert_eq!(a.influence, 2);
        let b = incr.apply_vote(&g, UserId(5));
        assert_eq!(b.in_network, Some(true));
    }

    #[test]
    fn features_need_the_ten_vote_window() {
        let mut b = GraphBuilder::new(40);
        for f in 1..=5 {
            b.add_watch(UserId(f), UserId(0));
        }
        let g = b.build();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        for v in 0..11u32 {
            assert!(incr.features().is_none(), "at {v} votes");
            incr.apply_vote(&g, UserId(v));
        }
        let f = incr.features().expect("11 votes = 10 post-submitter");
        assert_eq!(f.v10, 5);
        assert_eq!(f.fans1, 5);
        assert_eq!(f.scraped_votes, 11);
        // Equal to the batch extraction on the same prefix.
        let record = digg_data::StoryRecord {
            story: digg_sim::StoryId(0),
            submitter: UserId(0),
            submitted_at: digg_sim::Minute(0),
            voters: (0..11).map(UserId).collect(),
            source: digg_data::SampleSource::FrontPage,
            final_votes: None,
        };
        assert_eq!(StoryFeatures::extract(&record, &g), Some(f));
    }

    #[test]
    fn sweep_story_produces_all_three_series() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        // Submitter 0; fan 1 votes (in-network, audience shrinks),
        // then the unconnected 4 (out-of-network, brings fans 5, 6).
        let s = sweep.sweep_story(&g, &[UserId(0), UserId(1), UserId(4)]);
        assert_eq!(s.flags(), &[true, false]);
        assert_eq!(s.cascade(), &[1, 1]);
        assert_eq!(s.influence(), &[3, 2, 4]);
        assert_eq!(s.final_cascade(), 1);
        assert_eq!(s.votes_applied(), 3);
    }

    #[test]
    fn window_and_clamp_helpers() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        let s = sweep.sweep_story(&g, &[UserId(0), UserId(1), UserId(4), UserId(2)]);
        assert_eq!(s.in_network_count_within(0), 0);
        assert_eq!(s.in_network_count_within(1), 1);
        assert_eq!(s.in_network_count_within(3), 2);
        assert_eq!(s.in_network_count_within(99), 2);
        assert_eq!(s.influence_after(0), 0);
        assert_eq!(s.influence_after(1), 3);
        assert_eq!(s.influence_after(99), s.influence()[3] as usize);
    }

    #[test]
    fn in_network_needs_a_fan_link_to_an_earlier_voter() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        // 2 is a fan of 1, but 1 has not voted yet when 2 does; 1 is a
        // fan of 0 only. Vote order decides the cascade.
        let s = sweep.sweep_story(&g, &[UserId(4), UserId(2), UserId(1)]);
        assert_eq!(s.flags(), &[false, false]);
        let s = sweep.sweep_story(&g, &[UserId(4), UserId(1), UserId(2)]);
        assert_eq!(s.flags(), &[false, true]);
    }

    #[test]
    fn sweep_story_reuse_is_clean_across_stories() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        let first = series(sweep.sweep_story(&g, &[UserId(0), UserId(1)]));
        // A completely different story must not see stale epochs.
        let second = sweep.sweep_story(&g, &[UserId(4), UserId(5)]);
        assert_eq!(second.flags(), &[true]);
        assert_eq!(second.influence(), &[2, 1]);
        // And re-sweeping the first story reproduces it exactly.
        assert_eq!(
            series(sweep.sweep_story(&g, &[UserId(0), UserId(1)])),
            first
        );
    }

    #[test]
    fn sweep_map_matches_serial_sweeps() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = vec![
            vec![UserId(0), UserId(1), UserId(4)],
            vec![UserId(4), UserId(5)],
            vec![UserId(0)],
            vec![],
            vec![UserId(2), UserId(0), UserId(1), UserId(3)],
        ];
        let mut engine = IncrementalSweep::new(&g);
        let serial: Vec<_> = stories
            .iter()
            .map(|v| series(engine.sweep_story(&g, v)))
            .collect();
        for threads in [1, 2, 8] {
            let par = sweep_map(&g, &stories, threads, |sw, v| series(sw.sweep_story(&g, v)));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_stories() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        let s = sweep.sweep_story(&g, &[]);
        assert!(s.flags().is_empty());
        assert!(s.influence().is_empty());
        assert_eq!(s.influence_after(5), 0);
        assert_eq!(s.in_network_count_within(10), 0);
        assert_eq!(s.final_cascade(), 0);
        let s = sweep.sweep_story(&g, &[UserId(0)]);
        assert_eq!(s.influence(), &[3]);
        assert!(s.flags().is_empty());
        // An isolated submitter is seen by nobody.
        let s = sweep.sweep_story(&g, &[UserId(6)]);
        assert_eq!(s.influence(), &[0]);
    }

    /// The gather pass reads an out-of-range voter's row before the
    /// earlier votes of its block are applied; it must still panic.
    #[test]
    #[should_panic]
    fn sweep_story_panics_on_an_out_of_range_voter() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        sweep.sweep_story(&g, &[UserId(0), UserId(1), UserId(7)]);
    }

    #[test]
    fn duplicate_voters_do_not_double_count() {
        let g = graph();
        let mut sweep = IncrementalSweep::new(&g);
        let s = sweep.sweep_story(&g, &[UserId(0), UserId(1), UserId(1)]);
        // Second vote by 1 is still "in-network" (1 is a fan of a
        // prior voter) but audience no longer changes.
        assert_eq!(s.flags(), &[true, true]);
        assert_eq!(s.influence(), &[3, 2, 2]);
    }

    #[test]
    fn overlapping_fan_rows_join_the_audience_once() {
        let g = graph();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        assert_eq!(incr.apply_vote(&g, UserId(0)).influence, 3);
        // 1's only fan, 2, was already reached through 0: the vote
        // removes 1 from the audience and adds nobody.
        assert_eq!(incr.apply_vote(&g, UserId(1)).influence, 2);
        // 4's fans 5 and 6 are first sightings.
        assert_eq!(incr.apply_vote(&g, UserId(4)).influence, 4);
    }

    #[test]
    fn voters_with_no_fans_add_no_audience() {
        let g = graph();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        incr.apply_vote(&g, UserId(0));
        // 3 has no fans: voting only takes 3 out of the audience.
        let a = incr.apply_vote(&g, UserId(3));
        assert_eq!(a.in_network, Some(true));
        assert_eq!(a.influence, 2);
        // 5 has no fans and was never reached: nothing changes.
        let b = incr.apply_vote(&g, UserId(5));
        assert_eq!(b.in_network, Some(false));
        assert_eq!(b.influence, 2);
    }

    #[test]
    fn begin_grows_scratch_to_the_graph() {
        let g = graph();
        // Sized for two users; `begin` must grow both sets to seven.
        let mut small = IncrementalSweep::new(&GraphBuilder::new(2).build());
        let mut sized = IncrementalSweep::new(&g);
        let voters = [UserId(4), UserId(5), UserId(0), UserId(6)];
        assert_eq!(
            series(small.sweep_story(&g, &voters)),
            series(sized.sweep_story(&g, &voters))
        );
    }

    #[test]
    fn verdict_tracks_the_fig5_rule() {
        let mut b = GraphBuilder::new(40);
        for f in 1..=5 {
            b.add_watch(UserId(f), UserId(0));
        }
        let g = b.build();
        let p = fig5_predictor();
        let mut incr = IncrementalSweep::new(&g);
        incr.begin(&g);
        for v in 0..10u32 {
            incr.apply_vote(&g, UserId(v));
            assert_eq!(incr.verdict(&p), None);
        }
        incr.apply_vote(&g, UserId(10));
        // v10 = 5 (fans 1..=5), fans1 = 5: v10 > 4, v10 <= 8,
        // fans1 <= 85 -> not interesting.
        assert_eq!(incr.verdict(&p), Some(false));
    }
}
