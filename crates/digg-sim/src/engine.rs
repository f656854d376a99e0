//! The event-driven simulation engine.
//!
//! The simulator runs on the `des-core` kernel: a single
//! [`EventQueue`] ordered by `(minute, class, seq)` where `class`
//! encodes the intra-minute phase order the platform model fixes:
//!
//! 1. queue expiry (per-story events — no per-minute rescans);
//! 2. new submissions (Poisson arrivals; submitter drawn by
//!    submission propensity);
//! 3. due Friends-interface exposures → possible social votes;
//! 4. front-page browsing sessions → possible interest votes;
//! 5. upcoming-queue browsing sessions → possible interest votes;
//! 6. external discovery → independent seed votes.
//!
//! Every vote immediately (a) schedules exposures for the voter's fans
//! and (b) re-evaluates the promotion rule if the story is still in
//! the queue — so, exactly as on Digg, no queue story can be observed
//! with more votes than the promotion boundary.
//!
//! Every arrival process (submissions, both browsing streams, each
//! story's external discovery) is a Poisson process realised as
//! exponential-gap events, so idle minutes cost nothing. Every draw
//! comes from a per-entity counter-based [`StreamRng`], so the
//! sequence an entity consumes is independent of how events
//! interleave: the sample path is a pure function of the seed, however
//! a run is split into [`Sim::run`] calls, budget slices or
//! snapshot/restore hops.
//!
//! No event is scheduled before the clock or more than `2 days + 1`
//! minutes after it (`feed_lifetime`, `queue_lifetime + 1` and
//! `external_window` bound every horizon), so every event stays inside
//! the queue's 4096-minute ring of buckets. The per-fan chance that a
//! Friends-interface entry becomes an exposure depends only on the fan
//! and on whether a friend voted or submitted, so `Derived` computes
//! both rows once per population rather than once per fan visit.
//!
//! Three choices keep the hot loops off the stories' voter indexes
//! without changing a single vote:
//!
//! * a Friends-interface entry draws both of its coins when it is
//!   scheduled — whether the fan sees it and whether the fan would
//!   vote — from streams keyed by the `(story, fan)` pair alone, and
//!   only an entry whose vote coin comes up is queued; when it fires it
//!   casts the vote unless the fan voted meanwhile;
//! * front-page browsing reads the [`FrontPage`] listing's own entries
//!   (vote weight, promotion minute, a per-user voted bitset) and a
//!   per-age novelty table, never the [`Story`];
//! * the dedup rows also mark the submitter and every voter, so a fan
//!   walk is one bit test per fan.

use crate::config::{PromoterKind, SimConfig};
use crate::decay::{sample_pages_viewed, NoveltyTable};
use crate::exposure::ExposureRows;
use crate::frontpage::FrontPage;
use crate::metrics::SimMetrics;
use crate::population::Population;
use crate::promotion::PromoterState;
use crate::queue::UpcomingQueue;
use crate::story::{Story, StoryId, StoryStatus, VoteChannel};
use crate::time::Minute;
use des_core::{EventQueue, StreamRng};
use digg_snapshot::{
    ByteReader, ByteWriter, Codec, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use digg_stats::distributions::{coin, exponential, LogNormal};
use digg_stats::sampling::AliasTable;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use social_graph::UserId;

// Event classes: the fixed intra-minute phase order (see module docs).
const CLASS_EXPIRY: u8 = 0;
const CLASS_SUBMIT: u8 = 1;
const CLASS_EXPOSE: u8 = 2;
const CLASS_FRONT: u8 = 3;
const CLASS_UPCOMING: u8 = 4;
const CLASS_EXTERNAL: u8 = 5;

// Stream-key salts. Each logical entity draws from
// `root.derive(SALT).derive(entity id…)`.
const SALT_SUB_GAP: u64 = 1;
const SALT_STORY_BODY: u64 = 2;
const SALT_FRONT_GAP: u64 = 3;
const SALT_FRONT_SESSION: u64 = 4;
const SALT_UP_GAP: u64 = 5;
const SALT_UP_SESSION: u64 = 6;
const SALT_EXTERNAL: u64 = 7;
const SALT_EXPOSE_SCHED: u64 = 8;
const SALT_EXPOSE_FIRE: u64 = 9;

/// The simulator's one sample path, kept as a single-variant enum only
/// because [`crate::sweep::ScenarioSpec`] still carries a `kernel`
/// field that existing callers fill with `Kernel::default()`. Nothing
/// matches on it and it is never written to a [`Sim`] snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Kernel {
    /// Pure event scheduling with per-entity [`StreamRng`] streams.
    #[default]
    EventStreams,
}

/// Event payloads routed through the kernel queue.
enum Ev {
    /// A story reaches the end of its queue lifetime.
    Expiry(StoryId),
    /// One submission arrives.
    Submit,
    /// One front-page browsing session.
    FrontSession,
    /// One upcoming browsing session.
    UpSession,
    /// One external reader discovers `story`. The story's
    /// arrival-process stream and continuous clock ride in the
    /// payload.
    ExternalArrival {
        story: StoryId,
        rng: StreamRng,
        tau: f64,
    },
    /// A fan's Friends-interface exposure to a story comes due; its
    /// vote coin already came up when it was scheduled.
    Exposure { fan: UserId, story: StoryId },
}

/// What a [`Sim`] computes from its population and config instead of
/// carrying in a snapshot; [`Derived::build`] makes it for both
/// [`Sim::new`] and `Sim::restore`.
struct Derived {
    browse_table: AliasTable,
    submit_table: AliasTable,
    niche_quality: LogNormal,
    /// Per fan, the chance that a friend's vote in the Friends
    /// interface becomes a scheduled exposure.
    expose_voted: Vec<f64>,
    /// The same for a friend's submission.
    expose_submitted: Vec<f64>,
    /// `novelty(age, cfg.novelty_tau)` by front-page age, grown on
    /// demand.
    novelty: NoveltyTable,
}

impl Derived {
    /// Fails when the population's weights admit no alias table.
    fn build(cfg: &SimConfig, pop: &Population) -> Result<Derived, String> {
        let browse_table = AliasTable::new(&pop.browse_weight)
            .ok_or("population browse weights yield no alias table")?;
        let submit_table = AliasTable::new(&pop.submit_weight)
            .ok_or("population submit weights yield no alias table")?;
        // Exposure = (fan visits the site during the window) x (fan
        // notices this entry in their feed). The first factor grows
        // with activity; the second is diluted by how many friends the
        // fan watches — the Friends interface of a user watching
        // hundreds of people scrolls any single story out of attention
        // quickly. Together these keep social cascades subcritical
        // (refs [12, 23]: most recommendation cascades terminate after
        // a few steps).
        let exposure_row = |dilution_exp: f64| -> Vec<f64> {
            pop.graph
                .users()
                .map(|fan| {
                    let a = pop.activity[fan.index()];
                    let f = pop.graph.friend_count(fan).max(1) as f64;
                    let visits = (a / cfg.attention_ref).min(1.0);
                    let dilution = f.powf(-dilution_exp);
                    (cfg.fan_exposure_prob * visits * dilution).min(1.0)
                })
                .collect()
        };
        Ok(Derived {
            browse_table,
            submit_table,
            niche_quality: LogNormal::new(cfg.niche_quality_mu, cfg.niche_quality_sigma),
            expose_voted: exposure_row(cfg.feed_dilution),
            // The submissions view is far less crowded than the diggs
            // view, so its congestion dilution is gentler.
            expose_submitted: exposure_row(cfg.submitted_dilution),
            novelty: NoveltyTable::new(cfg.novelty_tau),
        })
    }
}

/// A running simulation.
///
/// # Examples
///
/// ```
/// use digg_sim::population::{Population, PopulationConfig};
/// use digg_sim::{Sim, SimConfig};
/// use rand::SeedableRng;
///
/// let cfg = SimConfig::toy(7);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pop = Population::generate(&mut rng, &PopulationConfig::toy(cfg.users));
/// let mut sim = Sim::new(cfg, pop);
/// sim.run(120); // two simulated hours
/// assert_eq!(sim.now().0, 120);
/// assert_eq!(sim.metrics().submissions as usize, sim.stories().len());
/// ```
pub struct Sim {
    cfg: SimConfig,
    pop: Population,
    /// [`Population::fingerprint`] of `pop`, hashed once at
    /// construction or restore (the population never changes after).
    fingerprint: u64,
    now: Minute,
    stories: Vec<Story>,
    queue: UpcomingQueue,
    front: FrontPage,
    events: EventQueue<Ev>,
    /// `(user, story)` pairs that voted or were ever offered an
    /// exposure, to collapse duplicate entries from multiple friends
    /// (the interface shows a story once, and never to its voters): one
    /// bitset row per story.
    scheduled: ExposureRows,
    /// Per-story diversity fold, indexed like `stories`, so each
    /// promotion re-check folds only the votes it has not seen.
    folds: Vec<PromoterState>,
    derived: Derived,
    metrics: SimMetrics,
    /// Root of the stream-key tree.
    root: StreamRng,
    /// Submission inter-arrival stream and continuous clock.
    sub_gap: StreamRng,
    sub_tau: f64,
    front_gap: StreamRng,
    front_tau: f64,
    front_sessions: u64,
    up_gap: StreamRng,
    up_tau: f64,
    up_sessions: u64,
    /// Events fired by *this instance* since construction or restore.
    /// Diagnostics only (checkpoint-overhead rates); deliberately not
    /// serialized — a restored sim starts its own count at zero.
    events_fired: u64,
}

impl Sim {
    /// Create a simulation over an existing population.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the population size
    /// disagrees with `cfg.users`, or the population's weights admit
    /// no alias table.
    pub fn new(cfg: SimConfig, pop: Population) -> Sim {
        #[expect(
            clippy::panic,
            reason = "documented constructor contract (\"# Panics\"): an invalid config is a caller bug"
        )]
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert_eq!(
            cfg.users,
            pop.len(),
            "config.users must match population size"
        );
        #[expect(
            clippy::panic,
            reason = "documented constructor contract (\"# Panics\"): an invalid population is a caller bug"
        )]
        let derived = match Derived::build(&cfg, &pop) {
            Ok(d) => d,
            Err(e) => panic!("invalid population: {e}"),
        };
        let root = StreamRng::root(cfg.seed);
        let mut sim = Sim {
            queue: UpcomingQueue::new(cfg.page_size),
            front: FrontPage::default(),
            events: EventQueue::new(),
            scheduled: ExposureRows::new(pop.len()),
            stories: Vec::new(),
            folds: Vec::new(),
            now: Minute::ZERO,
            metrics: SimMetrics::default(),
            derived,
            root,
            sub_gap: root.derive(SALT_SUB_GAP),
            sub_tau: 0.0,
            front_gap: root.derive(SALT_FRONT_GAP),
            front_tau: 0.0,
            front_sessions: 0,
            up_gap: root.derive(SALT_UP_GAP),
            up_tau: 0.0,
            up_sessions: 0,
            events_fired: 0,
            fingerprint: pop.fingerprint(),
            cfg,
            pop,
        };
        sim.schedule_next_submission();
        sim.schedule_next_front_session();
        sim.schedule_next_up_session();
        sim
    }

    /// Current simulated time.
    pub fn now(&self) -> Minute {
        self.now
    }

    /// All stories, in submission order.
    pub fn stories(&self) -> &[Story] {
        &self.stories
    }

    /// One story.
    pub fn story(&self, id: StoryId) -> &Story {
        &self.stories[id.index()]
    }

    /// The population being simulated.
    pub fn population(&self) -> &Population {
        &self.pop
    }

    /// The front page.
    pub fn front_page(&self) -> &FrontPage {
        &self.front
    }

    /// The upcoming queue.
    pub fn upcoming_queue(&self) -> &UpcomingQueue {
        &self.queue
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Events fired by this instance since construction or restore —
    /// a diagnostics counter for throughput rates, not simulation
    /// state (it is not serialized into snapshots).
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Advance the simulation by `minutes`: drain every event due in
    /// the window, then land on the horizon. Minutes with no events
    /// cost nothing.
    pub fn run(&mut self, minutes: u64) {
        self.run_budgeted(self.now + minutes, u64::MAX);
    }

    /// Advance toward `horizon`, firing at most `max_events` events.
    /// Returns `true` once no events remain inside the window (the
    /// clock then lands exactly on the horizon, as [`Sim::run`] does);
    /// `false` means the budget ran out mid-drain — the natural moment
    /// to [`Snapshot`] the sim and call `run_budgeted` again with the
    /// same horizon. Interleaving snapshots (or a restore on another
    /// process) between budget slices changes nothing: the final state
    /// is bit-identical to one uninterrupted [`Sim::run`].
    pub fn run_budgeted(&mut self, horizon: Minute, max_events: u64) -> bool {
        // A horizon in the past is a no-op landing at `now`: the clock
        // never moves backward.
        let horizon = Minute(horizon.0.max(self.now.0));
        let mut fired = 0u64;
        while fired < max_events {
            let Some(t) = self.events.peek_time() else {
                break;
            };
            if t > horizon.0 {
                break;
            }
            let Some(e) = self.events.pop() else { break };
            // The clock only moves forward; events never fire early.
            self.now = Minute(e.time.max(self.now.0));
            self.handle(e.payload);
            fired += 1;
            self.events_fired += 1;
        }
        let done = match self.events.peek_time() {
            Some(t) => t > horizon.0,
            None => true,
        };
        if done {
            // At every rest point `metrics.minutes == now.0` (both
            // start at zero and only run()'s horizon landing moves
            // them), so assigning the horizon here is exactly the
            // `+= minutes` a one-shot run() performs.
            self.now = horizon;
            self.metrics.minutes = horizon.0;
        }
        done
    }

    // ---------------------------------------------------------- dispatch

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Expiry(id) => self.on_expiry(id),
            Ev::Submit => self.on_submit(),
            Ev::FrontSession => {
                let k = self.front_sessions;
                self.front_sessions += 1;
                let mut body = self.root.derive(SALT_FRONT_SESSION).derive(k);
                self.browse_frontpage(&mut body);
                self.schedule_next_front_session();
            }
            Ev::UpSession => {
                let k = self.up_sessions;
                self.up_sessions += 1;
                let mut body = self.root.derive(SALT_UP_SESSION).derive(k);
                self.browse_upcoming(&mut body);
                self.schedule_next_up_session();
            }
            Ev::ExternalArrival { story, rng, tau } => self.on_external_arrival(story, rng, tau),
            Ev::Exposure { fan, story } => {
                self.metrics.exposures_fired += 1;
                // A no-op if the fan voted meanwhile.
                self.cast_vote(story, fan, VoteChannel::Friends);
            }
        }
    }

    // ------------------------------------------------------------ expiry

    /// Fires at `submitted_at + queue_lifetime + 1`: the first minute
    /// at which the story's age exceeds `queue_lifetime`.
    fn on_expiry(&mut self, id: StoryId) {
        let story = &mut self.stories[id.index()];
        if story.is_upcoming() {
            story.status = StoryStatus::Expired(self.now);
            self.metrics.expirations += 1;
            self.queue.remove(id);
        }
    }

    // ------------------------------------------------------- submissions

    /// Submission bookkeeping once submitter and quality are drawn:
    /// create the story, enqueue it, plant its expiry event, expose the
    /// submitter's fans and start its external-discovery process.
    fn admit_story(&mut self, submitter: UserId, quality: f64) {
        let id = StoryId::from_index(self.stories.len());
        let story = Story::new(id, submitter, self.now, quality);
        self.stories.push(story);
        self.scheduled.push_story();
        self.scheduled.insert(submitter, id);
        self.folds.push(PromoterState::default());
        self.queue.push(id);
        self.metrics.submissions += 1;
        self.events.schedule(
            self.now.0 + self.cfg.queue_lifetime + 1,
            CLASS_EXPIRY,
            Ev::Expiry(id),
        );
        // "See the stories your friends submitted": expose the
        // submitter's fans.
        self.schedule_fan_exposures(submitter, id, true);
        let srng = self.root.derive(SALT_EXTERNAL).derive(id.index() as u64);
        let tau = self.now.0 as f64 - 1.0;
        self.schedule_external_arrival(id, srng, tau);
    }

    fn on_submit(&mut self) {
        let mut body = self
            .root
            .derive(SALT_STORY_BODY)
            .derive(self.stories.len() as u64);
        let submitter = UserId::from_index(self.derived.submit_table.sample(&mut body));
        let activity = self.pop.activity[submitter.index()];
        let quality = draw_quality(&mut body, &self.cfg, &self.derived.niche_quality, activity);
        self.admit_story(submitter, quality);
        self.schedule_next_submission();
    }

    /// Next submission from the exponential-gap arrival process; a
    /// continuous arrival at `tau` lands in minute `ceil(tau)` (the
    /// minute interval `(m-1, m]`), so each minute's count is
    /// Poisson(`submissions_per_minute`).
    fn schedule_next_submission(&mut self) {
        let rate = self.cfg.submissions_per_minute;
        if rate <= 0.0 {
            return;
        }
        self.sub_tau += exponential(&mut self.sub_gap, rate);
        let m = arrival_minute(self.sub_tau).max(1);
        self.events.schedule(m, CLASS_SUBMIT, Ev::Submit);
    }

    // ---------------------------------------------------------- browsing

    /// One front-page browsing session, drawing the user, the page
    /// depth, and every vote coin from the session's own stream. The
    /// session reads `pages` pages of the listing, newest promotion
    /// first; a vote cannot change the listing.
    fn browse_frontpage(&mut self, rng: &mut StreamRng) {
        let user = UserId::from_index(self.derived.browse_table.sample(rng));
        let pages = sample_pages_viewed(rng, self.cfg.page_stop_prob);
        let listed = self.front.len();
        let seen = listed.min(pages.saturating_mul(self.cfg.page_size));
        for pos in (listed - seen..listed).rev() {
            if self.front.has_voted(user, pos) {
                continue;
            }
            let (id, at, weight) = self.front.entry(pos);
            // `(frontpage_vote_prob * quality) * novelty`: the pinned
            // trajectories depend on that rounding order.
            let prob = weight * self.derived.novelty.get(self.now.since(at));
            if coin(rng, prob) {
                self.cast_vote(id, user, VoteChannel::FrontPage);
            }
        }
    }

    /// One upcoming-queue browsing session. Each page is the listing's
    /// `page_size` slots as they stand when the session turns to it; a
    /// vote that promotes a story removes it, so the rest of that page
    /// moves up one slot.
    fn browse_upcoming(&mut self, rng: &mut StreamRng) {
        let user = UserId::from_index(self.derived.browse_table.sample(rng));
        let pages = sample_pages_viewed(rng, self.cfg.page_stop_prob);
        let size = self.cfg.page_size;
        for p in 0..pages.min(self.queue.page_count()) {
            let start = p * size;
            let mut slot = start;
            for _ in 0..self.queue.len().saturating_sub(start).min(size) {
                let id = self.queue.get(slot);
                slot += 1;
                let story = &self.stories[id.index()];
                if story.has_voted(user) || !story.is_upcoming() {
                    continue;
                }
                let prob = self.cfg.upcoming_vote_prob * story.quality;
                if coin(rng, prob) {
                    self.cast_vote(id, user, VoteChannel::Upcoming);
                    if !self.stories[id.index()].is_upcoming() {
                        slot -= 1;
                    }
                }
            }
        }
    }

    fn schedule_next_front_session(&mut self) {
        let rate = self.cfg.frontpage_sessions_per_minute;
        if rate <= 0.0 {
            return;
        }
        self.front_tau += exponential(&mut self.front_gap, rate);
        let m = arrival_minute(self.front_tau).max(1);
        self.events.schedule(m, CLASS_FRONT, Ev::FrontSession);
    }

    fn schedule_next_up_session(&mut self) {
        let rate = self.cfg.upcoming_sessions_per_minute;
        if rate <= 0.0 {
            return;
        }
        self.up_tau += exponential(&mut self.up_gap, rate);
        let m = arrival_minute(self.up_tau).max(1);
        self.events.schedule(m, CLASS_UPCOMING, Ev::UpSession);
    }

    // ---------------------------------------------------------- external

    /// One external reader arrives for `story` now.
    fn on_external_arrival(&mut self, story: StoryId, mut rng: StreamRng, tau: f64) {
        let user = UserId::from_index(self.derived.browse_table.sample(&mut rng));
        self.cast_vote(story, user, VoteChannel::External);
        self.schedule_external_arrival(story, rng, tau);
    }

    /// Per-story external discovery as an exponential-gap arrival
    /// process at rate `external_rate * quality`, starting at
    /// the submission minute and dying when the story leaves the
    /// discovery window.
    fn schedule_external_arrival(&mut self, story: StoryId, mut rng: StreamRng, mut tau: f64) {
        let s = &self.stories[story.index()];
        let rate = self.cfg.external_rate * s.quality;
        if rate <= 0.0 {
            return;
        }
        let last = (s.submitted_at + self.cfg.external_window).0;
        tau += exponential(&mut rng, rate);
        let m = arrival_minute(tau);
        if m > last {
            return;
        }
        self.events
            .schedule(m, CLASS_EXTERNAL, Ev::ExternalArrival { story, rng, tau });
    }

    // ------------------------------------------------------------ voting

    /// Record a vote, schedule the voter's fans' exposures, update
    /// channel metrics, and re-check promotion. A no-op if `user` has
    /// already voted on the story.
    fn cast_vote(&mut self, id: StoryId, user: UserId, channel: VoteChannel) {
        let added = self.stories[id.index()].add_vote(user, self.now, channel);
        if !added {
            return;
        }
        self.scheduled.insert(user, id);
        self.front.record_vote(id, user);
        match channel {
            VoteChannel::Friends => self.metrics.votes_friends += 1,
            VoteChannel::FrontPage => self.metrics.votes_frontpage += 1,
            VoteChannel::Upcoming => self.metrics.votes_upcoming += 1,
            VoteChannel::External => self.metrics.votes_external += 1,
        }
        self.schedule_fan_exposures(user, id, false);
        self.maybe_promote(id);
    }

    /// Expose `actor`'s fans to `story` ("see the stories my friends
    /// dugg / submitted"), queueing the exposures that will draw a vote.
    fn schedule_fan_exposures(&mut self, actor: UserId, story: StoryId, from_submitter: bool) {
        let expose = if from_submitter {
            &self.derived.expose_submitted
        } else {
            &self.derived.expose_voted
        };
        // Fans back their friends' own submissions loyally; for
        // stories a friend merely dugg, interest dominates.
        let vote_p = if from_submitter {
            self.cfg.friend_vote_submitted
        } else {
            self.cfg.friend_vote_base
                + self.cfg.friend_vote_quality_slope * self.stories[story.index()].quality
        };
        let delay_rate = 1.0 / self.cfg.fan_exposure_delay_mean;
        // Only disjoint fields are touched below, so the fan row is
        // borrowed in place while the events and dedup rows change.
        for &fan in self.pop.graph.fans(actor) {
            // Skips the story's voters, and consumes the pair either
            // way, so another friend's vote doesn't grant a second
            // chance; the interface shows a story once.
            if !self.scheduled.insert(fan, story) {
                continue;
            }
            // Each (story, fan) pair passes here at most once (the
            // `scheduled` dedup), so the per-pair streams below are
            // drawn at most once — their values depend only on the
            // pair, never on event interleaving.
            let mut s = self
                .root
                .derive(SALT_EXPOSE_SCHED)
                .derive(story.index() as u64)
                .derive(fan.index() as u64);
            if !coin(&mut s, expose[fan.index()]) {
                continue;
            }
            self.metrics.exposures_scheduled += 1;
            // The delay is clamped to `feed_lifetime`, so the entry
            // never lapses before the fan sees it.
            let delay = 1.0 + exponential(&mut s, delay_rate);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a delay in minutes drawn from an exponential, clamped to feed_lifetime"
            )]
            let delay = (delay as u64).min(self.cfg.feed_lifetime);
            let mut fire = self
                .root
                .derive(SALT_EXPOSE_FIRE)
                .derive(story.index() as u64)
                .derive(fan.index() as u64);
            if coin(&mut fire, vote_p) {
                self.events.schedule(
                    (self.now + delay).0,
                    CLASS_EXPOSE,
                    Ev::Exposure { fan, story },
                );
            }
        }
    }

    fn maybe_promote(&mut self, id: StoryId) {
        let story = &self.stories[id.index()];
        if !story.is_upcoming() || story.age_at(self.now) > self.cfg.queue_lifetime {
            return;
        }
        let fold = &mut self.folds[id.index()];
        if self
            .cfg
            .promoter
            .should_promote(fold, story, &self.pop.graph)
        {
            let story = &mut self.stories[id.index()];
            story.status = StoryStatus::FrontPage(self.now);
            self.queue.remove(id);
            let weight = self.cfg.frontpage_vote_prob * story.quality;
            self.front.promote(story, self.now, weight);
            self.metrics.promotions += 1;
        }
    }
}

// ------------------------------------------------- checkpoint/replay

impl Ev {
    /// The story and fan this event indexes with when it fires.
    fn ids(&self) -> (Option<StoryId>, Option<UserId>) {
        match *self {
            Ev::Expiry(story) | Ev::ExternalArrival { story, .. } => (Some(story), None),
            Ev::Exposure { fan, story, .. } => (Some(story), Some(fan)),
            Ev::Submit | Ev::FrontSession | Ev::UpSession => (None, None),
        }
    }
}

impl Codec for Ev {
    fn encode(&self, out: &mut ByteWriter) {
        match *self {
            Ev::Expiry(id) => {
                out.put_u8(0);
                out.put_u32(id.0);
            }
            Ev::Submit => out.put_u8(1),
            Ev::FrontSession => out.put_u8(2),
            Ev::UpSession => out.put_u8(3),
            Ev::ExternalArrival { story, rng, tau } => {
                out.put_u8(4);
                out.put_u32(story.0);
                rng.encode(out);
                out.put_f64(tau);
            }
            Ev::Exposure { fan, story } => {
                out.put_u8(5);
                out.put_u32(fan.0);
                out.put_u32(story.0);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Ev, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => Ev::Expiry(StoryId(r.get_u32()?)),
            1 => Ev::Submit,
            2 => Ev::FrontSession,
            3 => Ev::UpSession,
            4 => Ev::ExternalArrival {
                story: StoryId(r.get_u32()?),
                rng: StreamRng::decode(r)?,
                tau: r.get_f64()?,
            },
            5 => Ev::Exposure {
                fan: UserId(r.get_u32()?),
                story: StoryId(r.get_u32()?),
            },
            t => return Err(SnapshotError::Malformed(format!("event tag {t}"))),
        })
    }
}

/// What a [`Sim`] snapshot carries vs rebuilds (DESIGN.md §15):
///
/// **Serialized** — everything whose value is path-dependent: stories
/// (votes, statuses, qualities), the front-page listing in promotion
/// order, the pending event queue (as a nested [`EventQueue`]
/// container; a queued exposure is just `(fan, story)`), the four
/// engine [`StreamRng`] streams with their continuous clocks, metrics,
/// the clock, and the full [`SimConfig`].
///
/// **Rebuilt on restore** — pure functions of serialized state or of
/// the context population: the `Derived` tables (alias tables, the
/// niche-quality sampler, the per-fan exposure probabilities and the
/// novelty table, from the population and cfg), every story's
/// `voter_pos` index (from its votes), the upcoming listing (every
/// upcoming story, newest first), the diversity folds (empty: the next
/// check of a story folds its whole vote list, the same additions in
/// the same order as the live fold made), the exposure-dedup rows
/// (every voter and every voter's fans, after every submitter and
/// voter id is checked in range), and the front page's entry weights,
/// story positions and per-user voted bits (from the listing and its
/// stories, after the listing is checked to name every promoted story
/// once, at its promotion minute, in promotion order).
/// The population itself is the restore *context*: it is a pure
/// function of `(PopulationConfig, seed)` and is only fingerprinted,
/// not stored.
impl Snapshot for Sim {
    fn snapshot(&self) -> Vec<u8> {
        // Exhaustive: a new field fails to compile until it is written
        // below or bound as `_` with the reason restore rebuilds it,
        // and a write this body drops leaves an unused binding, which
        // fails the build under `-D warnings`.
        let Sim {
            cfg,
            pop,
            fingerprint,
            now,
            stories,
            // Rebuilt on restore: every upcoming story, newest first.
            queue: _,
            front,
            events,
            // Rebuilt on restore from the stories and the fan graph.
            scheduled: _,
            // Restore starts every fold empty; the next check of a story
            // refolds its votes to the same bits.
            folds: _,
            // A pure function of the population and config.
            derived: _,
            metrics,
            root,
            sub_gap,
            sub_tau,
            front_gap,
            front_tau,
            front_sessions,
            up_gap,
            up_tau,
            up_sessions,
            // Diagnostics only: a restored sim starts its own count at zero.
            events_fired: _,
        } = self;
        let mut c = SnapshotWriter::new();

        let mut w = ByteWriter::new();
        cfg.encode(&mut w);
        c.section("config", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_u64(now.0);
        w.put_u64(*front_sessions);
        w.put_u64(*up_sessions);
        w.put_f64(*sub_tau);
        w.put_f64(*front_tau);
        w.put_f64(*up_tau);
        c.section("state", w.into_bytes());

        let mut w = ByteWriter::new();
        metrics.encode(&mut w);
        c.section("metrics", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(pop.len());
        w.put_u64(*fingerprint);
        c.section("pop", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(stories.len());
        for s in stories {
            s.encode(&mut w);
        }
        c.section("stories", w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_usize(front.len());
        for (id, t) in front.snapshot_entries() {
            w.put_u32(id.0);
            w.put_u64(t.0);
        }
        c.section("front", w.into_bytes());

        c.section("events", events.snapshot());

        let mut w = ByteWriter::new();
        root.encode(&mut w);
        sub_gap.encode(&mut w);
        front_gap.encode(&mut w);
        up_gap.encode(&mut w);
        c.section("streams", w.into_bytes());

        c.finish()
    }
}

impl Restore for Sim {
    /// The regenerated population — from the same
    /// `(PopulationConfig, seed)` the snapshotted sim was built with.
    /// Checked against the stored fingerprint before anything else is
    /// trusted.
    type Context<'a> = Population;

    fn restore(bytes: &[u8], pop: Population) -> Result<Sim, SnapshotError> {
        let c = SnapshotReader::parse(bytes)?;

        let mut r = c.section_reader("config")?;
        let cfg = SimConfig::decode(&mut r)?;
        cfg.validate()
            .map_err(|e| SnapshotError::Malformed(format!("invalid config in snapshot: {e}")))?;

        let mut r = c.section_reader("pop")?;
        let users = r.get_usize()?;
        let fingerprint = pop.fingerprint();
        if users != pop.len() || r.get_u64()? != fingerprint {
            return Err(SnapshotError::Malformed(
                "population does not match the snapshot fingerprint — regenerate it from the \
                 same (PopulationConfig, seed) the snapshotted run used"
                    .into(),
            ));
        }

        let mut r = c.section_reader("state")?;
        let now = Minute(r.get_u64()?);
        let front_sessions = r.get_u64()?;
        let up_sessions = r.get_u64()?;
        let sub_tau = r.get_f64()?;
        let front_tau = r.get_f64()?;
        let up_tau = r.get_f64()?;

        let metrics = SimMetrics::decode(&mut c.section_reader("metrics")?)?;

        let mut r = c.section_reader("stories")?;
        let n = r.get_usize()?;
        let mut stories = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let story = Story::decode(&mut r)?;
            let mut users = std::iter::once(&story.submitter).chain(story.votes.users());
            if let Some(u) = users.find(|u| u.index() >= pop.len()) {
                return Err(SnapshotError::Malformed(format!(
                    "story {} names user {u} beyond {} users",
                    story.id,
                    pop.len()
                )));
            }
            stories.push(story);
        }

        let front_entries = decode_front_listing(&mut c.section_reader("front")?, &stories)?;

        let events: EventQueue<Ev> = EventQueue::restore(c.section("events")?, ())?;
        for ev in events.payloads() {
            let (story, fan) = ev.ids();
            if story.is_some_and(|s| s.index() >= stories.len())
                || fan.is_some_and(|f| f.index() >= pop.len())
            {
                return Err(SnapshotError::Malformed(format!(
                    "pending event on story {story:?}, fan {fan:?} beyond {} stories, {} users",
                    stories.len(),
                    pop.len()
                )));
            }
        }

        let mut r = c.section_reader("streams")?;
        let root = StreamRng::decode(&mut r)?;
        let sub_gap = StreamRng::decode(&mut r)?;
        let front_gap = StreamRng::decode(&mut r)?;
        let up_gap = StreamRng::decode(&mut r)?;

        let derived = Derived::build(&cfg, &pop).map_err(SnapshotError::Malformed)?;
        let scheduled = ExposureRows::rebuild(pop.len(), &stories, &pop.graph);

        Ok(Sim {
            queue: UpcomingQueue::rebuild(cfg.page_size, &stories),
            front: FrontPage::from_snapshot(cfg.frontpage_vote_prob, &front_entries, &stories),
            events,
            scheduled,
            folds: vec![PromoterState::default(); stories.len()],
            stories,
            now,
            metrics,
            derived,
            root,
            sub_gap,
            sub_tau,
            front_gap,
            front_tau,
            front_sessions,
            up_gap,
            up_tau,
            up_sessions,
            events_fired: 0,
            fingerprint,
            cfg,
            pop,
        })
    }
}

/// The front-page section: a count, then `(story, minute)` entries.
/// Browsing indexes `stories` by an entry and trusts its minute over
/// the story's status, and a story off the listing never draws a
/// front-page vote again, so the listing must name every promoted story
/// once, at the minute it was promoted, in promotion order.
fn decode_front_listing(
    r: &mut ByteReader<'_>,
    stories: &[Story],
) -> Result<Vec<(StoryId, Minute)>, SnapshotError> {
    let n = r.get_usize()?;
    let promoted = stories.iter().filter(|s| s.is_front_page()).count();
    if n != promoted {
        return Err(SnapshotError::Malformed(format!(
            "front listing has {n} entries for {promoted} promoted stories"
        )));
    }
    let mut listed = vec![false; stories.len()];
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let id = StoryId(r.get_u32()?);
        let at = Minute(r.get_u64()?);
        let Some(story) = stories.get(id.index()) else {
            return Err(SnapshotError::Malformed(format!(
                "front entry {id} beyond {} stories",
                stories.len()
            )));
        };
        let in_order = entries.last().map_or(true, |&(_, last)| last <= at);
        if story.promoted_at() != Some(at)
            || !in_order
            || std::mem::replace(&mut listed[id.index()], true)
        {
            return Err(SnapshotError::Malformed(format!(
                "front entry {id} at {at} is not the next promotion"
            )));
        }
        entries.push((id, at));
    }
    Ok(entries)
}

/// The minute a continuous arrival at `tau` lands in: `ceil(tau)`,
/// the minute interval `(m-1, m]`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "arrival times are non-negative minutes far below u64::MAX"
)]
fn arrival_minute(tau: f64) -> u64 {
    tau.ceil() as u64
}

/// Story quality: a coin between the broad-appeal regime (uniform above
/// `broad_quality_min`, likelier for skilled submitters) and the niche
/// regime (log-normal, clamped into `(0, 1]`).
fn draw_quality<R: RngCore>(
    rng: &mut R,
    cfg: &SimConfig,
    niche_quality: &LogNormal,
    activity: f64,
) -> f64 {
    let skill = (activity / cfg.skill_activity_ref).min(1.0);
    let p_broad = cfg.high_quality_fraction + cfg.high_quality_skill * skill;
    if coin(rng, p_broad) {
        let lo = cfg.broad_quality_min;
        lo + (1.0 - lo) * rng.random::<f64>()
    } else {
        niche_quality.sample(rng).clamp(1e-4, 1.0)
    }
}

/// Promotion-boundary invariant check used by tests and the dataset
/// validator: with a threshold promoter of `min_votes`, no story that
/// is currently in the queue may have reached `min_votes`.
pub fn queue_boundary_violations(sim: &Sim) -> usize {
    let min_votes = match sim.config().promoter {
        PromoterKind::Threshold { min_votes } => min_votes,
        PromoterKind::Diversity { .. } => return 0, // boundary is weighted
    };
    sim.upcoming_queue()
        .all()
        .into_iter()
        .filter(|id| sim.story(*id).vote_count() >= min_votes)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use crate::story::Vote;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sim_for(cfg: SimConfig) -> Sim {
        let pop = toy_pop(cfg.seed, cfg.users);
        Sim::new(cfg, pop)
    }

    fn toy_sim(seed: u64) -> Sim {
        sim_for(SimConfig::toy(seed))
    }

    /// Toy variants that knock the rates around so different code
    /// paths dominate: a busy site, a nearly idle one, and one where
    /// promotion is unattainable so stories can only expire.
    fn config_variations() -> [SimConfig; 3] {
        let mut busy = SimConfig::toy(5);
        busy.submissions_per_minute = 1.0;
        busy.frontpage_sessions_per_minute = 12.0;
        busy.external_rate = 0.2;

        let mut quiet = SimConfig::toy(6);
        quiet.submissions_per_minute = 0.02;
        quiet.upcoming_sessions_per_minute = 0.1;
        quiet.frontpage_sessions_per_minute = 0.1;

        let mut unpromotable = SimConfig::toy(9);
        unpromotable.promoter = PromoterKind::Threshold { min_votes: 100_000 };

        [busy, quiet, unpromotable]
    }

    #[test]
    fn runs_and_submits() {
        let mut sim = toy_sim(1);
        sim.run(600);
        assert_eq!(sim.now(), Minute(600));
        assert!(sim.metrics().submissions > 0, "no submissions in 10h");
        assert_eq!(sim.metrics().submissions as usize, sim.stories().len());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = toy_sim(42);
        let mut b = toy_sim(42);
        a.run(600);
        b.run(600);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.stories().len(), b.stories().len());
        for (x, y) in a.stories().iter().zip(b.stories()) {
            assert_eq!(x.votes, y.votes);
            assert_eq!(x.quality, y.quality);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = toy_sim(1);
        let mut b = toy_sim(2);
        a.run(300);
        b.run(300);
        // Overwhelmingly likely to differ somewhere.
        assert_ne!(
            (a.metrics().submissions, a.metrics().total_votes()),
            (b.metrics().submissions, b.metrics().total_votes())
        );
    }

    #[test]
    fn promotion_boundary_holds() {
        let mut sim = toy_sim(7);
        sim.run(1200);
        assert!(sim.metrics().promotions > 0, "nothing promoted");
        assert_eq!(queue_boundary_violations(&sim), 0);
        // Every promoted story crossed the threshold.
        for (id, _) in sim.front_page().all() {
            assert!(sim.story(id).vote_count() >= 10);
        }
    }

    #[test]
    fn promoted_stories_leave_queue() {
        let mut sim = toy_sim(3);
        sim.run(1200);
        for (id, _) in sim.front_page().all() {
            assert!(!sim.upcoming_queue().all().contains(&id));
            assert!(sim.story(id).is_front_page());
        }
    }

    #[test]
    fn expired_stories_are_marked() {
        // Make promotion unattainable so stories can only expire.
        let mut cfg = SimConfig::toy(4);
        cfg.promoter = PromoterKind::Threshold { min_votes: 100_000 };
        let mut sim = sim_for(cfg);
        sim.run(1500);
        assert!(sim.metrics().expirations > 0);
        let expired = sim
            .stories()
            .iter()
            .filter(|s| matches!(s.status, StoryStatus::Expired(_)))
            .count();
        assert_eq!(expired as u64, sim.metrics().expirations);
    }

    #[test]
    fn votes_are_unique_per_user() {
        let mut sim = toy_sim(5);
        sim.run(800);
        for s in sim.stories() {
            let mut users: Vec<UserId> = s.votes.iter().map(|v| v.user).collect();
            users.sort_unstable();
            let before = users.len();
            users.dedup();
            assert_eq!(users.len(), before, "duplicate votes on {}", s.id);
        }
    }

    #[test]
    fn vote_times_are_monotone() {
        let mut sim = toy_sim(6);
        sim.run(800);
        for s in sim.stories() {
            assert!(s
                .votes
                .iter()
                .zip(s.votes.iter().skip(1))
                .all(|(a, b)| a.at <= b.at));
            assert_eq!(s.votes.get(0).user, s.submitter);
        }
    }

    #[test]
    fn social_channel_is_active() {
        let mut sim = toy_sim(8);
        sim.run(1200);
        assert!(
            sim.metrics().votes_friends > 0,
            "friends channel never fired: {:?}",
            sim.metrics()
        );
        assert!(sim.metrics().votes_frontpage > 0);
    }

    #[test]
    fn config_accessible() {
        let sim = toy_sim(9);
        assert_eq!(sim.config().users, 400);
        assert_eq!(sim.population().len(), 400);
    }

    #[test]
    #[should_panic(expected = "must match population size")]
    fn population_size_mismatch_panics() {
        let cfg = SimConfig::toy(1);
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::generate(&mut rng, &PopulationConfig::toy(10));
        let _ = Sim::new(cfg, pop);
    }

    #[test]
    fn event_streams_kernel_upholds_core_invariants() {
        let mut cfgs = vec![SimConfig::toy(11)];
        cfgs.extend(config_variations());
        for cfg in cfgs {
            let promotable = cfg.promoter != PromoterKind::Threshold { min_votes: 100_000 };
            let mut sim = sim_for(cfg);
            sim.run(1200);
            assert_eq!(sim.now(), Minute(1200));
            assert!(sim.metrics().submissions > 0, "dead scenario");
            assert_eq!(sim.metrics().submissions as usize, sim.stories().len());
            assert_eq!(
                sim.metrics().promotions > 0,
                promotable,
                "promotions: {:?}",
                sim.metrics()
            );
            assert_eq!(queue_boundary_violations(&sim), 0);
            for s in sim.stories() {
                assert!(s
                    .votes
                    .iter()
                    .zip(s.votes.iter().skip(1))
                    .all(|(a, b)| a.at <= b.at));
                assert_eq!(s.votes.get(0).user, s.submitter);
                let mut users: Vec<UserId> = s.votes.iter().map(|v| v.user).collect();
                users.sort_unstable();
                let before = users.len();
                users.dedup();
                assert_eq!(users.len(), before, "duplicate votes on {}", s.id);
            }
            let story_votes: u64 = sim
                .stories()
                .iter()
                .map(|s| s.vote_count() as u64 - 1)
                .sum();
            assert_eq!(sim.metrics().total_votes(), story_votes);
        }
    }

    #[test]
    fn incremental_runs_match_one_shot() {
        // digg-data drives the sim in stages (run to scrape, scrape,
        // run on): a staged schedule must leave every observable —
        // vote logs, statuses, listings, snapshot bytes — exactly as
        // one uninterrupted run does.
        let mut cfgs: Vec<SimConfig> = [1u64, 2, 7, 42, 2006]
            .into_iter()
            .map(SimConfig::toy)
            .collect();
        cfgs.extend(config_variations());
        for cfg in cfgs {
            let mut staged = sim_for(cfg.clone());
            for span in [1u64, 59, 240, 7, 693, 200] {
                staged.run(span);
            }
            let mut whole = sim_for(cfg);
            whole.run(1200);
            assert_same_trajectory(&whole, &staged);
        }
    }

    /// FNV-1a64 over every story's votes `(user, at, channel)` and its
    /// final status, in story order.
    fn trajectory_hash(sim: &Sim) -> u64 {
        let mut w = ByteWriter::new();
        for s in sim.stories() {
            w.put_usize(s.vote_count());
            for v in s.votes.iter() {
                w.put_u32(v.user.0);
                w.put_u64(v.at.0);
                v.channel.encode(&mut w);
            }
            let (tag, at) = match s.status {
                StoryStatus::Upcoming => (0, 0),
                StoryStatus::FrontPage(t) => (1, t.0),
                StoryStatus::Expired(t) => (2, t.0),
            };
            w.put_u8(tag);
            w.put_u64(at);
        }
        digg_snapshot::fnv1a64(&w.into_bytes())
    }

    /// The sample path, pinned across builds: how the engine finds its
    /// votes may change, which votes it casts may not. Covers the toy
    /// variations and one day of the reduced June-2006 scenario, whose
    /// front page draws votes.
    #[test]
    fn trajectories_are_pinned() {
        let day = crate::time::DAY;
        let mut got: Vec<(u64, u64)> = config_variations()
            .into_iter()
            .map(|cfg| {
                let mut sim = sim_for(cfg);
                sim.run(day);
                (sim.metrics().total_votes(), trajectory_hash(&sim))
            })
            .collect();
        let (cfg, pop) = crate::scenario::june2006_small(2006);
        let mut sim = Sim::new(cfg, pop);
        sim.run(day);
        assert!(sim.metrics().votes_frontpage > 0, "{:?}", sim.metrics());
        got.push((sim.metrics().total_votes(), trajectory_hash(&sim)));
        assert_eq!(
            got,
            [
                (63_701, 0x07be_5574_5243_b7a1),
                (392, 0x5eca_26d7_e095_5c6a),
                (6_922, 0xed81_d3ab_e016_eb42),
                (4_999, 0xa60b_1930_f4da_b601),
            ],
            "sample path changed"
        );
    }

    fn toy_pop(seed: u64, users: usize) -> Population {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        Population::generate(&mut rng, &PopulationConfig::toy(users))
    }

    fn assert_same_trajectory(a: &Sim, b: &Sim) {
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stories().len(), b.stories().len());
        for (x, y) in a.stories().iter().zip(b.stories()) {
            assert_eq!(x.votes, y.votes);
            assert_eq!(x.status, y.status);
            assert_eq!(x.quality.to_bits(), y.quality.to_bits());
        }
        assert_eq!(a.front_page().all(), b.front_page().all());
        assert_eq!(a.snapshot(), b.snapshot(), "snapshot bytes diverge");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut straight = toy_sim(21);
        let mut paused = toy_sim(21);
        paused.run(350);
        // The cut lands after a promotion whose story drew front-page
        // votes, so the rebuilt listing state is exercised.
        let front_votes = |sim: &Sim| {
            sim.front_page()
                .all()
                .iter()
                .map(|&(id, _)| sim.story(id).channel_breakdown().1)
                .sum::<usize>()
        };
        assert!(front_votes(&paused) > 0, "{:?}", paused.metrics());
        let bytes = paused.snapshot();
        let mut resumed =
            Sim::restore(&bytes, toy_pop(21, paused.config().users)).expect("restore");
        // The restored sim snapshots back to the same bytes…
        assert_eq!(resumed.snapshot(), bytes);
        // …and the remainder of the run is bit-identical to never
        // having paused at all.
        straight.run(900);
        paused.run(550);
        resumed.run(550);
        assert_same_trajectory(&straight, &paused);
        assert_same_trajectory(&straight, &resumed);
    }

    /// Past the event queue's 4096-minute ring: a week-long run with a
    /// snapshot/restore hop halfway through the second lap matches the
    /// run that never paused.
    #[test]
    fn restore_mid_ring_lap_resumes_bit_identically() {
        let (hop, end) = (4096 + 2048, 7 * 24 * 60);
        let mut straight = toy_sim(22);
        let mut paused = toy_sim(22);
        paused.run(hop);
        let bytes = paused.snapshot();
        let mut resumed =
            Sim::restore(&bytes, toy_pop(22, paused.config().users)).expect("restore");
        assert_eq!(resumed.snapshot(), bytes);
        straight.run(end);
        resumed.run(end - hop);
        assert_same_trajectory(&straight, &resumed);
    }

    /// The checkpoint format, pinned across builds: a fixed 10-hour toy
    /// run must snapshot to these exact bytes, or
    /// `digg_snapshot::FORMAT_VERSION` needs a bump.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let mut sim = toy_sim(21);
        sim.run(600);
        let bytes = sim.snapshot();
        assert_eq!(
            (bytes.len(), digg_snapshot::fnv1a64(&bytes)),
            (58_754, 0xd4dc_63d2_8e75_839e),
            "snapshot format changed"
        );
    }

    #[test]
    fn restore_rejects_the_wrong_population() {
        let mut sim = toy_sim(30);
        sim.run(100);
        let bytes = sim.snapshot();
        let err = match Sim::restore(&bytes, toy_pop(31, sim.config().users)) {
            Err(e) => e,
            Ok(_) => panic!("restore accepted a mismatched population"),
        };
        match err {
            SnapshotError::Malformed(msg) => assert!(msg.contains("fingerprint"), "{msg}"),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    /// Same users, weights and edge count, every edge reversed: the
    /// fingerprint covers the wiring, not just the size.
    #[test]
    fn restore_rejects_a_rewired_population() {
        let mut sim = toy_sim(30);
        sim.run(100);
        let bytes = sim.snapshot();
        let mut pop = toy_pop(30, sim.config().users);
        let mut b = social_graph::GraphBuilder::new(pop.len());
        b.extend_watches(pop.graph.edges().map(|(a, c)| (c, a)));
        let reversed = b.build();
        assert_eq!(reversed.edge_count(), pop.graph.edge_count());
        assert!(reversed != pop.graph);
        pop.graph = reversed;
        match Sim::restore(&bytes, pop) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("fingerprint"), "{msg}"),
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("restore accepted a rewired population"),
        }
    }

    #[test]
    fn restore_of_corrupted_snapshot_is_a_typed_error() {
        let mut sim = toy_sim(33);
        sim.run(120);
        let mut bytes = sim.snapshot();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match Sim::restore(&bytes, toy_pop(33, sim.config().users)) {
            Err(_) => {}
            Ok(_) => panic!("restore accepted a corrupted snapshot"),
        }
    }

    /// Rebuild a valid container with one section's payload replaced;
    /// the checksums stay valid, so only `Sim::restore`'s own checks
    /// stand between the forged ids and a panic in browsing.
    fn with_section(bytes: &[u8], name: &str, payload: Vec<u8>) -> Vec<u8> {
        let c = SnapshotReader::parse(bytes).expect("parse");
        let mut forged = SnapshotWriter::new();
        for section in c.section_names() {
            let body = if section == name {
                payload.clone()
            } else {
                c.section(section).expect("section").to_vec()
            };
            forged.section(section, body);
        }
        forged.finish()
    }

    #[test]
    fn restore_rejects_out_of_range_ids() {
        let mut sim = toy_sim(34);
        sim.run(300);
        let bytes = sim.snapshot();
        let users = u32::try_from(sim.population().len()).expect("users");
        let stories = u32::try_from(sim.stories().len()).expect("stories");
        // The last story with one more vote, or with another submitter.
        let last_story = |voter: Option<u32>, submitter: Option<u32>| {
            let mut forged = sim.stories().to_vec();
            let last = forged.last_mut().expect("a story");
            if let Some(u) = voter {
                last.votes.push(Vote {
                    user: UserId(u),
                    at: sim.now(),
                    channel: VoteChannel::Friends,
                });
            }
            if let Some(u) = submitter {
                last.submitter = UserId(u);
            }
            let mut w = ByteWriter::new();
            w.put_usize(forged.len());
            for s in &forged {
                s.encode(&mut w);
            }
            w.into_bytes()
        };
        // The live front listing after `edit`.
        let listing = |edit: fn(&mut Vec<(StoryId, Minute)>, u32)| {
            let mut entries: Vec<_> = sim.front.snapshot_entries().collect();
            assert!(!entries.is_empty(), "nothing promoted by minute 300");
            edit(&mut entries, stories);
            let mut w = ByteWriter::new();
            w.put_usize(entries.len());
            for (id, at) in entries {
                w.put_u32(id.0);
                w.put_u64(at.0);
            }
            w.into_bytes()
        };
        let pending = |class: u8, ev: Ev| {
            let mut q = EventQueue::new();
            q.schedule(sim.now().0 + 1, class, ev);
            q.snapshot()
        };
        let expiry = |story: u32| Ev::Expiry(StoryId(story));
        let exposure = |fan: u32, story: u32| Ev::Exposure {
            fan: UserId(fan),
            story: StoryId(story),
        };
        let arrival = |story: u32| Ev::ExternalArrival {
            story: StoryId(story),
            rng: StreamRng::keyed(34, &[u64::from(story)]),
            tau: 0.0,
        };
        // The forgeries are well-formed containers: a valid payload in
        // the same shape restores.
        for (section, payload) in [
            ("stories", last_story(Some(users - 1), Some(users - 1))),
            ("front", listing(|_, _| {})),
            ("events", pending(CLASS_EXPIRY, expiry(stories - 1))),
            (
                "events",
                pending(CLASS_EXPOSE, exposure(users - 1, stories - 1)),
            ),
            ("events", pending(CLASS_EXTERNAL, arrival(stories - 1))),
        ] {
            let valid = with_section(&bytes, section, payload);
            assert!(Sim::restore(&valid, toy_pop(34, sim.config().users)).is_ok());
        }
        for (section, payload) in [
            ("stories", last_story(Some(users), None)),
            ("stories", last_story(None, Some(users))),
            ("front", listing(|e, stories| e[0].0 = StoryId(stories))),
            // The first promotion was not at minute 0.
            ("front", listing(|e, _| e[0].1 = Minute::ZERO)),
            // A promoted story left off the listing.
            ("front", listing(|e, _| e.truncate(e.len() - 1))),
            ("events", pending(CLASS_EXPIRY, expiry(stories))),
            ("events", pending(CLASS_EXPOSE, exposure(users, 0))),
            ("events", pending(CLASS_EXPOSE, exposure(0, stories))),
            ("events", pending(CLASS_EXTERNAL, arrival(stories))),
        ] {
            let forged = with_section(&bytes, section, payload);
            match Sim::restore(&forged, toy_pop(34, sim.config().users)) {
                Err(SnapshotError::Malformed(_)) => {}
                Err(e) => panic!("{section}: expected Malformed, got {e}"),
                Ok(_) => panic!("{section}: restore accepted an out-of-range id"),
            }
        }
    }

    /// What `restore` rebuilds equals what the live run built, at every
    /// instant the restore tests hop at: the dedup rows (every voter and
    /// every voter's fans), the front page's weights, positions and
    /// voted bits, the upcoming listing, and the diversity fold of every
    /// story the rule may still check (a story with no vote beyond its
    /// submitter's has folded nothing yet, live or restored).
    #[test]
    fn rebuilt_state_equals_the_live_state() {
        let mut diverse = SimConfig::toy(23);
        diverse.promoter = PromoterKind::Diversity {
            min_weighted: 10.0,
            in_network_weight: 0.4,
        };
        let mut cfgs = vec![
            SimConfig::toy(21),
            SimConfig::toy(22),
            SimConfig::toy(34),
            diverse,
        ];
        cfgs.extend(config_variations());
        for cfg in cfgs {
            let mut sim = sim_for(cfg);
            for at in [300, 350, 4096 + 2048, 7 * 24 * 60] {
                sim.run(at - sim.now().0);
                if let PromoterKind::Diversity { .. } = sim.cfg.promoter {
                    assert!(sim.metrics.promotions > 0, "nothing promoted by {at}");
                }
                let queue = UpcomingQueue::rebuild(sim.cfg.page_size, &sim.stories);
                assert_eq!(queue, sim.queue, "seed {} at minute {at}", sim.cfg.seed);
                // A story's next check lands on the same fold from the
                // live state as from the empty one restore starts at.
                for (s, &live) in sim.stories.iter().zip(&sim.folds) {
                    if s.is_upcoming() && s.age_at(sim.now) <= sim.cfg.queue_lifetime {
                        let (mut live, mut fresh) = (live, PromoterState::default());
                        let promoter = sim.cfg.promoter;
                        promoter.should_promote(&mut live, s, &sim.pop.graph);
                        promoter.should_promote(&mut fresh, s, &sim.pop.graph);
                        assert_eq!(
                            (fresh.weighted.to_bits(), fresh.applied),
                            (live.weighted.to_bits(), live.applied),
                            "story {} at minute {at}",
                            s.id
                        );
                    }
                }
                let rebuilt = ExposureRows::rebuild(sim.pop.len(), &sim.stories, &sim.pop.graph);
                assert_eq!(
                    rebuilt, sim.scheduled,
                    "seed {} at minute {at}",
                    sim.cfg.seed
                );
                let listing: Vec<_> = sim.front.snapshot_entries().collect();
                let front =
                    FrontPage::from_snapshot(sim.cfg.frontpage_vote_prob, &listing, &sim.stories);
                assert_eq!(front, sim.front, "seed {} at minute {at}", sim.cfg.seed);
            }
        }
    }

    /// A container from the previous format version carries `queue` and
    /// `promo` sections that this build rebuilds instead; it must refuse
    /// the container rather than guess at its layout.
    #[test]
    fn restore_refuses_a_version_6_snapshot() {
        let mut sim = toy_sim(35);
        sim.run(300);
        let mut bytes = sim.snapshot();
        bytes[8..12].copy_from_slice(&6u32.to_le_bytes());
        match Sim::restore(&bytes, toy_pop(35, sim.config().users)) {
            Err(SnapshotError::VersionMismatch { found: 6, expected }) => {
                assert_eq!(expected, digg_snapshot::FORMAT_VERSION);
            }
            Err(e) => panic!("expected VersionMismatch, got {e}"),
            Ok(_) => panic!("restore accepted a version-6 snapshot"),
        }
    }

    #[test]
    fn run_budgeted_pauses_without_disturbing_the_trajectory() {
        // Drain the same horizon in tiny event budgets; state at the
        // end must match a single unbudgeted run — this is what lets a
        // sweep worker checkpoint every N events.
        let mut budgeted = toy_sim(17);
        let mut straight = toy_sim(17);
        let horizon = Minute(500);
        let mut slices = 0u32;
        while !budgeted.run_budgeted(horizon, 64) {
            slices += 1;
            assert!(slices < 100_000, "budgeted run failed to make progress");
        }
        straight.run(500);
        assert_same_trajectory(&straight, &budgeted);
        assert!(slices > 2, "budget was never exhausted mid-run");
    }
}
