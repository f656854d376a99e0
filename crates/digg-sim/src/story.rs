//! Stories, votes and story lifecycle.

use crate::time::Minute;
use digg_snapshot::{ByteReader, ByteWriter, Codec, SnapshotError};
use serde::{DeError, Deserialize, Serialize, Value};
use social_graph::UserId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a story, dense in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct StoryId(pub u32);

impl StoryId {
    /// Dense index for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds `u32::MAX`.
    #[inline]
    pub fn from_index(i: usize) -> StoryId {
        // digg-lint: allow(no-lib-unwrap) — the single checked index→id conversion point the cast rule routes callers to
        StoryId(u32::try_from(i).expect("story index exceeds u32 range"))
    }
}

impl fmt::Display for StoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// How a voter discovered the story. Ground truth for tests and
/// ablations; the scraper deliberately does *not* export it (the paper
/// had no such signal and inferred network spread from the fan graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VoteChannel {
    /// Saw the story in the Friends interface (fan of a prior voter or
    /// of the submitter) — the paper's network-based spread.
    Friends,
    /// Browsing the front page.
    FrontPage,
    /// Browsing the upcoming queue.
    Upcoming,
    /// Independent discovery outside Digg ("Digg it" buttons, search)
    /// — the paper's interest-based seeds.
    External,
}

/// One vote. The submitter's implicit vote is stored like any other,
/// with channel [`VoteChannel::External`], as the first entry.
///
/// This is the *view* type: the sweep-facing storage is the
/// column-oriented [`VoteLog`], which assembles `Vote` values on
/// demand. `Vote` is `Copy`, so the materialisation is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vote {
    /// Who voted.
    pub user: UserId,
    /// When.
    pub at: Minute,
    /// Discovery channel (ground truth, not scraped).
    pub channel: VoteChannel,
}

/// Chronological vote storage, structure-of-arrays.
///
/// The analysis hot paths — promotion folds, sweep catch-ups, the
/// figure experiments — each touch exactly one attribute of every
/// vote: the voter ids, or the timestamps, or the channels. Storing
/// `Vec<Vote>` interleaved the three, so a voter-id scan dragged the
/// timestamps and channel tags through cache with it (24 bytes per
/// vote touched to read 4). The log keeps three parallel columns
/// instead; [`users`](VoteLog::users) / [`ats`](VoteLog::ats) /
/// [`channels`](VoteLog::channels) expose them as dense slices, and
/// [`iter`](VoteLog::iter) / [`get`](VoteLog::get) re-assemble
/// [`Vote`] values for callers that want rows.
///
/// Serialization (serde and [`Codec`]) is byte-identical to the old
/// `Vec<Vote>`: a sequence of `(user, at, channel)` rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VoteLog {
    users: Vec<UserId>,
    ats: Vec<Minute>,
    channels: Vec<VoteChannel>,
}

impl VoteLog {
    /// Empty log.
    pub fn new() -> VoteLog {
        VoteLog::default()
    }

    /// Number of votes.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when no votes are recorded (never the case for a story,
    /// whose submitter votes implicitly).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Append a vote (no dedup — [`Story::add_vote`] owns that).
    pub fn push(&mut self, v: Vote) {
        self.users.push(v.user);
        self.ats.push(v.at);
        self.channels.push(v.channel);
    }

    /// The `k`-th vote as a row. Panics if out of range, like slice
    /// indexing.
    pub fn get(&self, k: usize) -> Vote {
        Vote {
            user: self.users[k],
            at: self.ats[k],
            channel: self.channels[k],
        }
    }

    /// Voter ids, chronological. The column the promotion fold and the
    /// in-network sweeps scan.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Vote timestamps, chronological (non-decreasing).
    pub fn ats(&self) -> &[Minute] {
        &self.ats
    }

    /// Discovery channels, chronological.
    pub fn channels(&self) -> &[VoteChannel] {
        &self.channels
    }

    /// Iterate votes as rows, chronological.
    pub fn iter(&self) -> VoteIter<'_> {
        VoteIter { log: self, k: 0 }
    }
}

/// Row iterator over a [`VoteLog`]; yields [`Vote`] by value.
pub struct VoteIter<'a> {
    log: &'a VoteLog,
    k: usize,
}

impl Iterator for VoteIter<'_> {
    type Item = Vote;

    fn next(&mut self) -> Option<Vote> {
        if self.k < self.log.len() {
            let v = self.log.get(self.k);
            self.k += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.log.len() - self.k;
        (n, Some(n))
    }
}

impl ExactSizeIterator for VoteIter<'_> {}

impl<'a> IntoIterator for &'a VoteLog {
    type Item = Vote;
    type IntoIter = VoteIter<'a>;

    fn into_iter(self) -> VoteIter<'a> {
        self.iter()
    }
}

impl FromIterator<Vote> for VoteLog {
    fn from_iter<I: IntoIterator<Item = Vote>>(iter: I) -> VoteLog {
        let mut log = VoteLog::new();
        for v in iter {
            log.push(v);
        }
        log
    }
}

/// Rows, exactly as `Vec<Vote>` serialized.
impl Serialize for VoteLog {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|v| v.to_value()).collect())
    }
}

impl Deserialize for VoteLog {
    fn from_value(value: &Value) -> Result<VoteLog, DeError> {
        Ok(Vec::<Vote>::from_value(value)?.into_iter().collect())
    }
}

/// Multiplicative (Fibonacci) hashing for the dense `u32` user ids
/// that key [`Story`]'s voter index: one multiply per lookup instead of
/// SipHash. The ids are population indices the program assigns itself,
/// so there are no outside keys to collide on purpose.
#[derive(Default)]
struct IdHasher(u64);

/// `2^64 / φ`, odd: multiplying by it permutes the low bits the table
/// indexes by and spreads every id bit into the high bits.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(FIBONACCI);
    }
}

/// Story lifecycle. Mirrors Digg's: submissions enter the upcoming
/// queue; within 24 hours they are either promoted to the front page
/// or removed from the queue (but remain reachable from outside).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoryStatus {
    /// In the upcoming queue.
    Upcoming,
    /// On the front page; the payload is the promotion time.
    FrontPage(Minute),
    /// Fell off the upcoming queue unpromoted.
    Expired(Minute),
}

/// A story and its complete voting record.
#[derive(Debug, Clone, Serialize)]
pub struct Story {
    /// Identifier (submission order).
    pub id: StoryId,
    /// Submitting user.
    pub submitter: UserId,
    /// Submission time.
    pub submitted_at: Minute,
    /// Latent appeal to the general Digg audience, in `(0, 1)`. Drives
    /// interest-based voting. Hidden from the scraper.
    pub quality: f64,
    /// Votes in chronological order, column-oriented; the first vote
    /// is the submitter's.
    pub votes: VoteLog,
    /// Lifecycle state.
    pub status: StoryStatus,
    /// Voter -> position of their vote in `votes`. Lookup-only (never
    /// iterated), so the unordered map cannot leak nondeterminism;
    /// serde skips it like the voter set it replaced, keeping the
    /// serialized bytes unchanged.
    #[serde(skip)]
    voter_pos: HashMap<UserId, u32, BuildHasherDefault<IdHasher>>,
}

impl Story {
    /// Create a story; records the submitter's own implicit first vote.
    pub fn new(id: StoryId, submitter: UserId, at: Minute, quality: f64) -> Story {
        let mut voter_pos = HashMap::default();
        voter_pos.insert(submitter, 0);
        Story {
            id,
            submitter,
            submitted_at: at,
            quality,
            votes: VoteLog::from_iter([Vote {
                user: submitter,
                at,
                channel: VoteChannel::External,
            }]),
            status: StoryStatus::Upcoming,
            voter_pos,
        }
    }

    /// Total votes (including the submitter's).
    pub fn vote_count(&self) -> usize {
        self.votes.len()
    }

    /// Has `user` already voted?
    pub fn has_voted(&self, user: UserId) -> bool {
        self.voter_pos.contains_key(&user)
    }

    /// Had `user` voted within the first `k` votes? Position-aware,
    /// so incremental folds stay exact even while catching up on a
    /// story that has since grown past `k`.
    pub fn voted_before(&self, user: UserId, k: usize) -> bool {
        self.voter_pos.get(&user).is_some_and(|&p| (p as usize) < k)
    }

    /// Record a vote. Returns `false` (and records nothing) if the
    /// user already voted. Positions are `u32`: a story holds at most
    /// one vote per user id, so every new voter's position fits.
    pub fn add_vote(&mut self, user: UserId, at: Minute, channel: VoteChannel) -> bool {
        let Ok(pos) = u32::try_from(self.votes.len()) else {
            return false;
        };
        match self.voter_pos.entry(user) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(pos);
                self.votes.push(Vote { user, at, channel });
                true
            }
        }
    }

    /// Story age at `now` in minutes.
    pub fn age_at(&self, now: Minute) -> u64 {
        now.since(self.submitted_at)
    }

    /// Is the story currently in the upcoming queue?
    pub fn is_upcoming(&self) -> bool {
        matches!(self.status, StoryStatus::Upcoming)
    }

    /// Is the story on the front page?
    pub fn is_front_page(&self) -> bool {
        matches!(self.status, StoryStatus::FrontPage(_))
    }

    /// Promotion time, if promoted.
    pub fn promoted_at(&self) -> Option<Minute> {
        match self.status {
            StoryStatus::FrontPage(t) => Some(t),
            _ => None,
        }
    }

    /// Voters in chronological order (the scraped artifact: names in
    /// vote order, submitter first, no timestamps).
    pub fn voters_chronological(&self) -> Vec<UserId> {
        self.votes.users().to_vec()
    }

    /// Number of votes arriving through each channel; order:
    /// `(friends, front_page, upcoming, external)`.
    pub fn channel_breakdown(&self) -> (usize, usize, usize, usize) {
        let mut f = 0;
        let mut p = 0;
        let mut u = 0;
        let mut e = 0;
        for channel in self.votes.channels() {
            match channel {
                VoteChannel::Friends => f += 1,
                VoteChannel::FrontPage => p += 1,
                VoteChannel::Upcoming => u += 1,
                VoteChannel::External => e += 1,
            }
        }
        (f, p, u, e)
    }

    /// Rebuild the internal voter index from the vote list.
    /// [`Deserialize`] and [`Codec::decode`] call this eagerly, so a
    /// freshly decoded story answers `has_voted`/`voted_before`
    /// correctly without any caller action. Idempotent; first vote
    /// wins should a hand-built vote list contain duplicates.
    pub fn rebuild_index(&mut self) {
        self.voter_pos.clear();
        for (k, &user) in (0..=u32::MAX).zip(self.votes.users()) {
            self.voter_pos.entry(user).or_insert(k);
        }
    }
}

/// Manual impl (the derive would leave the skipped `voter_pos` empty):
/// decode the serialized fields, then rebuild the voter index eagerly.
/// Before this, a deserialized `Story` silently answered
/// `has_voted == false` for everyone until someone remembered to call
/// [`Story::rebuild_index`].
impl Deserialize for Story {
    fn from_value(value: &Value) -> Result<Story, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Story", value))?;
        let mut story = Story {
            id: serde::from_field(entries, "id", "Story")?,
            submitter: serde::from_field(entries, "submitter", "Story")?,
            submitted_at: serde::from_field(entries, "submitted_at", "Story")?,
            quality: serde::from_field(entries, "quality", "Story")?,
            votes: serde::from_field(entries, "votes", "Story")?,
            status: serde::from_field(entries, "status", "Story")?,
            voter_pos: HashMap::default(),
        };
        story.rebuild_index();
        Ok(story)
    }
}

impl Codec for VoteChannel {
    fn encode(&self, out: &mut ByteWriter) {
        out.put_u8(match self {
            VoteChannel::Friends => 0,
            VoteChannel::FrontPage => 1,
            VoteChannel::Upcoming => 2,
            VoteChannel::External => 3,
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<VoteChannel, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(VoteChannel::Friends),
            1 => Ok(VoteChannel::FrontPage),
            2 => Ok(VoteChannel::Upcoming),
            3 => Ok(VoteChannel::External),
            t => Err(SnapshotError::Malformed(format!("vote channel tag {t}"))),
        }
    }
}

/// Binary story encoding for checkpoints. `voter_pos` is rebuilt on
/// decode (it is a pure function of `votes`), so the bytes stay
/// order-stable and a decoded story is immediately queryable.
impl Codec for Story {
    fn encode(&self, out: &mut ByteWriter) {
        out.put_u32(self.id.0);
        out.put_u32(self.submitter.0);
        out.put_u64(self.submitted_at.0);
        out.put_f64(self.quality);
        match self.status {
            StoryStatus::Upcoming => out.put_u8(0),
            StoryStatus::FrontPage(t) => {
                out.put_u8(1);
                out.put_u64(t.0);
            }
            StoryStatus::Expired(t) => {
                out.put_u8(2);
                out.put_u64(t.0);
            }
        }
        out.put_usize(self.votes.len());
        for v in self.votes.iter() {
            out.put_u32(v.user.0);
            out.put_u64(v.at.0);
            v.channel.encode(out);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Story, SnapshotError> {
        let id = StoryId(r.get_u32()?);
        let submitter = UserId(r.get_u32()?);
        let submitted_at = Minute(r.get_u64()?);
        let quality = r.get_f64()?;
        let status = match r.get_u8()? {
            0 => StoryStatus::Upcoming,
            1 => StoryStatus::FrontPage(Minute(r.get_u64()?)),
            2 => StoryStatus::Expired(Minute(r.get_u64()?)),
            t => return Err(SnapshotError::Malformed(format!("story status tag {t}"))),
        };
        let n = r.get_usize()?;
        let mut votes = VoteLog::new();
        for _ in 0..n {
            let user = UserId(r.get_u32()?);
            let at = Minute(r.get_u64()?);
            let channel = VoteChannel::decode(r)?;
            votes.push(Vote { user, at, channel });
        }
        let mut story = Story {
            id,
            submitter,
            submitted_at,
            quality,
            votes,
            status,
            voter_pos: HashMap::default(),
        };
        story.rebuild_index();
        Ok(story)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn story() -> Story {
        Story::new(StoryId(0), UserId(7), Minute(100), 0.5)
    }

    #[test]
    fn submitter_vote_is_implicit() {
        let s = story();
        assert_eq!(s.vote_count(), 1);
        assert!(s.has_voted(UserId(7)));
        assert_eq!(s.votes.get(0).user, UserId(7));
        assert_eq!(s.votes.get(0).at, Minute(100));
    }

    #[test]
    fn double_votes_rejected() {
        let mut s = story();
        assert!(s.add_vote(UserId(1), Minute(101), VoteChannel::Friends));
        assert!(!s.add_vote(UserId(1), Minute(102), VoteChannel::FrontPage));
        assert!(!s.add_vote(UserId(7), Minute(102), VoteChannel::External));
        assert_eq!(s.vote_count(), 2);
    }

    #[test]
    fn votes_stay_chronological() {
        let mut s = story();
        s.add_vote(UserId(1), Minute(105), VoteChannel::Upcoming);
        s.add_vote(UserId(2), Minute(110), VoteChannel::Friends);
        let order = s.voters_chronological();
        assert_eq!(order, vec![UserId(7), UserId(1), UserId(2)]);
    }

    #[test]
    fn lifecycle_predicates() {
        let mut s = story();
        assert!(s.is_upcoming());
        assert!(!s.is_front_page());
        assert_eq!(s.promoted_at(), None);
        s.status = StoryStatus::FrontPage(Minute(200));
        assert!(s.is_front_page());
        assert_eq!(s.promoted_at(), Some(Minute(200)));
    }

    #[test]
    fn age_and_channels() {
        let mut s = story();
        assert_eq!(s.age_at(Minute(160)), 60);
        assert_eq!(s.age_at(Minute(50)), 0);
        s.add_vote(UserId(1), Minute(101), VoteChannel::Friends);
        s.add_vote(UserId(2), Minute(101), VoteChannel::FrontPage);
        s.add_vote(UserId(3), Minute(101), VoteChannel::Upcoming);
        let (f, p, u, e) = s.channel_breakdown();
        assert_eq!((f, p, u, e), (1, 1, 1, 1));
    }

    #[test]
    fn vote_positions_are_chronological() {
        let mut s = story();
        s.add_vote(UserId(1), Minute(105), VoteChannel::Upcoming);
        s.add_vote(UserId(2), Minute(110), VoteChannel::Friends);
        // voted_before is a strict prefix test over vote positions.
        assert!(s.voted_before(UserId(1), 2));
        assert!(!s.voted_before(UserId(1), 1));
        assert!(!s.voted_before(UserId(2), 2));
        assert!(s.voted_before(UserId(7), 1));
        assert!(!s.voted_before(UserId(9), 99));
    }

    #[test]
    fn deserialization_rebuilds_the_voter_index_eagerly() {
        let mut s = story();
        s.add_vote(UserId(1), Minute(101), VoteChannel::Friends);
        let json = serde_json::to_string(&s).unwrap();
        let mut s2: Story = serde_json::from_str(&json).unwrap();
        // No rebuild_index() call: the index must already be live, or
        // the dedup silently admits duplicate votes.
        assert!(s2.has_voted(UserId(1)));
        assert!(s2.has_voted(UserId(7)));
        assert!(s2.voted_before(UserId(1), 2) && !s2.voted_before(UserId(1), 1));
        assert!(s2.voted_before(UserId(7), 1));
        assert!(!s2.add_vote(UserId(1), Minute(200), VoteChannel::External));
        assert_eq!(s2.vote_count(), s.vote_count());
    }

    #[test]
    fn codec_round_trip_preserves_everything_queryable() {
        let mut s = story();
        s.add_vote(UserId(1), Minute(105), VoteChannel::Upcoming);
        s.add_vote(UserId(2), Minute(110), VoteChannel::Friends);
        s.status = StoryStatus::FrontPage(Minute(120));
        let mut w = ByteWriter::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let s2 = Story::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(s2.id, s.id);
        assert_eq!(s2.votes, s.votes);
        assert_eq!(s2.status, s.status);
        assert_eq!(s2.quality.to_bits(), s.quality.to_bits());
        // The voter index is live on the decoded copy too.
        assert!(s2.has_voted(UserId(2)));
        assert!(s2.voted_before(UserId(1), 2) && !s2.voted_before(UserId(1), 1));
        // A truncated story decodes to a typed error, not a panic.
        for cut in 0..bytes.len() {
            assert!(Story::decode(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }
}
