//! Seeded inputs and the benchmark's own expectations.
//!
//! Everything the program sees is generated here from `--seed`: the
//! poller trace (`bistro_simnet::generate`, one virtual hour at a time),
//! the file payloads, and the subscription map. [`Oracle`] then derives,
//! without asking the program, what every subscriber and relay-group
//! member must receive, how many files must be live after an expiry
//! sweep, and which names must be parked in `unknown/`.

use bistro_base::{fnv1a64, Rng, TimePoint, TimeSpan};
use bistro_simnet::payload::payload_for;
use bistro_simnet::{generate, Evolution, FleetConfig, GenFile, NameStyle, SubfeedSpec};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// 2010-09-25 00:00 UTC, the generator's standard fleet start.
pub const START: TimePoint = TimePoint::from_secs(1_285_372_800);
/// Extension every feed pattern expects.
pub const EXT: &str = "csv";
/// Extension a subfeed switches to at its [`Shape::change_ext`] time.
pub const CHANGED_EXT: &str = "dat";
/// Staging template of the normalized feeds.
pub const NORMALIZE: &str = "%Y/%m/%d/%H/%f";

/// How a feed stages its files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staging {
    Keep,
    Lzss,
    Normalize,
}

/// One feed: the subfeed token its files carry and how it stages them.
#[derive(Clone, Debug)]
pub struct FeedSpec {
    pub name: String,
    pub token: String,
    pub staging: Staging,
}

/// One relay group: its members all subscribe to the same feeds.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    pub members: usize,
    pub feeds: Vec<usize>,
}

/// The make-up of one workload.
#[derive(Clone, Debug)]
pub struct Shape {
    pub feeds: Vec<FeedSpec>,
    pub pollers: u32,
    pub period: TimeSpan,
    pub sizes: (u64, u64),
    /// Feed indices each flat subscriber takes.
    pub flat: Vec<Vec<usize>>,
    pub groups: Vec<GroupSpec>,
    pub retention: TimeSpan,
    /// How often tick, expire and snapshot run (virtual time).
    pub upkeep: TimeSpan,
    /// `(feed index, feed time)`: from then on that subfeed's files carry
    /// [`CHANGED_EXT`] and match no feed.
    pub change_ext: Option<(usize, TimePoint)>,
    /// Files per `deposit_batch`.
    pub batch: usize,
    pub workers: usize,
}

impl Shape {
    pub fn member_name(g: usize, m: usize) -> String {
        format!("g{g}m{m}")
    }

    pub fn edge_name(g: usize) -> String {
        format!("edge{g}")
    }

    /// The hub's configuration source.
    pub fn hub_config(&self) -> String {
        let mut src = format!("server {{ retention {}s; }}\n", self.retention.as_secs());
        for f in &self.feeds {
            src.push_str(&feed_block(f));
        }
        for (s, feeds) in self.flat.iter().enumerate() {
            src.push_str(&format!(
                "subscriber s{s} {{ endpoint \"c{s}\"; subscribe {}; delivery push; \
                 batch count 32 window 15m; trigger remote \"load %N\"; }}\n",
                self.feed_list(feeds)
            ));
        }
        for (g, group) in self.groups.iter().enumerate() {
            src.push_str(&self.member_blocks(g, group));
            src.push_str(&self.group_block(g, group));
        }
        src
    }

    /// The configuration of group `g`'s edge server: the group's feeds,
    /// its members, and the group itself relayed through this edge (so
    /// the edge serves the members directly).
    pub fn edge_config(&self, g: usize) -> String {
        let group = &self.groups[g];
        let mut src = format!("server {{ retention {}s; }}\n", self.retention.as_secs());
        for &f in &group.feeds {
            src.push_str(&feed_block(&self.feeds[f]));
        }
        src.push_str(&self.member_blocks(g, group));
        src.push_str(&self.group_block(g, group));
        src
    }

    fn feed_list(&self, feeds: &[usize]) -> String {
        feeds
            .iter()
            .map(|&f| self.feeds[f].name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn member_blocks(&self, g: usize, group: &GroupSpec) -> String {
        let subs = self.feed_list(&group.feeds);
        (0..group.members)
            .map(|m| {
                let name = Self::member_name(g, m);
                format!("subscriber {name} {{ endpoint \"{name}\"; subscribe {subs}; delivery push; }}\n")
            })
            .collect()
    }

    fn group_block(&self, g: usize, group: &GroupSpec) -> String {
        let members: Vec<String> = (0..group.members)
            .map(|m| Self::member_name(g, m))
            .collect();
        format!(
            "group G{g} {{ members {}; relay \"{}\"; }}\n",
            members.join(", "),
            Self::edge_name(g)
        )
    }
}

fn feed_block(f: &FeedSpec) -> String {
    let staging = match f.staging {
        Staging::Keep => String::new(),
        Staging::Lzss => " compress lzss;".to_string(),
        Staging::Normalize => format!(" normalize \"{NORMALIZE}\";"),
    };
    format!(
        "feed {} {{ pattern \"{}_poller%i_%Y%m%d%H%M.{EXT}\";{staging} }}\n",
        f.name, f.token
    )
}

/// A generated file with its payload.
pub struct Input {
    pub file: GenFile,
    pub payload: Vec<u8>,
}

/// The `(name, payload)` pairs `deposit_batch` takes, copied so the
/// inputs stay available to the checks.
pub fn files_of(inputs: &[Input]) -> Vec<(String, Vec<u8>)> {
    inputs
        .iter()
        .map(|i| (i.file.name.clone(), i.payload.clone()))
        .collect()
}

/// When the last file of a batch lands: the batch is handed over then.
pub fn handed_at(inputs: &[Input]) -> TimePoint {
    inputs
        .iter()
        .map(|i| i.file.deposit_time)
        .max()
        .unwrap_or(START)
}

/// The seeded poller trace, produced one virtual hour at a time so a run
/// of any length never holds more than an hour of names.
#[derive(Clone)]
pub struct Source {
    fleet: FleetConfig,
    seed: u64,
    hour: u64,
    pending: VecDeque<GenFile>,
}

impl Source {
    pub fn new(shape: &Shape, seed: u64) -> Source {
        let subfeeds = shape
            .feeds
            .iter()
            .map(|f| SubfeedSpec {
                name: f.token.clone(),
                style: NameStyle::CompactFull,
                ext: EXT.to_string(),
                period: shape.period,
                size_range: shape.sizes,
            })
            .collect();
        let mut fleet = FleetConfig::standard(shape.pollers, subfeeds, TimeSpan::from_hours(1));
        if let Some((f, at)) = shape.change_ext {
            fleet.evolution.push(Evolution::ChangeExt {
                at,
                subfeed: shape.feeds[f].token.clone(),
                to: CHANGED_EXT.to_string(),
            });
        }
        Source {
            fleet,
            seed,
            hour: 0,
            pending: VecDeque::new(),
        }
    }

    /// The same trace, starting `hour` virtual hours after [`START`].
    pub fn from_hour(mut self, hour: u64) -> Source {
        self.hour = hour;
        self
    }

    /// The next `n` files in deposit order, with payloads.
    pub fn next_batch(&mut self, n: usize) -> Vec<Input> {
        while self.pending.len() < n {
            self.fleet.start = START + TimeSpan::from_hours(self.hour);
            self.fleet.seed = mix(self.seed, self.hour);
            self.pending.extend(generate(&self.fleet));
            self.hour += 1;
        }
        self.pending
            .drain(..n)
            .map(|file| Input {
                payload: payload_for(&file),
                file,
            })
            .collect()
    }
}

/// A seeded stream split off `seed` for one purpose.
pub fn mix(seed: u64, salt: u64) -> u64 {
    fnv1a64(&[seed.to_le_bytes(), salt.to_le_bytes()].concat())
}

/// A seeded RNG for choosing the subscription map.
pub fn rng(seed: u64, salt: u64) -> Rng {
    Rng::seed_from_u64(mix(seed, salt))
}

/// Order-free digest of a multiset of file names: equal digests mean the
/// same names, each the same number of times (up to a 64-bit collision).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, name: &str) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(fnv1a64(name.as_bytes()));
    }

    pub fn plus(self, other: Digest) -> Digest {
        Digest {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

/// What the program must have done, computed from the generated trace
/// and the subscription map alone.
#[derive(Clone)]
pub struct Oracle {
    feed_of_token: HashMap<String, usize>,
    flat_of_feed: Vec<Vec<usize>>,
    groups_of_feed: Vec<Vec<usize>>,
    /// Expected receipts per flat subscriber.
    pub flat: Vec<Digest>,
    /// Expected receipts per member of each group (all members alike).
    pub group: Vec<Digest>,
    /// Classified files deposited at the hub, counted by feed time.
    hub_live: BTreeMap<TimePoint, u64>,
    /// Files relayed to each group's edge, counted by feed time.
    edge_live: Vec<BTreeMap<TimePoint, u64>>,
    pub unknown: BTreeSet<String>,
    pub files: u64,
    /// Deliveries owed: flat receipts plus group members to cover.
    pub owed: u64,
}

impl Oracle {
    pub fn new(shape: &Shape) -> Oracle {
        let n = shape.feeds.len();
        let mut flat_of_feed = vec![Vec::new(); n];
        for (s, feeds) in shape.flat.iter().enumerate() {
            for &f in feeds {
                flat_of_feed[f].push(s);
            }
        }
        let mut groups_of_feed = vec![Vec::new(); n];
        for (g, group) in shape.groups.iter().enumerate() {
            for &f in &group.feeds {
                groups_of_feed[f].push(g);
            }
        }
        Oracle {
            feed_of_token: shape
                .feeds
                .iter()
                .enumerate()
                .map(|(i, f)| (f.token.clone(), i))
                .collect(),
            flat_of_feed,
            groups_of_feed,
            flat: vec![Digest::default(); shape.flat.len()],
            group: vec![Digest::default(); shape.groups.len()],
            hub_live: BTreeMap::new(),
            edge_live: vec![BTreeMap::new(); shape.groups.len()],
            unknown: BTreeSet::new(),
            files: 0,
            owed: 0,
        }
    }

    /// The feed a file belongs to, from the generator's own record of
    /// which subfeed produced it and with which extension.
    pub fn feed_of(&self, f: &GenFile) -> Option<usize> {
        if !f.name.ends_with(&format!(".{EXT}")) {
            return None;
        }
        self.feed_of_token.get(&f.subfeed).copied()
    }

    /// Account one deposited file.
    pub fn deposit(&mut self, shape: &Shape, f: &GenFile) {
        self.files += 1;
        let Some(feed) = self.feed_of(f) else {
            self.unknown.insert(f.name.clone());
            return;
        };
        *self.hub_live.entry(f.feed_time).or_default() += 1;
        for &s in &self.flat_of_feed[feed] {
            self.flat[s].add(&f.name);
            self.owed += 1;
        }
        for &g in &self.groups_of_feed[feed] {
            self.group[g].add(&f.name);
            *self.edge_live[g].entry(f.feed_time).or_default() += 1;
            self.owed += shape.groups[g].members as u64;
        }
    }

    /// Files the hub must still hold after expiring everything whose
    /// feed time is before `cutoff`.
    pub fn hub_live_after(&self, cutoff: TimePoint) -> u64 {
        self.hub_live.range(cutoff..).map(|(_, n)| n).sum()
    }

    /// Files group `g`'s edge must still hold after an expiry at `cutoff`.
    pub fn edge_live_after(&self, g: usize, cutoff: TimePoint) -> u64 {
        self.edge_live[g].range(cutoff..).map(|(_, n)| n).sum()
    }
}

/// The staged path of a normalized file, rendered from the timestamp in
/// its name (`…_YYYYmmddHHMM.ext`) without the program's template code.
pub fn normalized_path(feed: &str, name: &str) -> Option<String> {
    let stamp = name.rsplit('_').next()?.split('.').next()?;
    if stamp.len() != 12 || !stamp.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(format!(
        "{feed}/{}/{}/{}/{}/{name}",
        &stamp[0..4],
        &stamp[4..6],
        &stamp[6..8],
        &stamp[8..10]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_path_renders_hour_directories() {
        assert_eq!(
            normalized_path("SNMP/M01", "M01_poller3_201009250455.csv").as_deref(),
            Some("SNMP/M01/2010/09/25/04/M01_poller3_201009250455.csv")
        );
        assert_eq!(normalized_path("F", "no_stamp.csv"), None);
    }

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let mut a = Digest::default();
        a.add("x");
        a.add("y");
        let mut b = Digest::default();
        b.add("y");
        b.add("x");
        assert_eq!(a, b);
        b.add("x");
        assert_ne!(a, b);
    }
}
