//! The three workloads, their phases, and the metrics they report.
//!
//! Every workload is a single closed source loop: the next batch is
//! handed to the hub only after the previous one is acknowledged end to
//! end. Virtual time follows the generated trace. Input generation,
//! member-inbox draining and checking stay outside every timed interval.

use crate::cpu::Rotor;
use crate::deploy::{Counters, Deployment, Frozen, Res};
use crate::gen::{
    files_of, handed_at, rng, Digest, FeedSpec, GroupSpec, Input, Oracle, Shape, Source, Staging,
    START,
};
use crate::trace::{Stopwatch, Tracer};
use bistro_base::{SharedClock, SimClock, TimePoint, TimeSpan};
use bistro_config::parse_config;
use bistro_core::{parallel, Classifier, Server};
use bistro_vfs::{walk_files, FileStore, MemFs};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PollerIngest,
    TreeFanout,
    RestartBackfill,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PollerIngest,
        Workload::TreeFanout,
        Workload::RestartBackfill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PollerIngest => "poller_ingest",
            Workload::TreeFanout => "tree_fanout",
            Workload::RestartBackfill => "restart_backfill",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How large a run is: the benchmark's own scale, or a toy scale for
/// the benchmark's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

#[derive(Clone, Debug)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Lose one recorded delivery before the checks run (the planted
    /// fault the benchmark's tests use to prove the checks bite).
    pub drop_one_delivery: bool,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Times each set-up is made; `setup_s` is their median.
const SETUPS: usize = 9;
/// Batches deposited and left in flight when a steady workload crashes.
const CRASH_BATCHES: usize = 4;
/// Share of a steady workload's run given to timed batches. The rest
/// restarts its crash image, after the last timed batch, so the copies
/// and reopened stores cannot touch the batch samples.
const BATCH_SHARE: f64 = 0.5;
/// p99s are taken over consecutive stretches of this many timed batches
/// (two samples beyond the 99th percentile in each) and averaged with
/// [`trimmed_mean`], so a burst of host stalls moves one stretch, not the
/// whole figure.
const P99_CHUNK: usize = 200;
/// Every this many batches, staged payloads and paths are checked.
const STAGING_CHECK_EVERY: u64 = 8;
/// Batches of the pool probe (1 vs 2 workers on the same batches).
const PROBE_FILES: usize = 4096;

pub fn shape(w: Workload, seed: u64, scale: Scale) -> Shape {
    let toy = scale == Scale::Toy;
    match w {
        Workload::PollerIngest => {
            let n = if toy { 12 } else { 100 };
            let mut r = rng(seed, 1);
            let feeds = poller_feeds(n, &mut r);
            let flat = two_per_feed(n, 8, &mut r);
            let mut picks: Vec<usize> = (0..n).collect();
            r.shuffle(&mut picks);
            let members = if toy { 4 } else { 16 };
            let groups = vec![GroupSpec {
                members,
                feeds: picks[..4].to_vec(),
            }];
            let changed = r.gen_range(0..n as u64) as usize;
            Shape {
                feeds,
                pollers: 3,
                period: TimeSpan::from_mins(5),
                sizes: (2_000, 6_000),
                flat,
                groups,
                retention: TimeSpan::from_hours(if toy { 1 } else { 3 }),
                upkeep: TimeSpan::from_hours(1),
                change_ext: Some((
                    changed,
                    START + TimeSpan::from_hours(if toy { 1 } else { 4 }),
                )),
                batch: if toy { 16 } else { 64 },
                workers: 2,
            }
        }
        Workload::TreeFanout => {
            let mut r = rng(seed, 2);
            let feeds = ["A", "B"]
                .iter()
                .map(|t| FeedSpec {
                    name: format!("TICK/{t}"),
                    token: format!("T{t}"),
                    staging: Staging::Keep,
                })
                .collect();
            // fixed make-up, seeded placement: a feed's fanout is the
            // same on every seed
            let both = vec![0, 1];
            let mut flat: Vec<Vec<usize>> = if toy {
                vec![vec![0], vec![1], both.clone(), both.clone()]
            } else {
                [vec![vec![0]; 6], vec![vec![1]; 6], vec![both.clone(); 4]].concat()
            };
            r.shuffle(&mut flat);
            let members = if toy { 8 } else { 200 };
            let mut groups: Vec<GroupSpec> = [vec![0], vec![1], both.clone(), both]
                .into_iter()
                .take(if toy { 2 } else { 4 })
                .map(|feeds| GroupSpec { members, feeds })
                .collect();
            r.shuffle(&mut groups);
            Shape {
                feeds,
                pollers: 9,
                period: TimeSpan::from_mins(5),
                sizes: (800, 1_200),
                flat,
                groups,
                retention: TimeSpan::from_hours(1),
                upkeep: TimeSpan::from_mins(30),
                change_ext: None,
                batch: 2,
                workers: 1,
            }
        }
        Workload::RestartBackfill => {
            let n = if toy { 8 } else { 20 };
            let mut r = rng(seed, 3);
            let feeds = poller_feeds(n, &mut r);
            let flat = two_per_feed(n, 4, &mut r);
            let mut picks: Vec<usize> = (0..n).collect();
            r.shuffle(&mut picks);
            let groups = vec![GroupSpec {
                members: if toy { 4 } else { 64 },
                feeds: picks[..n / 2].to_vec(),
            }];
            Shape {
                feeds,
                pollers: if toy { 2 } else { 4 },
                period: TimeSpan::from_mins(5),
                sizes: (2_000, 6_000),
                flat,
                groups,
                retention: TimeSpan::from_hours(if toy { 1 } else { 3 }),
                upkeep: TimeSpan::from_hours(1),
                change_ext: None,
                batch: 16,
                workers: 1,
            }
        }
    }
}

/// `n` SNMP-style feeds: a quarter `compress lzss`, a quarter
/// normalized into hourly directories, the rest kept as deposited.
fn poller_feeds(n: usize, r: &mut bistro_base::Rng) -> Vec<FeedSpec> {
    let mut kinds: Vec<Staging> = (0..n)
        .map(|i| match i % 4 {
            0 => Staging::Lzss,
            1 => Staging::Normalize,
            _ => Staging::Keep,
        })
        .collect();
    r.shuffle(&mut kinds);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, staging)| FeedSpec {
            name: format!("SNMP/M{i:02}"),
            token: format!("M{i:02}"),
            staging,
        })
        .collect()
}

/// Each of `n` feeds goes to two distinct subscribers of `subs`, and
/// every subscriber takes the same number of feeds (±1): the first in
/// turn, the second at a seeded offset drawn once per round.
fn two_per_feed(n: usize, subs: usize, r: &mut bistro_base::Rng) -> Vec<Vec<usize>> {
    let mut flat = vec![Vec::new(); subs];
    let mut offset = 0;
    for f in 0..n {
        let a = f % subs;
        if a == 0 {
            offset = 1 + r.gen_range(0..subs as u64 - 1) as usize;
        }
        flat[a].push(f);
        flat[(a + offset) % subs].push(f);
    }
    flat
}

/// One batch's latencies.
#[derive(Clone, Copy)]
struct Sample {
    arrival: Duration,
    delivered: Duration,
    files: u64,
    deliveries: u64,
    traced: bool,
    /// First batch of an upkeep period (steady workloads) or of a
    /// restart cycle.
    opens_window: bool,
}

/// What a stretch of timed batches did.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    files: u64,
    owed: u64,
    counters: Counters,
    input_bytes: u64,
}

/// The windows of a run: one upkeep period each on the steady workloads
/// (so each holds exactly one batch that ran housekeeping), one restart
/// cycle each on restart_backfill, so every window carries the same mix
/// of work. A window cut short by the end of the run is left out unless
/// `last_complete`.
fn windows(samples: &[Sample], last_complete: bool) -> Vec<&[Sample]> {
    let mut out: Vec<&[Sample]> = Vec::new();
    let mut start = None;
    for (i, s) in samples.iter().enumerate() {
        if s.opens_window {
            if let Some(b) = start {
                out.push(&samples[b..i]);
            }
            start = Some(i);
        }
    }
    match start {
        Some(b) if last_complete || out.is_empty() => out.push(&samples[b..]),
        None => out.push(samples),
        _ => {}
    }
    out
}

/// `stat` of each window, summarised by [`trimmed_mean`].
fn over_windows(samples: &[Sample], last_complete: bool, stat: impl Fn(&[Sample]) -> f64) -> f64 {
    let per: Vec<f64> = windows(samples, last_complete)
        .into_iter()
        .map(stat)
        .collect();
    trimmed_mean(&per)
}

/// `work` per second of timed batch work in window `w`.
fn rate(w: &[Sample], work: fn(&Sample) -> u64) -> f64 {
    let secs: f64 = w.iter().map(|s| s.delivered.as_secs_f64()).sum();
    w.iter().map(work).sum::<u64>() as f64 / secs
}

/// Median of one latency over the batches of window `w`, in ms.
fn window_p50(w: &[Sample], latency: fn(&Sample) -> Duration) -> f64 {
    let v: Vec<f64> = w.iter().map(|s| latency(s).as_secs_f64() * 1e3).collect();
    median(&v)
}

/// A deployment being driven through the trace, with its oracle.
struct Runner<'a> {
    shape: &'a Shape,
    dep: Deployment,
    src: Source,
    oracle: Oracle,
    next_upkeep: TimePoint,
    batch_no: u64,
    classifier: Option<Classifier>,
}

impl<'a> Runner<'a> {
    fn new(shape: &'a Shape, seed: u64) -> Res<Runner<'a>> {
        Ok(Runner {
            shape,
            dep: Deployment::build(shape, START)?,
            src: Source::new(shape, seed),
            oracle: Oracle::new(shape),
            next_upkeep: START + shape.upkeep,
            batch_no: 0,
            classifier: None,
        })
    }

    /// Generate, deposit and settle one batch. Generation, probes and
    /// checks run with `setup` stopped.
    fn step(
        &mut self,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
        tally: &mut Tally,
        setup: &mut Stopwatch,
        upkeep: bool,
    ) -> Res<()> {
        setup.stop();
        let inputs = self.src.next_batch(self.shape.batch);
        let at = handed_at(&inputs);
        self.dep.clock.set(at);
        let due = upkeep && self.dep.now() >= self.next_upkeep;
        while self.dep.now() >= self.next_upkeep {
            self.next_upkeep += self.shape.upkeep;
        }
        self.batch_no += 1;
        tracer.select(self.batch_no, self.batch_no.is_multiple_of(2));
        if tracer.active() {
            let config = self.dep.hub.config();
            let classifier = self
                .classifier
                .get_or_insert_with(|| Classifier::compile(config));
            probe(tracer, classifier, config, &self.dep.clock, &inputs);
        }
        let check = self.batch_no.is_multiple_of(STAGING_CHECK_EVERY);
        let files = files_of(&inputs);
        for i in &inputs {
            if self.oracle.feed_of(&i.file).is_some() {
                tally.input_bytes += i.payload.len() as u64;
            }
        }
        let owed_before = self.oracle.owed;
        let before = self.dep.deliveries();
        setup.start();
        let (arrival, delivered) = self.dep.run_batch(
            files,
            due.then_some(&self.oracle),
            self.shape.retention,
            tracer,
            problems,
        )?;
        setup.stop();
        let deliveries = self.dep.deliveries() - before;
        for i in &inputs {
            self.oracle.deposit(self.shape, &i.file);
        }
        tally.files += inputs.len() as u64;
        tally.owed += self.oracle.owed - owed_before;
        tally.samples.push(Sample {
            arrival,
            delivered,
            files: inputs.len() as u64,
            deliveries,
            traced: tracer.active(),
            opens_window: due,
        });
        if check {
            self.dep
                .check_staging(self.shape, &self.oracle, &inputs, problems);
        }
        tracer.select(self.batch_no, false);
        setup.start();
        Ok(())
    }

    /// Run batches until virtual time reaches `until`.
    fn fill(
        &mut self,
        until: TimePoint,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
        setup: &mut Stopwatch,
        upkeep: bool,
    ) -> Res<()> {
        let mut tally = Tally::default();
        while self.dep.now() < until {
            self.step(tracer, problems, &mut tally, setup, upkeep)?;
        }
        Ok(())
    }

    /// The run's end-state checks: every subscriber and member received
    /// exactly what its subscriptions select, and `unknown/` holds
    /// exactly the files generated after the extension change.
    fn check_final(&mut self, problems: &mut Vec<String>, drop_one: bool) -> Res<()> {
        if drop_one {
            drop_one_delivery(&mut self.dep.received);
        }
        check_digests(
            "flat subscriber",
            &self.dep.received,
            &self.oracle.flat,
            problems,
        );
        for (g, e) in self.dep.edges.iter().enumerate() {
            let want = vec![self.oracle.group[g]; e.received.len()];
            check_digests(&format!("member of G{g}"), &e.received, &want, problems);
        }
        let parked: BTreeSet<String> = walk_files(self.dep.store.as_ref(), "unknown")
            .map_err(|e| format!("list unknown/: {e}"))?
            .into_iter()
            .map(|p| p.trim_start_matches("unknown/").to_string())
            .collect();
        if parked != self.oracle.unknown {
            problems.push(format!(
                "unknown/ holds {} files, expected the {} generated after the extension change",
                parked.len(),
                self.oracle.unknown.len()
            ));
        }
        Ok(())
    }
}

/// Time the classifier and the single-thread prepare stage on a batch's
/// own files, outside the batch's timed interval.
fn probe(
    tracer: &mut Tracer,
    classifier: &Classifier,
    config: &bistro_config::Config,
    clock: &std::sync::Arc<SimClock>,
    inputs: &[Input],
) {
    let n = inputs.len() as u64;
    tracer.span("classify", || {
        for i in inputs {
            black_box(classifier.classify(black_box(&i.file.name)));
        }
        ((), n)
    });
    let clock: SharedClock = clock.clone();
    for i in inputs {
        let payload = i.payload.clone();
        tracer.span("parallel::prepare", || {
            let r = parallel::prepare(classifier, config, &clock, &i.file.name, payload);
            (black_box(r).is_ok(), 1)
        });
    }
}

fn drop_one_delivery(received: &mut [Digest]) {
    if let Some(d) = received.iter_mut().find(|d| d.count > 0) {
        d.count -= 1;
    }
}

fn check_digests(what: &str, got: &[Digest], want: &[Digest], problems: &mut Vec<String>) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            problems.push(format!(
                "{what} {i} received {} files, expected {} (or other names)",
                g.count, w.count
            ));
        }
    }
}

/// A workload's set-ups. The first is kept and run. The other
/// `SETUPS - 1` are timed and dropped, spread evenly over a later part of
/// the run, each between two restarts: the host's speed drifts over
/// seconds, and a burst of set-ups at the start would sample one moment
/// of it where every other metric samples the whole run.
struct Setups<F> {
    build: F,
    times: Vec<f64>,
    next: Option<Instant>,
    every: Duration,
}

impl<T, F: FnMut(&mut Stopwatch) -> Res<T>> Setups<F> {
    /// Make and time the first set-up.
    fn first(rotor: &mut Rotor, mut build: F) -> Res<(Setups<F>, T)> {
        let (t, secs) = Self::timed(rotor, &mut build)?;
        let setups = Setups {
            build,
            times: vec![secs],
            next: None,
            every: Duration::ZERO,
        };
        Ok((setups, t))
    }

    fn timed(rotor: &mut Rotor, build: &mut F) -> Res<(T, f64)> {
        rotor.advance();
        let mut sw = Stopwatch::started();
        let t = build(&mut sw)?;
        Ok((t, sw.elapsed().as_secs_f64()))
    }

    /// Spread the remaining set-ups over the stretch from now to `end`.
    fn spread_until(&mut self, end: Instant) {
        let now = Instant::now();
        self.every = end.saturating_duration_since(now) / SETUPS as u32;
        self.next = Some(now + self.every);
    }

    /// Make one more set-up if it is due.
    fn tick(&mut self, rotor: &mut Rotor) -> Res<()> {
        if self.times.len() < SETUPS && self.next.is_some_and(|t| Instant::now() >= t) {
            self.times.push(Self::timed(rotor, &mut self.build)?.1);
            self.next = self.next.map(|t| t + self.every);
        }
        Ok(())
    }

    /// Make whatever set-ups the run left undone; their times.
    fn finish(mut self, rotor: &mut Rotor) -> Res<Vec<f64>> {
        while self.times.len() < SETUPS {
            self.times.push(Self::timed(rotor, &mut self.build)?.1);
        }
        Ok(self.times)
    }
}

/// A crash image of a steady workload: a snapshot, then batches
/// deposited but not yet delivered. The live deployment then delivers
/// them, ahead of its final checks.
fn crash_image(
    drv: &mut Runner,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Res<(Frozen, Oracle)> {
    drv.dep
        .hub
        .snapshot()
        .map_err(|e| format!("snapshot: {e}"))?;
    let owed_before = drv.oracle.owed;
    for _ in 0..CRASH_BATCHES {
        let inputs = drv.src.next_batch(drv.shape.batch);
        drv.dep.clock.set(handed_at(&inputs));
        drv.dep
            .hub
            .deposit_batch(files_of(&inputs))
            .map_err(|e| format!("deposit_batch: {e}"))?;
        for i in &inputs {
            drv.oracle.deposit(drv.shape, &i.file);
        }
        tally.files += inputs.len() as u64;
    }
    tally.owed += drv.oracle.owed - owed_before;
    let frozen = drv.dep.crash_image()?;
    drv.dep
        .settle(&mut Tracer::new(false), &mut Stopwatch::default())?;
    drv.dep.observe_clients(problems);
    Ok((frozen, drv.oracle.clone()))
}

/// Restarts of one crash image. On the steady workloads their spans go
/// to a tracer of their own, so backfill traffic stays out of the
/// per-layer figures of the steady batches.
#[derive(Default)]
struct Restarts {
    recoveries: Vec<f64>,
    owed: u64,
}

impl Restarts {
    fn run(
        &mut self,
        shape: &Shape,
        frozen: &Frozen,
        oracle: &Oracle,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Res<()> {
        let n = self.recoveries.len() as u64;
        tracer.select(1_000_000 + n, n.is_multiple_of(2));
        let (cycle, _) = restart_cycle(shape, frozen, oracle, &[], tracer, problems, false)?;
        tracer.select(0, false);
        self.recoveries.push(cycle.recovery.as_secs_f64() * 1e3);
        self.owed += cycle.owed;
        if cycle.backfilled != cycle.owed {
            problems.push(format!(
                "restart backfilled {} deliveries, {} were owed",
                cycle.backfilled, cycle.owed
            ));
        }
        Ok(())
    }
}

/// What one restart cycle did.
struct Cycle {
    recovery: Duration,
    backfill: Duration,
    backfilled: u64,
    sends: u64,
    owed: u64,
    post: Tally,
}

/// Restart from `frozen`: reopen (timed), backfill until nothing is
/// owed (timed), then serve `post` batches. Checks exactly-once across
/// the crash and complete group coverage.
fn restart_cycle(
    shape: &Shape,
    frozen: &Frozen,
    oracle: &Oracle,
    post: &[Vec<Input>],
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
    drop_one: bool,
) -> Res<(Cycle, Deployment)> {
    let (mut dep, recovery) = Deployment::reopen(shape, frozen, tracer)?;
    if tracer.active() {
        let src = dep
            .store
            .read("bistro.conf")
            .map_err(|e| format!("read config: {e}"))?;
        let src = String::from_utf8(src).map_err(|e| format!("config: {e}"))?;
        tracer.span("config.parse", || {
            (black_box(parse_config(&src)).is_ok(), 1)
        });
    }
    let owed = owed_since(shape, oracle, frozen);
    dep.mark();
    let mut sw = Stopwatch::started();
    let hub = &mut dep.hub;
    let sends = tracer
        .span("backfill_unacked", || {
            let r = hub.backfill_unacked();
            let n = r.as_ref().map_or(0, |n| *n as u64);
            (r, n)
        })
        .map_err(|e| format!("backfill: {e}"))? as u64;
    dep.settle(tracer, &mut sw)?;
    let backfill = sw.elapsed();
    dep.observe_clients(problems);
    let (_, backfilled) = dep.since_mark();

    let mut oracle = oracle.clone();
    let mut tally = Tally::default();
    let classifier = Classifier::compile(dep.hub.config());
    dep.mark();
    for batch in post {
        if tracer.active() {
            probe(tracer, &classifier, dep.hub.config(), &dep.clock, batch);
        }
        let files = files_of(batch);
        let at = handed_at(batch);
        dep.clock.set(at);
        let owed_before = oracle.owed;
        let before = dep.deliveries();
        for i in batch {
            if oracle.feed_of(&i.file).is_some() {
                tally.input_bytes += i.payload.len() as u64;
            }
        }
        let (arrival, delivered) = dep.run_batch(files, None, shape.retention, tracer, problems)?;
        let deliveries = dep.deliveries() - before;
        for i in batch {
            oracle.deposit(shape, &i.file);
        }
        tally.files += batch.len() as u64;
        tally.owed += oracle.owed - owed_before;
        tally.samples.push(Sample {
            arrival,
            delivered,
            files: batch.len() as u64,
            deliveries,
            traced: tracer.active(),
            opens_window: tally.samples.is_empty(),
        });
    }
    tally.counters = dep.since_mark().0;
    if !post.is_empty() {
        dep.check_staging(shape, &oracle, &post[post.len() - 1], problems);
        dep.housekeeping(&oracle, shape.retention, tracer, problems)?;
    }

    let mut received = dep.received.clone();
    if drop_one {
        drop_one_delivery(&mut received);
    }
    let total: Vec<Digest> = frozen
        .received
        .iter()
        .zip(&received)
        .map(|(a, b)| a.plus(*b))
        .collect();
    check_digests(
        "flat subscriber (across the crash)",
        &total,
        &oracle.flat,
        problems,
    );
    for (g, e) in dep.edges.iter().enumerate() {
        let total: Vec<Digest> = frozen.member_received[g]
            .iter()
            .zip(&e.received)
            .map(|(a, b)| a.plus(*b))
            .collect();
        let want = vec![oracle.group[g]; total.len()];
        check_digests(
            &format!("member of G{g} (across the crash)"),
            &total,
            &want,
            problems,
        );
    }
    check_coverage(shape, &dep.hub, problems);
    Ok((
        Cycle {
            recovery,
            backfill,
            backfilled,
            sends,
            owed,
            post: tally,
        },
        dep,
    ))
}

/// Deliveries still owed at the crash: what the oracle expects minus
/// what subscribers and members had received.
fn owed_since(shape: &Shape, oracle: &Oracle, frozen: &Frozen) -> u64 {
    let flat: u64 = oracle
        .flat
        .iter()
        .zip(&frozen.received)
        .map(|(w, g)| w.count.saturating_sub(g.count))
        .sum();
    let members: u64 = (0..shape.groups.len())
        .map(|g| {
            frozen.member_received[g]
                .iter()
                .map(|r| oracle.group[g].count.saturating_sub(r.count))
                .sum::<u64>()
        })
        .sum();
    flat + members
}

/// Every live file of every group's feeds has a durable, complete
/// coverage mark at the hub.
fn check_coverage(shape: &Shape, hub: &Server, problems: &mut Vec<String>) {
    for (g, group) in shape.groups.iter().enumerate() {
        let name = format!("G{g}");
        let mut incomplete = 0;
        for &f in &group.feeds {
            for rec in hub.receipts().files_in_feed(&shape.feeds[f].name) {
                let complete =
                    hub.receipts()
                        .group_coverage(rec.id, &name)
                        .is_some_and(|(bits, wm)| {
                            wm >= group.members as u64
                                || (0..group.members).all(|m| {
                                    bits.get(m / 8).is_some_and(|b| b & (1 << (m % 8)) != 0)
                                })
                        });
                if !complete {
                    incomplete += 1;
                }
            }
        }
        if incomplete > 0 {
            problems.push(format!(
                "{name}: {incomplete} live files without complete coverage"
            ));
        }
    }
}

/// Counters only the traced run reports, gathered as the run goes.
#[derive(Default)]
struct Layers {
    counters: Counters,
    files: u64,
    input_bytes: u64,
    live_marks: Option<(u64, u64)>,
    stored_bytes: u64,
    pool: Option<(f64, f64)>,
    overhead_pct: f64,
}

/// Run one workload.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(p.trace);
    let outcome = match p.workload {
        Workload::PollerIngest | Workload::TreeFanout => steady(p, &mut tracer, &mut report),
        Workload::RestartBackfill => restart(p, &mut tracer, &mut report),
    };
    if let Err(e) = outcome {
        report.failed += 1;
        report.attempted = report.attempted.max(1);
        report.problems.push(e);
    }
    write_trace(p, "", &tracer);
    check_measured(p, &mut report);
    report
}

/// Write a full traced run's spans to `feedbench/out/trace-<workload><suffix>.jsonl`.
fn write_trace(p: &Params, suffix: &str, tracer: &Tracer) {
    if !p.trace || p.scale != Scale::Full {
        return;
    }
    let path = std::path::Path::new("feedbench/out")
        .join(format!("trace-{}{suffix}.jsonl", p.workload.name()));
    if let Err(e) = tracer.write(&path) {
        eprintln!("feedbench: could not write {}: {e}", path.display());
    }
}

/// A metric that was not measured (no samples, windows or work behind
/// it) reads NaN; it fails the run rather than print as a perfect 0.
/// End-to-end metrics must also be positive.
fn check_measured(p: &Params, report: &mut Report) {
    if !report.problems.is_empty() {
        return;
    }
    for m in &report.metrics {
        if !m.value.is_finite() || (!p.trace && m.value <= 0.0) {
            report
                .problems
                .push(format!("{} was not measured (reads {})", m.name, m.value));
        }
    }
}

/// poller_ingest and tree_fanout: fill the retention window, then run
/// batches for `BATCH_SHARE` of the run length. Then take a crash image
/// with batches in flight and restart it for the rest of the run.
fn steady(p: &Params, tracer: &mut Tracer, report: &mut Report) -> Res<()> {
    let shape = shape(p.workload, p.seed, p.scale);
    let problems = &mut report.problems;
    let mut rotor = Rotor::new(shape.workers == 1);
    let (mut setups, mut drv) = Setups::first(&mut rotor, |sw| {
        let mut drv = Runner::new(&shape, p.seed)?;
        let mut scratch = Vec::new();
        let mut quiet = Tracer::new(false);
        drv.fill(START + shape.retention, &mut quiet, &mut scratch, sw, true)?;
        if let Some(e) = scratch.into_iter().next() {
            return Err(format!("set-up: {e}"));
        }
        Ok(drv)
    })?;

    drv.dep.mark();
    let mut tally = Tally::default();
    let mut idle = Stopwatch::default();
    let start = Instant::now();
    let batches_end = start + Duration::from_secs_f64(p.seconds * BATCH_SHARE);
    let deadline = start + Duration::from_secs_f64(p.seconds);
    let mut rss = None;
    while Instant::now() < batches_end {
        drv.step(tracer, problems, &mut tally, &mut idle, true)?;
        if tally.samples.last().is_some_and(|s| s.opens_window) {
            rotor.advance();
        }
        if rss.is_none() && tally.samples.len() >= rss_batches(p.workload) {
            rss = Some(rss_peak_mb());
        }
    }
    // memory is read before the crash image adds its copies
    let rss = rss.unwrap_or_else(rss_peak_mb);
    let (frozen, oracle) = crash_image(&mut drv, &mut tally, problems)?;
    let unacked = drv.dep.hub.unacked_count() + drv.dep.hub.group_outstanding();
    drv.check_final(problems, p.drop_one_delivery)?;
    tally.counters = drv.dep.since_mark().0;
    let mut layers = Layers {
        live_marks: Some(live_marks(&shape, &drv.dep.hub)),
        stored_bytes: drv.dep.store.total_bytes(),
        ..Layers::default()
    };
    drop(drv);

    let mut restart_tracer = Tracer::new(p.trace);
    let mut restarts = Restarts::default();
    setups.spread_until(deadline);
    loop {
        rotor.advance();
        restarts.run(&shape, &frozen, &oracle, &mut restart_tracer, problems)?;
        setups.tick(&mut rotor)?;
        if Instant::now() >= deadline {
            break;
        }
    }
    let setups = setups.finish(&mut rotor)?;
    drop(rotor);
    write_trace(p, "-restarts", &restart_tracer);

    report.attempted = tally.files + tally.owed + restarts.owed;
    report.failed = unacked as u64 + tally.counters.exhausted;
    if p.trace {
        layers.counters = tally.counters;
        layers.files = tally.files;
        layers.input_bytes = tally.input_bytes;
        layers.overhead_pct = overhead_pct(&tally.samples);
        layers.pool = Some(pool_probe(&shape, p.seed)?);
        report.metrics = per_layer(tracer, &restart_tracer, &layers);
    } else {
        let deliveries = over_windows(&tally.samples, false, |w| rate(w, |s| s.deliveries));
        report.metrics = end_to_end(
            &tally,
            deliveries,
            false,
            &restarts.recoveries,
            &setups,
            rss,
        );
    }
    Ok(())
}

/// restart_backfill: set up a crashed store with a backlog, then restart
/// it again and again for the run length.
fn restart(p: &Params, tracer: &mut Tracer, report: &mut Report) -> Res<()> {
    let shape = shape(p.workload, p.seed, p.scale);
    let problems = &mut report.problems;
    let offline = "s3".to_string();
    let hours = shape.retention.as_secs() / 3600;
    let mut rotor = Rotor::new(shape.workers == 1);
    let (mut setups, (frozen, oracle)) = Setups::first(&mut rotor, |sw| {
        let mut drv = Runner::new(&shape, p.seed)?;
        let mut scratch = Vec::new();
        let mut quiet = Tracer::new(false);
        drv.dep
            .hub
            .set_subscriber_online(&offline, false)
            .map_err(|e| format!("offline: {e}"))?;
        let half = START + TimeSpan::from_micros(shape.retention.as_micros() / 2);
        drv.fill(half, &mut quiet, &mut scratch, sw, false)?;
        drv.dep
            .hub
            .snapshot()
            .map_err(|e| format!("snapshot: {e}"))?;
        let stretch = TimeSpan::from_mins(15);
        drv.fill(
            START + shape.retention - stretch,
            &mut quiet,
            &mut scratch,
            sw,
            false,
        )?;
        drv.dep.edges_down = true;
        drv.fill(START + shape.retention, &mut quiet, &mut scratch, sw, false)?;
        if let Some(e) = scratch.into_iter().next() {
            return Err(format!("set-up: {e}"));
        }
        let oracle = drv.oracle.clone();
        sw.stop();
        Ok((drv.dep.crash_image()?, oracle))
    })?;

    let post_batches = if p.scale == Scale::Toy { 4 } else { 32 };

    let mut recoveries = Vec::new();
    let mut backfill_owed = 0;
    let mut backfill_rates = Vec::new();
    let mut posts = Tally::default();
    let mut layers = Layers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let mut c = 0u64;
    let mut rss = None;
    loop {
        c += 1;
        rotor.advance();
        // each cycle serves its own stretch of arrivals after the crash
        let mut src = Source::new(&shape, crate::gen::mix(p.seed, c)).from_hour(hours + 1);
        let post: Vec<Vec<Input>> = (0..post_batches)
            .map(|_| src.next_batch(shape.batch))
            .collect();
        tracer.select(c, c.is_multiple_of(2));
        let (cycle, dep) = restart_cycle(
            &shape,
            &frozen,
            &oracle,
            &post,
            tracer,
            problems,
            p.drop_one_delivery,
        )?;
        tracer.select(c, false);
        recoveries.push(cycle.recovery.as_secs_f64() * 1e3);
        backfill_rates.push(cycle.backfilled as f64 / cycle.backfill.as_secs_f64());
        backfill_owed += cycle.owed;
        if cycle.backfilled != cycle.owed {
            problems.push(format!(
                "cycle {c}: backfilled {} deliveries, {} were owed",
                cycle.backfilled, cycle.owed
            ));
        }
        if cycle.sends == 0 {
            problems.push(format!("cycle {c}: backfill sent nothing"));
        }
        posts.files += cycle.post.files;
        posts.owed += cycle.post.owed;
        posts.input_bytes += cycle.post.input_bytes;
        posts.counters.add(&cycle.post.counters);
        posts.samples.extend(cycle.post.samples);
        let exhausted = dep.counters().exhausted;
        report.failed += (dep.hub.unacked_count() + dep.hub.group_outstanding()) as u64 + exhausted;
        if c as usize == rss_batches(p.workload) {
            // memory is read before the later set-ups add theirs
            rss = Some(rss_peak_mb());
            setups.spread_until(deadline);
        }
        // each cycle's deployment is dropped before the next one opens
        if Instant::now() >= deadline {
            layers.live_marks = Some(live_marks(&shape, &dep.hub));
            layers.stored_bytes = dep.store.total_bytes();
            break;
        }
        drop(dep);
        setups.tick(&mut rotor)?;
    }
    let rss = rss.unwrap_or_else(rss_peak_mb);
    let setups = setups.finish(&mut rotor)?;
    drop(rotor);
    report.attempted = backfill_owed + posts.files + posts.owed;
    if p.trace {
        layers.counters = posts.counters;
        layers.files = posts.files;
        layers.input_bytes = posts.input_bytes;
        layers.overhead_pct = overhead_pct(&posts.samples);
        layers.pool = Some(pool_probe(&shape, p.seed)?);
        report.metrics = per_layer(tracer, tracer, &layers);
    } else {
        // restart_backfill's delivery rate is its backfill rate
        report.metrics = end_to_end(
            &posts,
            trimmed_mean(&backfill_rates),
            true,
            &recoveries,
            &setups,
            rss,
        );
    }
    Ok(())
}

/// `(delivery marks in the backfill log, delivery receipts of live files)`.
fn live_marks(shape: &Shape, hub: &Server) -> (u64, u64) {
    let marks = hub.receipts().deliveries_since(0).len() as u64;
    let subs: Vec<String> = (0..shape.flat.len()).map(|s| format!("s{s}")).collect();
    let live = hub
        .receipts()
        .all_live()
        .iter()
        .map(|rec| {
            subs.iter()
                .filter(|s| hub.receipts().is_delivered(rec.id, s))
                .count() as u64
        })
        .sum();
    (marks, live)
}

/// Traced batches' median delivered latency over untraced ones', in %.
fn overhead_pct(samples: &[Sample]) -> f64 {
    let med = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.delivered.as_secs_f64())
            .collect();
        median(&v)
    };
    (med(true) / med(false) - 1.0) * 100.0
}

/// Deposit the same fresh batches into two servers built from the hub's
/// configuration, one with 1 prepare worker and one with 2, and time
/// the single-thread prepare stage on them too. Returns the pool's
/// speedup and the commit time per file (1-worker deposit minus prepare).
fn pool_probe(shape: &Shape, seed: u64) -> Res<(f64, f64)> {
    let cfg = parse_config(&shape.hub_config()).map_err(|e| format!("probe config: {e}"))?;
    let clock = SimClock::starting_at(START);
    let server = |workers: usize| -> Res<Server> {
        let store = MemFs::shared(clock.clone());
        Server::new("probe", cfg.clone(), clock.clone(), store)
            .map(|s| s.with_workers(workers))
            .map_err(|e| format!("probe server: {e}"))
    };
    let (mut one, mut two) = (server(1)?, server(2)?);
    let classifier = Classifier::compile(&cfg);
    let shared: SharedClock = clock.clone();
    let mut src = Source::new(shape, crate::gen::mix(seed, 99));
    let (mut t1, mut t2, mut tp, mut files) = (0.0, 0.0, 0.0, 0usize);
    let mut i = 0u64;
    while files < PROBE_FILES {
        let inputs = src.next_batch(shape.batch);
        let at = handed_at(&inputs);
        clock.set(at);
        let timed = |s: &mut Server| -> Res<f64> {
            let b = files_of(&inputs);
            let t0 = Instant::now();
            s.deposit_batch(b)
                .map_err(|e| format!("probe deposit: {e}"))?;
            Ok(t0.elapsed().as_secs_f64())
        };
        i += 1;
        if i.is_multiple_of(2) {
            t1 += timed(&mut one)?;
            t2 += timed(&mut two)?;
        } else {
            t2 += timed(&mut two)?;
            t1 += timed(&mut one)?;
        }
        let owned = files_of(&inputs);
        let t0 = Instant::now();
        for (name, payload) in owned {
            black_box(parallel::prepare(&classifier, &cfg, &shared, &name, payload).is_ok());
        }
        tp += t0.elapsed().as_secs_f64();
        files += inputs.len();
    }
    Ok((t1 / t2.max(1e-12), (t1 - tp) * 1e6 / files as f64))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of the middle 80% of `v`. On a host shared with other tenants,
/// a restart cycle or a window runs in one of two speed modes (up to
/// ~2.5x apart, each lasting a second or so); a median then jumps between
/// the modes as the share of slow ones crosses one half, where this mean
/// moves smoothly with it, and the trimmed ends drop one-off stalls.
fn trimmed_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 10;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Timed batches (restart cycles for restart_backfill) after which
/// `rss_peak_mb` is read: a fixed amount of work that every run reaches,
/// so a program that runs faster is not charged for the memory its
/// extra work retains. A run that falls short reads it at its end.
fn rss_batches(w: Workload) -> usize {
    match w {
        Workload::PollerIngest => 1_200,
        Workload::TreeFanout => 600,
        Workload::RestartBackfill => 20,
    }
}

/// Peak resident memory of this process so far (VmHWM), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(
    tally: &Tally,
    deliveries_per_s: f64,
    cycles: bool,
    recoveries: &[f64],
    setups: &[f64],
    rss_mb: f64,
) -> Vec<Metric> {
    let p99 = |latency: fn(&Sample) -> Duration| {
        let per: Vec<f64> = tally
            .samples
            .chunks(P99_CHUNK)
            .filter(|c| c.len() == P99_CHUNK || tally.samples.len() < P99_CHUNK)
            .map(|c| {
                let mut v: Vec<f64> = c.iter().map(|s| latency(s).as_secs_f64() * 1e3).collect();
                v.sort_by(f64::total_cmp);
                percentile(&v, 0.99)
            })
            .collect();
        trimmed_mean(&per)
    };
    let p50 = |latency: fn(&Sample) -> Duration| {
        over_windows(&tally.samples, cycles, |w| window_p50(w, latency))
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "files_per_s",
            over_windows(&tally.samples, cycles, |w| rate(w, |s| s.files)),
            "files/s",
        ),
        m("deliveries_per_s", deliveries_per_s, "1/s"),
        m("arrival_p50_ms", p50(|s| s.arrival), "ms"),
        m("arrival_p99_ms", p99(|s| s.arrival), "ms"),
        m("delivered_p50_ms", p50(|s| s.delivered), "ms"),
        m("delivered_p99_ms", p99(|s| s.delivered), "ms"),
        m("recovery_ms", trimmed_mean(recoveries), "ms"),
        m("setup_s", median(setups), "s"),
        m("rss_peak_mb", rss_mb, "MB"),
    ]
}

/// The per-layer metrics. Spans of the batches come from `tr`, those of
/// restarts (`open_existing`, `config.parse`, `backfill_unacked`) from
/// `restarts`. A quotient with nothing under it reads NaN.
fn per_layer(tr: &Tracer, restarts: &Tracer, l: &Layers) -> Vec<Metric> {
    let c = &l.counters;
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    let files = l.files as f64;
    let ms_per_call = |t: &Tracer, name: &str| {
        let t = t.total(name);
        t.time.as_secs_f64() * 1e3 / t.calls as f64
    };
    let single_appends = c.wal_appends.saturating_sub(c.wal_grouped);
    let (marks, live) = l.live_marks.unwrap_or((0, 0));
    let (speedup, commit) = l.pool.unwrap_or((f64::NAN, f64::NAN));
    let pump = tr.total("Relay::pump");
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "classifier.us_per_file",
            tr.total("classify").us_per_work(),
            "us",
        ),
        m(
            "parallel.prepare_us_per_file",
            tr.total("parallel::prepare").us_per_work(),
            "us",
        ),
        m(
            "normalizer.staged_bytes_per_input_byte",
            ratio(c.bytes_staged, l.input_bytes),
            "ratio",
        ),
        m("pool.speedup", speedup, "ratio"),
        m("server.commit_us_per_file", commit, "us"),
        m(
            "receipts.records_per_append",
            ratio(c.wal_appends, c.wal_group_flushes + single_appends),
            "ratio",
        ),
        m(
            "receipts.wal_bytes_per_file",
            c.wal_bytes as f64 / files,
            "B",
        ),
        m(
            "receipts.marks_per_live_delivery",
            ratio(marks, live),
            "ratio",
        ),
        m(
            "receipts.replay_us_per_record",
            restarts.total("open_existing").us_per_work(),
            "us",
        ),
        m(
            "config.parse_ms",
            ms_per_call(restarts, "config.parse"),
            "ms",
        ),
        m("vfs.ops_per_file", c.vfs_ops as f64 / files, "count"),
        m(
            "vfs.bytes_written_per_file",
            c.vfs_written as f64 / files,
            "B",
        ),
        m("vfs.stored_mb", l.stored_bytes as f64 / 1e6, "MB"),
        m(
            "index.matched_per_lookup",
            ratio(c.index_matched, c.index_lookups),
            "ratio",
        ),
        m(
            "transport.messages_per_file",
            c.net_messages as f64 / files,
            "count",
        ),
        m("transport.bytes_per_file", c.net_bytes as f64 / files, "B"),
        m(
            "reliable.attempts_per_ack",
            ratio(c.attempts, c.completions),
            "ratio",
        ),
        m(
            "client.us_per_delivery",
            tr.total("poll_notifications").us_per_work(),
            "us",
        ),
        m(
            "server.ack_us_per_ack",
            tr.total("poll_network").us_per_work(),
            "us",
        ),
        m("relay.pump_us_per_member", pump.us_per_work(), "us"),
        m(
            "relay.useful_ratio",
            ratio(c.relayed, c.relayed + c.duplicates),
            "ratio",
        ),
        m("server.expire_ms", ms_per_call(tr, "expire"), "ms"),
        m(
            "server.expire_us_per_live_file",
            tr.total("expire").us_per_work(),
            "us",
        ),
        m("server.snapshot_ms", ms_per_call(tr, "snapshot"), "ms"),
        m(
            "server.backfill_us_per_delivery",
            restarts.total("backfill_unacked").us_per_work(),
            "us",
        ),
        m("trace.overhead_pct", l.overhead_pct, "%"),
    ]
}
