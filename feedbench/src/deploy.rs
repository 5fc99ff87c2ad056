//! One deployment under test: the hub `Server` on a `MemFs`, its flat
//! subscribers as `SubscriberClient`s, and one edge `Server` per relay
//! group pumped through `core::relay::Relay`, all on one `SimNetwork`
//! under one `SimClock`.

use crate::gen::{Digest, Input, Oracle, Shape, Staging};
use crate::trace::{Stopwatch, Tracer};
use bistro_base::{SimClock, TimePoint};
use bistro_compress::container;
use bistro_config::parse_config;
use bistro_core::relay::Relay;
use bistro_core::Server;
use bistro_transport::messages::{Message, SubscriberMsg};
use bistro_transport::{LinkSpec, RetryPolicy, SimNetwork, SubscriberClient};
use bistro_vfs::{walk_files, FileStore, MemFs};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const HUB: &str = "hub";
/// Seed of the hub's retry jitter (no retry is expected to fire).
const RETRY_SEED: u64 = 7;
/// Network rounds one settle may take before it counts as stuck.
const MAX_ROUNDS: usize = 100_000;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A relay group's edge server and what its members received.
pub struct Edge {
    pub server: Server,
    pub store: Arc<MemFs>,
    pub relay: Relay,
    members: Vec<String>,
    /// Names each member received, as digests.
    pub received: Vec<Digest>,
}

/// Counters read from the program, summed over the timed work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_grouped: u64,
    pub wal_group_flushes: u64,
    pub bytes_staged: u64,
    pub index_lookups: u64,
    pub index_matched: u64,
    pub attempts: u64,
    pub completions: u64,
    pub exhausted: u64,
    pub relayed: u64,
    pub duplicates: u64,
    pub net_messages: u64,
    pub net_bytes: u64,
    pub vfs_ops: u64,
    pub vfs_written: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.wal_appends += o.wal_appends;
        self.wal_bytes += o.wal_bytes;
        self.wal_grouped += o.wal_grouped;
        self.wal_group_flushes += o.wal_group_flushes;
        self.bytes_staged += o.bytes_staged;
        self.index_lookups += o.index_lookups;
        self.index_matched += o.index_matched;
        self.attempts += o.attempts;
        self.completions += o.completions;
        self.exhausted += o.exhausted;
        self.relayed += o.relayed;
        self.duplicates += o.duplicates;
        self.net_messages += o.net_messages;
        self.net_bytes += o.net_bytes;
        self.vfs_ops += o.vfs_ops;
        self.vfs_written += o.vfs_written;
    }

    fn minus(&self, o: &Counters) -> Counters {
        Counters {
            wal_appends: self.wal_appends - o.wal_appends,
            wal_bytes: self.wal_bytes - o.wal_bytes,
            wal_grouped: self.wal_grouped - o.wal_grouped,
            wal_group_flushes: self.wal_group_flushes - o.wal_group_flushes,
            bytes_staged: self.bytes_staged - o.bytes_staged,
            index_lookups: self.index_lookups - o.index_lookups,
            index_matched: self.index_matched - o.index_matched,
            attempts: self.attempts - o.attempts,
            completions: self.completions - o.completions,
            exhausted: self.exhausted - o.exhausted,
            relayed: self.relayed - o.relayed,
            duplicates: self.duplicates - o.duplicates,
            net_messages: self.net_messages - o.net_messages,
            net_bytes: self.net_bytes - o.net_bytes,
            vfs_ops: self.vfs_ops - o.vfs_ops,
            vfs_written: self.vfs_written - o.vfs_written,
        }
    }
}

/// The hub and edge stores as a crash left them, plus what subscribers
/// and members had received by then.
pub struct Frozen {
    pub at: TimePoint,
    pub hub: Arc<MemFs>,
    pub edges: Vec<Arc<MemFs>>,
    pub received: Vec<Digest>,
    pub member_received: Vec<Vec<Digest>>,
}

pub struct Deployment {
    pub clock: Arc<SimClock>,
    pub net: Arc<SimNetwork>,
    pub store: Arc<MemFs>,
    pub hub: Server,
    pub clients: Vec<SubscriberClient>,
    seen: Vec<usize>,
    /// Names each flat subscriber received, as digests.
    pub received: Vec<Digest>,
    pub edges: Vec<Edge>,
    /// While set, edges are not pumped and their group deliveries stay
    /// outstanding (an edge that is down).
    pub edges_down: bool,
    /// Store operations the benchmark's own checks made.
    unmetered_ops: u64,
    /// Counter readings at the last [`Deployment::mark`].
    marked: Counters,
    /// Deliveries receipted (hub) or covered (edge members) so far.
    marked_deliveries: u64,
}

fn hub_server(shape: &Shape, server: Server, net: &Arc<SimNetwork>) -> Server {
    server
        .with_network(net.clone())
        .with_reliable_delivery(RetryPolicy::default(), RETRY_SEED)
        .with_workers(shape.workers)
}

impl Deployment {
    /// Build every server of `shape` from its configuration source.
    pub fn build(shape: &Shape, start: TimePoint) -> Res<Deployment> {
        let clock = SimClock::starting_at(start);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let store = MemFs::shared(clock.clone());
        let cfg = parse_config(&shape.hub_config()).map_err(err("hub config"))?;
        let hub = Server::new(HUB, cfg, clock.clone(), store.clone()).map_err(err("hub"))?;
        let hub = hub_server(shape, hub, &net);
        let mut edges = Vec::new();
        for g in 0..shape.groups.len() {
            let estore = MemFs::shared(clock.clone());
            let cfg = parse_config(&shape.edge_config(g)).map_err(err("edge config"))?;
            let server = Server::new(&Shape::edge_name(g), cfg, clock.clone(), estore.clone())
                .map_err(err("edge"))?
                .with_network(net.clone());
            edges.push(Edge::new(shape, g, server, estore));
        }
        Ok(Deployment::assemble(shape, clock, net, store, hub, edges))
    }

    fn assemble(
        shape: &Shape,
        clock: Arc<SimClock>,
        net: Arc<SimNetwork>,
        store: Arc<MemFs>,
        hub: Server,
        edges: Vec<Edge>,
    ) -> Deployment {
        let n = shape.flat.len();
        let mut d = Deployment {
            clock,
            net,
            store,
            hub,
            clients: (0..n)
                .map(|s| SubscriberClient::new(&format!("c{s}"), HUB))
                .collect(),
            seen: vec![0; n],
            received: vec![Digest::default(); n],
            edges,
            edges_down: false,
            unmetered_ops: 0,
            marked: Counters::default(),
            marked_deliveries: 0,
        };
        d.mark();
        d
    }

    /// Restart from a crash: copy the frozen stores (untimed), reopen the
    /// hub with `Server::open_existing` (timed, and returned), then the
    /// edges. Subscribers and members start with empty inboxes.
    pub fn reopen(
        shape: &Shape,
        frozen: &Frozen,
        tracer: &mut Tracer,
    ) -> Res<(Deployment, Duration)> {
        let clock = SimClock::starting_at(frozen.at);
        let net = Arc::new(SimNetwork::new(LinkSpec::default()));
        let store = copy_store(&frozen.hub, &clock)?;
        let t0 = Instant::now();
        let hub = tracer.span("open_existing", || {
            let r = Server::open_existing(HUB, clock.clone(), store.clone());
            let work = r.as_ref().map_or(0, |s| {
                let info = s.receipts().recovery_info();
                info.snapshot_records + info.wal_records
            });
            (r, work)
        });
        let recovery = t0.elapsed();
        let hub = hub_server(shape, hub.map_err(err("reopen hub"))?, &net);
        let mut edges = Vec::new();
        for (g, frozen_edge) in frozen.edges.iter().enumerate() {
            let estore = copy_store(frozen_edge, &clock)?;
            let server = Server::open_existing(&Shape::edge_name(g), clock.clone(), estore.clone())
                .map_err(err("reopen edge"))?
                .with_network(net.clone());
            edges.push(Edge::new(shape, g, server, estore));
        }
        Ok((
            Deployment::assemble(shape, clock, net, store, hub, edges),
            recovery,
        ))
    }

    /// The stores as a crash at this instant would leave them: configs
    /// persisted, everything in memory and in flight lost. The stores are
    /// copied, so the deployment itself can go on.
    pub fn crash_image(&self) -> Res<Frozen> {
        self.hub
            .persist_config()
            .map_err(err("persist hub config"))?;
        for e in &self.edges {
            e.server
                .persist_config()
                .map_err(err("persist edge config"))?;
        }
        Ok(Frozen {
            at: self.now(),
            hub: copy_store(&self.store, &self.clock)?,
            edges: self
                .edges
                .iter()
                .map(|e| copy_store(&e.store, &self.clock))
                .collect::<Res<_>>()?,
            received: self.received.clone(),
            member_received: self.edges.iter().map(|e| e.received.clone()).collect(),
        })
    }

    pub fn now(&self) -> TimePoint {
        bistro_base::Clock::now(self.clock.as_ref())
    }

    /// Deliveries receipted at the hub plus members covered at edges.
    pub fn deliveries(&self) -> u64 {
        self.hub.receipts().delivery_count()
            + self
                .edges
                .iter()
                .map(|e| e.server.receipts().delivery_count())
                .sum::<u64>()
    }

    /// Counters of the program, read now.
    pub fn counters(&self) -> Counters {
        let t = self.hub.telemetry();
        let p = self.hub.pool_telemetry();
        let c = |name: &str| t.counter_value(name).unwrap_or(0);
        let pc = |name: &str| p.counter_value(name).unwrap_or(0);
        let vfs = self.store.stats().snapshot();
        let (relayed, duplicates) = self.edges.iter().fold((0, 0), |(r, d), e| {
            (
                r + e.relay.stats().relayed as u64,
                d + e.relay.stats().duplicates as u64,
            )
        });
        Counters {
            wal_appends: c("wal.appends"),
            wal_bytes: c("wal.bytes"),
            wal_grouped: p.histogram("wal.group_size").sum(),
            wal_group_flushes: pc("wal.physical_appends"),
            bytes_staged: c("ingest.bytes_staged"),
            index_lookups: pc("index.lookups"),
            index_matched: pc("index.matched_subscribers") + pc("index.matched_groups"),
            attempts: c("reliable.attempts") + c("group.attempts"),
            completions: c("reliable.acks") + c("group.completed"),
            exhausted: c("reliable.exhausted") + c("group.exhausted"),
            relayed,
            duplicates,
            net_messages: self.net.messages_sent(),
            net_bytes: self.net.bytes_sent(),
            vfs_ops: vfs.list_dir_calls
                + vfs.stat_calls
                + vfs.reads
                + vfs.writes
                + vfs.renames
                + vfs.removes
                - self.unmetered_ops.min(vfs.reads),
            vfs_written: vfs.bytes_written,
        }
    }

    /// Start a new counting interval.
    pub fn mark(&mut self) {
        self.marked = self.counters();
        self.marked_deliveries = self.deliveries();
    }

    /// Counters and deliveries since the last [`Deployment::mark`].
    pub fn since_mark(&self) -> (Counters, u64) {
        (
            self.counters().minus(&self.marked),
            self.deliveries() - self.marked_deliveries,
        )
    }

    /// Drive the network until the hub owes nothing: clients ack, edges
    /// relay and report coverage, the hub takes the acks. Member inboxes
    /// are drained with `sw` stopped.
    pub fn settle(&mut self, tracer: &mut Tracer, sw: &mut Stopwatch) -> Res<()> {
        let Deployment {
            clock,
            net,
            hub,
            clients,
            edges,
            edges_down,
            ..
        } = self;
        let mut endpoints: Vec<String> = vec![HUB.to_string()];
        endpoints.extend(clients.iter().map(|c| c.endpoint.clone()));
        if !*edges_down {
            endpoints.extend((0..edges.len()).map(Shape::edge_name));
        }
        let mut rounds = 0;
        while hub.unacked_count() > 0 || (!*edges_down && hub.group_outstanding() > 0) {
            rounds += 1;
            let next = endpoints.iter().filter_map(|e| net.next_arrival(e)).min();
            let Some(t) = next.filter(|_| rounds < MAX_ROUNDS) else {
                return Err(format!(
                    "delivery stuck: {} unacked, {} group deliveries outstanding",
                    hub.unacked_count(),
                    hub.group_outstanding()
                ));
            };
            clock.set(t);
            for c in clients.iter_mut() {
                tracer.span("poll_notifications", || {
                    let n = c.poll_notifications(net, t);
                    ((), n as u64)
                });
            }
            if !*edges_down {
                for (g, e) in edges.iter_mut().enumerate() {
                    let before = e.server.receipts().delivery_count();
                    let r = tracer.span("Relay::pump", || {
                        let r = e.relay.pump(net, hub, &mut e.server, t);
                        (r, e.server.receipts().delivery_count() - before)
                    });
                    if r.map_err(err("relay pump"))? > 0 {
                        sw.stop();
                        e.drain(g, net);
                        sw.start();
                    }
                }
            }
            tracer
                .span("poll_network", || {
                    let r = hub.poll_network();
                    let n = r.as_ref().map_or(0, |n| *n as u64);
                    (r, n)
                })
                .map_err(err("poll_network"))?;
        }
        if !*edges_down {
            tracer
                .span("retry_tick", || (hub.retry_tick(), 0))
                .map_err(err("retry_tick"))?;
        }
        Ok(())
    }

    /// Deposit one batch and wait until everything it owes is acked.
    /// Returns `(arrival, delivered)`: from handing the batch over until
    /// its arrival receipts are durable, and until its deliveries are
    /// acked or covered. `housekeeping` runs first, inside both.
    pub fn run_batch(
        &mut self,
        files: Vec<(String, Vec<u8>)>,
        housekeeping: Option<&Oracle>,
        retention: bistro_base::TimeSpan,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Res<(Duration, Duration)> {
        let mut sw = Stopwatch::started();
        if let Some(oracle) = housekeeping {
            self.housekeeping(oracle, retention, tracer, problems)?;
        }
        let n = files.len() as u64;
        let hub = &mut self.hub;
        tracer
            .span("deposit_batch", || (hub.deposit_batch(files), n))
            .map_err(err("deposit_batch"))?;
        let arrival = sw.elapsed();
        self.settle(tracer, &mut sw)?;
        let delivered = sw.elapsed();
        self.observe_clients(problems);
        Ok((arrival, delivered))
    }

    /// Hourly upkeep of every server: close lapsed batch windows, expire
    /// past the retention window, snapshot the receipts. Checks each
    /// server's live-file count against the oracle.
    pub fn housekeeping(
        &mut self,
        oracle: &Oracle,
        retention: bistro_base::TimeSpan,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Res<()> {
        let cutoff = self.now().saturating_sub(retention);
        let hub = &mut self.hub;
        tracer.span("tick", || (hub.tick(), 0));
        let live = hub.receipts().live_count() as u64;
        tracer
            .span("expire", || (hub.expire(), live))
            .map_err(err("expire"))?;
        let (got, want) = (
            hub.receipts().live_count() as u64,
            oracle.hub_live_after(cutoff),
        );
        if got != want {
            problems.push(format!(
                "hub holds {got} live files after expiry, expected {want}"
            ));
        }
        tracer
            .span("snapshot", || (hub.snapshot(), live))
            .map_err(err("snapshot"))?;
        for (g, e) in self.edges.iter_mut().enumerate() {
            let s = &mut e.server;
            tracer.span("edge.tick", || (s.tick(), 0));
            tracer
                .span("edge.expire", || (s.expire(), 0))
                .map_err(err("edge expire"))?;
            let (got, want) = (
                s.receipts().live_count() as u64,
                oracle.edge_live_after(g, cutoff),
            );
            if got != want {
                problems.push(format!(
                    "edge{g} holds {got} live files after expiry, expected {want}"
                ));
            }
            tracer
                .span("edge.snapshot", || (s.snapshot(), 0))
                .map_err(err("edge snapshot"))?;
        }
        Ok(())
    }

    /// Record the names clients received since the last call. A client
    /// reports hub file ids; the files are still live right after their
    /// delivery, so the hub's receipts name them.
    pub fn observe_clients(&mut self, problems: &mut Vec<String>) {
        for (s, c) in self.clients.iter().enumerate() {
            for (id, _, _) in &c.delivered()[self.seen[s]..] {
                match self.hub.receipts().file(*id) {
                    Some(rec) => self.received[s].add(&rec.name),
                    None => problems.push(format!("c{s} received unknown file {}", id.raw())),
                }
            }
            self.seen[s] = c.delivered().len();
        }
    }

    /// Staged payloads and paths of `inputs` match the generated files:
    /// `compress lzss` payloads decompress to the generated bytes, and
    /// normalized paths follow the timestamp in the name.
    pub fn check_staging(
        &mut self,
        shape: &Shape,
        oracle: &Oracle,
        inputs: &[Input],
        problems: &mut Vec<String>,
    ) {
        for inp in inputs {
            let Some(f) = oracle.feed_of(&inp.file) else {
                continue;
            };
            let feed = &shape.feeds[f];
            let name = &inp.file.name;
            match feed.staging {
                Staging::Lzss => {
                    let path = format!("staging/{}/{name}", feed.name);
                    self.unmetered_ops += 1;
                    match self.store.read(&path).map(|b| container::open(&b)) {
                        Ok(Ok(bytes)) if bytes == inp.payload => {}
                        Ok(Ok(_)) => problems.push(format!("{path} decompresses to other bytes")),
                        Ok(Err(e)) => problems.push(format!("{path} does not decompress: {e}")),
                        Err(e) => problems.push(format!("{path} not staged: {e}")),
                    }
                }
                Staging::Normalize => match crate::gen::normalized_path(&feed.name, name) {
                    Some(rel) if self.store.exists(&format!("staging/{rel}")) => {}
                    Some(rel) => problems.push(format!("normalized file not at staging/{rel}")),
                    None => problems.push(format!("no timestamp in {name}")),
                },
                Staging::Keep => {}
            }
        }
    }
}

impl Edge {
    fn new(shape: &Shape, g: usize, server: Server, store: Arc<MemFs>) -> Edge {
        let members = shape.groups[g].members;
        Edge {
            server,
            store,
            relay: Relay::new(),
            members: (0..members).map(|m| Shape::member_name(g, m)).collect(),
            received: vec![Digest::default(); members],
        }
    }

    /// Take everything the edge sent its members, whatever its arrival
    /// time, and record the names.
    fn drain(&mut self, g: usize, net: &SimNetwork) {
        for (m, endpoint) in self.members.iter().enumerate() {
            for d in net.recv_ready(endpoint, TimePoint::MAX) {
                if let Message::Subscriber(SubscriberMsg::FileDelivered { dest_path, .. }) = d.msg {
                    let name = dest_path.rsplit('/').next().unwrap_or_default();
                    self.received[m].add(name);
                } else {
                    debug_assert!(false, "g{g}: unexpected member message");
                }
            }
        }
    }
}

/// Copy every file of `src` into a fresh `MemFs`.
pub fn copy_store(src: &MemFs, clock: &Arc<SimClock>) -> Res<Arc<MemFs>> {
    let dst = MemFs::shared(clock.clone());
    for path in walk_files(src, "").map_err(err("walk store"))? {
        let data = src.read(&path).map_err(err("read store"))?;
        dst.write_owned(&path, data).map_err(err("copy store"))?;
    }
    Ok(dst)
}
