//! `wire_browse`: an in-process `Server` over a store preloaded with the
//! three component-rich datasets, driven over TCP by two `Client`
//! connections in a closed loop.  A session opens a head cursor and either
//! browses four pages of 16 or drains with pages of 256, and every fourth
//! session also counts.  After the window, a closed-loop probe of 8-fact
//! commits (each followed by a head page) gives the workload's commit and
//! freshness figures, and cursors pinned to the preload's epoch before the
//! probe are drained and checked byte for byte.

use crate::common::*;
use crate::gen::{self, Fact, Rng, Shape};
use crate::stats::EndToEnd;
use crate::trace::Trace;
use crate::Workload;
use omq_data::Semantics;
use omq_serve::{Request, ServingEngine};
use omq_server::{Client, QueryTarget, Server, ServerConfig, TxnOp};
use omq_wire::render_answer;
use std::time::{Duration, Instant};

/// Facts per preloaded dataset (three datasets share the store).
const PRELOAD: usize = 5_000;
/// Page size of browsing sessions, and how many pages they fetch.
const BROWSE_PAGE: u64 = 16;
const BROWSE_PAGES: usize = 4;
/// Page size of draining sessions.
const DRAIN_PAGE: u64 = 256;
/// Closed-loop commits after the `wire_browse` window, each after a random
/// pause of up to `PROBE_GAP_MS`, so that the probe spans about 12 s.  The
/// first `PROBE_WARMUP` are not timed (the first one copies the store,
/// which the pinned snapshot shares).  The commit tail is the median of the
/// p90s of blocks of `PROBE_BLOCK` commits, so that a few slow seconds of
/// the machine move the tail of the blocks they fall in, not the figure.
const PROBE_WARMUP: usize = 20;
const PROBE_COMMITS: usize = 200;
const PROBE_BLOCK: usize = 20;
const PROBE_GAP_MS: usize = 100;
/// The head cursor opened after each probe commit: the query the commits
/// feed.  One fixed query, because first pages of the nine OMQ × semantics
/// combinations take 2–22 ms, and a median over their mix moved by a fifth
/// between seeds.
const FRESH_OMQ: usize = 0;
const FRESH_SEMANTICS: Semantics = Semantics::MinimalPartial;
/// Constant prefix of the offices dataset, which the deltas grow.
const OFFICES_PREFIX: &str = "a";

pub struct Wire {
    omqs: Vec<Compiled>,
    deltas: Vec<Vec<TxnOp>>,
    server: Option<Server>,
    clients: Vec<Conn>,
    /// Store epoch right after the preload.
    base_epoch: u64,
    /// Per OMQ, per semantics: the rendered head answers at `base_epoch`.
    head_refs: Vec<Vec<Vec<Vec<String>>>>,
    /// Per OMQ, per semantics: the rendered answers of a plain execution at
    /// `base_epoch`, which a cursor pinned there must replay (empty for
    /// heavy combinations, which are never drained).
    pinned_refs: Vec<Vec<Vec<Vec<String>>>>,
}

fn target(c: &Compiled) -> QueryTarget {
    QueryTarget::Name(c.text.name.to_owned())
}

fn wire_ops(facts: &[Fact]) -> Vec<TxnOp> {
    facts
        .iter()
        .map(|(rel, args)| TxnOp::Insert {
            relation: (*rel).to_owned(),
            tuple: args.clone(),
        })
        .collect()
}

pub fn setup(seed: u64, tr: &mut Trace) -> Fallible<Wire> {
    let mut rng = Rng::new(seed);
    let omqs = compile_all(tr, &mut rng)?;
    let prefixes = [OFFICES_PREFIX, "b", "c"];
    let preload: Vec<Fact> = (0..omqs.len())
        .flat_map(|i| gen::dataset(i, Shape::ComponentRich, PRELOAD, prefixes[i], &mut rng))
        .collect();
    let clusters = preload
        .iter()
        .filter(|(r, a)| *r == "Researcher" && a[0].starts_with(OFFICES_PREFIX))
        .count()
        / gen::CLUSTER;
    let deltas = gen::deltas(
        PROBE_WARMUP + PROBE_COMMITS,
        OFFICES_PREFIX,
        clusters,
        None,
        &mut rng,
    )
    .iter()
    .map(|d| wire_ops(d))
    .collect();

    let mut engine = ServingEngine::new(1);
    for c in &omqs {
        engine
            .register_plan(c.text.name, c.plan.clone())
            .map_err(err)?;
    }
    let sp = tr.begin("serve.preload");
    engine.register_data(txn(&preload)).map_err(err)?;
    tr.end(sp, preload.len() as u64);
    let base_epoch = engine.epoch();

    // Reference answers at the head, from the warm instances the server
    // will serve, cross-checked as multisets against a plain execution,
    // whose order a pinned cursor replays.
    let head = engine.snapshot();
    let render = |answers: &[omq_data::Answer]| -> Vec<Vec<String>> {
        answers.iter().map(|a| render_answer(a, &head)).collect()
    };
    let mut head_refs = Vec::new();
    let mut pinned_refs = Vec::new();
    for (i, c) in omqs.iter().enumerate() {
        let plain = c.plan.execute(&head).map_err(err)?;
        check_chase(&plain, tr)?;
        let mut per_sem = Vec::new();
        let mut pinned_per_sem = Vec::new();
        for sem in SEMANTICS {
            let id = omq_serve::QueryId::from_index(i);
            let stream = engine.serve_stream(&Request::new(id, sem)).map_err(err)?;
            if heavy(i, sem) {
                // Only ever browsed: the reference is the browsed prefix.
                let prefix: Vec<_> = stream.take(BROWSE_PAGE as usize * BROWSE_PAGES).collect();
                per_sem.push(render(&prefix));
                pinned_per_sem.push(Vec::new());
                continue;
            }
            let served: Vec<_> = stream.collect();
            let direct = drain(&plain, sem)?;
            let counted = engine.count(&Request::new(id, sem)).map_err(err)?.count;
            if fingerprint(&served) != fingerprint(&direct)
                || served.len() != direct.len()
                || counted != served.len() as u64
            {
                return Err(format!(
                    "{} {}: warm and plain executions differ",
                    c.text.name,
                    sem_name(sem)
                ));
            }
            per_sem.push(render(&served));
            pinned_per_sem.push(render(&direct));
        }
        head_refs.push(per_sem);
        pinned_refs.push(pinned_per_sem);
    }
    drop(head);

    let server = Server::start(engine, ServerConfig::default()).map_err(err)?;
    let clients = (0..2)
        .map(|t| {
            let client = Client::connect(server.local_addr()).map_err(err)?;
            client
                .set_timeout(Some(Duration::from_secs(60)))
                .map_err(err)?;
            Ok(Conn {
                client,
                rng: Rng::new(seed ^ ((t + 1) << 32)),
                thought: Duration::ZERO,
            })
        })
        .collect::<Fallible<Vec<_>>>()?;
    Ok(Wire {
        omqs,
        deltas,
        server: Some(server),
        clients,
        base_epoch,
        head_refs,
        pinned_refs,
    })
}

/// A client connection with think time.  Before a request it may wait a
/// seeded random 0–500 µs (the server's idle poll interval), so that a
/// closed loop does not lock onto the server's poll cycle: without it, a
/// run's fetch times settle on one phase or another and differ by 2× from
/// run to run.  Think time is left out of every measured time; a traced run
/// records it as a `think.wait` span, outside every layer's self time.
pub struct Conn {
    client: Client,
    rng: Rng,
    thought: Duration,
}

/// A point in a session: the instant and the think time so far.
#[derive(Clone, Copy)]
struct Mark(Instant, Duration);

impl Conn {
    fn think(&mut self, tr: &mut Trace) {
        let t = Instant::now();
        let sp = tr.begin("think.wait");
        std::thread::sleep(Duration::from_micros(self.rng.below(500) as u64));
        tr.end(sp, 0);
        self.thought += t.elapsed();
    }

    fn mark(&self) -> Mark {
        Mark(Instant::now(), self.thought)
    }

    /// µs since `m`, less the think time since.
    fn busy_us(&self, m: Mark) -> f64 {
        us(m.0, Instant::now()) - (self.thought - m.1).as_nanos() as f64 / 1e3
    }
}

impl std::ops::Deref for Conn {
    type Target = Client;
    fn deref(&self) -> &Client {
        &self.client
    }
}

impl std::ops::DerefMut for Conn {
    fn deref_mut(&mut self) -> &mut Client {
        &mut self.client
    }
}

/// One fetch, after a think.  A cursor's first page is the caller's time to
/// first answer; the round trip of every later page goes to `e.fetch`.
fn fetch(
    client: &mut Conn,
    cursor: omq_server::WireCursor,
    k: u64,
    first: bool,
    tr: &mut Trace,
    e: &mut EndToEnd,
) -> Fallible<omq_server::WirePage> {
    client.think(tr);
    let sp = tr.begin("server.fetch");
    let t = Instant::now();
    let page = client.fetch(cursor, k).map_err(err)?;
    if !first {
        e.fetch.push(us(t, Instant::now()));
    }
    tr.end(sp, page.answers.len() as u64);
    Ok(page)
}

impl Wire {
    /// A browsing or draining session of `wire_browse`; `j` indexes the
    /// 36-session cycle.
    fn browse_session(
        &self,
        client: &mut Conn,
        j: usize,
        tr: &mut Trace,
        e: &mut EndToEnd,
    ) -> Fallible<()> {
        let (omq, s) = (j % 3, (j / 3) % 3);
        let sem = SEMANTICS[s];
        let draining = j / 9 == 3 && !heavy(omq, sem);
        let c = &self.omqs[omq];
        client.think(tr);
        tr.request();
        let root = tr.begin("load.browse_session");
        let t0 = client.mark();
        let sp = tr.begin("server.open");
        let cursor = client.open_cursor(target(c), sem, None).map_err(err)?;
        tr.end(sp, 0);
        let mut got: Vec<Vec<String>> = Vec::new();
        let (k, max_pages) = if draining {
            (DRAIN_PAGE, usize::MAX)
        } else {
            (BROWSE_PAGE, BROWSE_PAGES)
        };
        for p in 0..max_pages {
            let page = fetch(client, cursor, k, p == 0, tr, e)?;
            if p == 0 {
                e.ttfa.push(client.busy_us(t0));
            }
            got.extend(page.answers);
            if page.done {
                break;
            }
        }
        let sp = tr.begin("server.close");
        client.close_cursor(cursor).map_err(err)?;
        tr.end(sp, 0);
        e.request.push(client.busy_us(t0));
        tr.end(root, got.len() as u64);
        e.answers += got.len() as u64;
        // Every fourth session also counts; the count is an op of its own,
        // outside the session's time.
        let mut counted = None;
        if j.is_multiple_of(4) && !heavy(omq, sem) {
            e.ops += 1;
            client.think(tr);
            tr.request();
            let root = tr.begin("load.count");
            let sp = tr.begin("server.count");
            counted = Some(client.count(target(c), sem, None).map_err(err)?);
            tr.end(sp, 0);
            tr.end(root, 0);
        }

        let reference = &self.head_refs[omq][s];
        let expected = if draining {
            &reference[..]
        } else {
            &reference[..got.len().min(reference.len())]
        };
        if cursor.epoch != self.base_epoch
            || got != expected
            || (draining && got.len() != reference.len())
        {
            return Err(format!(
                "{} {}: wire page differs from the in-process render",
                c.text.name,
                sem_name(sem)
            ));
        }
        if let Some(count) = counted {
            if count.count != reference.len() as u64 {
                return Err(format!(
                    "{} {}: count {} != {}",
                    c.text.name,
                    sem_name(sem),
                    count.count,
                    reference.len()
                ));
            }
        }
        Ok(())
    }

    fn run_browse(&mut self, seconds: f64, tr: &mut Trace) -> EndToEnd {
        let parent = &*tr;
        let mut clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let (results, elapsed) = std::thread::scope(|scope| {
            let start = Instant::now();
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    scope.spawn(move || {
                        let mut tr = parent.child(t as u64 + 1);
                        let mut e = EndToEnd::default();
                        let mut last = Duration::ZERO;
                        let mut k = 0;
                        // The second connection starts half a cycle later.
                        let offset = t * 18;
                        while start.elapsed() == Duration::ZERO
                            || (start.elapsed() + last).as_secs_f64() <= seconds
                        {
                            let cycle = Instant::now();
                            for j in 0..36 {
                                // A traced run traces every other session,
                                // and the other half in the next cycle.
                                let traced = tr.step(k + j);
                                let from = e.request.len();
                                let session = (j + offset) % 36;
                                e.ops += 1;
                                if let Err(msg) =
                                    this.browse_session(client, session, &mut tr, &mut e)
                                {
                                    eprintln!("wire_browse session failed: {msg}");
                                    e.failed += 1;
                                }
                                e.pair_since(from, session, traced);
                            }
                            k += 1;
                            last = cycle.elapsed();
                        }
                        (e, tr)
                    })
                })
                .collect();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect();
            (results, start.elapsed())
        });
        self.clients = clients;
        let mut e = EndToEnd::default();
        for (part, part_tr) in results {
            e.absorb(part);
            tr.absorb(part_tr);
        }
        e.busy_s = elapsed.as_secs_f64();
        e
    }

    /// `wire_browse`'s commit probe: closed-loop 8-fact commits, each
    /// followed by the first page of a head cursor on the offices query.
    fn commit_probe(&mut self, e: &mut EndToEnd, tr: &mut Trace) {
        let client = &mut self.clients[0];
        let (c, sem) = (&self.omqs[FRESH_OMQ], FRESH_SEMANTICS);
        e.commit_block = PROBE_BLOCK;
        for (k, ops) in self.deltas.iter().enumerate() {
            std::thread::sleep(Duration::from_millis(client.rng.below(PROBE_GAP_MS) as u64));
            let timed = k >= PROBE_WARMUP;
            let mut probe = || -> Fallible<()> {
                client.think(tr);
                tr.request();
                let root = tr.begin("load.commit");
                let t0 = client.mark();
                let sp = tr.begin("server.commit");
                let ack = client.commit(ops.clone()).map_err(err)?;
                tr.end(sp, ops.len() as u64);
                if timed {
                    e.commit.push(client.busy_us(t0));
                }
                tr.end(root, ops.len() as u64);
                let acked = client.mark();
                let root = tr.begin("load.fresh_page");
                client.think(tr);
                let sp = tr.begin("server.open");
                let cursor = client.open_cursor(target(c), sem, None).map_err(err)?;
                tr.end(sp, 0);
                client.think(tr);
                let sp = tr.begin("server.fetch");
                let page = client.fetch(cursor, BROWSE_PAGE).map_err(err)?;
                tr.end(sp, page.answers.len() as u64);
                if timed {
                    e.fresh.push(client.busy_us(acked));
                }
                let sp = tr.begin("server.close");
                client.close_cursor(cursor).map_err(err)?;
                tr.end(sp, 0);
                tr.end(root, page.answers.len() as u64);
                if cursor.epoch < ack.epoch || page.answers.is_empty() {
                    return Err("head cursor misses the commit".into());
                }
                Ok(())
            };
            if let Err(msg) = probe() {
                eprintln!("wire_browse commit probe failed: {msg}");
                e.failed += 1;
            }
        }
    }

    /// Drains a cursor pinned to `snapshot` (the preload's epoch) for every
    /// drainable OMQ and semantics, and checks its pages byte for byte
    /// against the in-process render of a plain execution at that epoch.
    fn pinned_drains(&mut self, snapshot: omq_server::WireSnapshot, e: &mut EndToEnd) {
        let client = &mut self.clients[0];
        let mut check = || -> Fallible<()> {
            for (i, c) in self.omqs.iter().enumerate() {
                for (s, sem) in SEMANTICS.into_iter().enumerate() {
                    if heavy(i, sem) {
                        continue;
                    }
                    let cursor = client
                        .open_cursor(target(c), sem, Some(snapshot.handle))
                        .map_err(err)?;
                    let mut got = Vec::new();
                    loop {
                        let page = client.fetch(cursor, DRAIN_PAGE).map_err(err)?;
                        got.extend(page.answers);
                        if page.done {
                            break;
                        }
                    }
                    client.close_cursor(cursor).map_err(err)?;
                    if cursor.epoch != self.base_epoch || got != self.pinned_refs[i][s] {
                        return Err(format!(
                            "{} {}: pinned drain at epoch {} differs from the in-process render",
                            c.text.name,
                            sem_name(sem),
                            cursor.epoch
                        ));
                    }
                }
            }
            client.release(snapshot).map_err(err)
        };
        if let Err(msg) = check() {
            eprintln!("wire_browse pinned drain failed: {msg}");
            e.failed += 1;
        }
    }
}

impl Workload for Wire {
    fn run(&mut self, seconds: f64, tr: &mut Trace) -> EndToEnd {
        self.run_browse(seconds, tr)
    }

    fn finish(&mut self, e: &mut EndToEnd, tr: &mut Trace) {
        // Pinned before the probe's commits move the head on, so that the
        // pinned opens afterwards miss the warm instances and re-execute.
        let snapshot = match self.clients[0].pin() {
            Ok(snapshot) => snapshot,
            Err(msg) => {
                eprintln!("wire_browse pin failed: {msg}");
                e.failed += 1;
                return;
            }
        };
        self.commit_probe(e, tr);
        self.pinned_drains(snapshot, e);
    }

    fn stop(mut self: Box<Self>) {
        for client in self.clients.drain(..) {
            let _ = client.client.bye();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
