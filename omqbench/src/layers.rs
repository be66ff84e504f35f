//! The per-layer metrics of a traced run.
//!
//! They come from the spans and counts the workload recorded around its own
//! calls, plus a short probe after the window that calls every layer once
//! more on small inputs (4.5k facts per OMQ): a layer the workload does not
//! reach still gets a number, and a layer it does reach is dominated by the
//! workload's own, far more numerous spans.  Every metric is the median over
//! all spans of its name; counts are totals or per-call means.  The probe is
//! also the only caller of `omq-cluster`: a `cluster_scatter` workload was
//! tried and left out, because the tails of its page waits and first
//! answers (set by two worker processes racing on two vCPUs) spread by more
//! than any bound a benchmark may set.

use crate::common::*;
use crate::gen::{self, Fact, Rng, Shape};
use crate::stats::{self, median, EndToEnd, Report};
use crate::trace::Trace;
use omq_cluster::{ClusterConfig, WorkerSpawn};
use omq_data::{Answer, Database, Schema, Semantics, Store};
use omq_serve::{QueryId, Request, ServingEngine};
use omq_server::{Client, QueryTarget, Server, ServerConfig, ServerFrame};
use omq_wire::{render_answer, FrameDecoder};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Facts per OMQ in the probe's store.
const PROBE_FACTS: usize = 4_500;
/// 8-fact commits in the probe; every `PROBE_BRIDGE`-th bridges two
/// components.
const PROBE_COMMITS: usize = 24;
const PROBE_BRIDGE: usize = 12;
/// Idle window over which the server's own CPU use is measured.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// Distributed runs per semantics.
const CLUSTER_ROUNDS: usize = 2;
/// Pages of 16 timed per cursor, in process and over the wire, after the
/// first (which builds the cursor's structures), for the fetch overhead.
const OVERHEAD_PAGES: usize = 3;

/// Calls every layer on a small store and records spans and counts.
pub fn probe(seed: u64, tr: &mut Trace) -> Fallible<()> {
    let mut rng = Rng::new(seed ^ 0x5eed);
    let omqs = compile_all(tr, &mut rng)?;
    let prefixes = ["a", "b", "c"];
    let datasets: Vec<Vec<Fact>> = (0..3)
        .map(|i| gen::dataset(i, Shape::ComponentRich, PROBE_FACTS, prefixes[i], &mut rng))
        .collect();

    // Chase and core, per OMQ on its own database.
    for (i, c) in omqs.iter().enumerate() {
        let db = database(c.omq.data_schema(), &datasets[i])?;
        for _ in 0..2 {
            let t0 = Instant::now();
            let sp = tr.begin("chase.execute");
            let plain = c.plan.execute(&db).map_err(err)?;
            tr.end(sp, db.len() as u64);
            let t1 = Instant::now();
            let tracked = c.plan.execute_tracked(&db).map_err(err)?;
            let t2 = Instant::now();
            tr.record("chase.tracked_execute", t1, t2, db.len() as u64);
            tr.count("chase.tracked_ns", (t2 - t1).as_nanos() as f64);
            tr.count("chase.plain_ns", (t1 - t0).as_nanos() as f64);
            check_chase(&plain, tr)?;
            drop(tracked);
            for sem in SEMANTICS {
                let sp = tr.begin("core.open");
                let mut stream = plain.answers(sem).map_err(err)?;
                tr.end(sp, 0);
                let sp = tr.begin(first_pull_span(sem));
                let first = stream.next();
                tr.end(sp, 1);
                if heavy(i, sem) {
                    continue;
                }
                let mut rest: Vec<Answer> = Vec::new();
                let sp = tr.begin(drain_span(sem));
                while stream.next_batch(&mut rest, 256) > 0 {}
                tr.end(sp, rest.len() as u64);
                check_stream(&stream)?;
                let sp = tr.begin("core.count");
                let counted = plain.count(sem).map_err(err)?;
                tr.end(sp, counted);
                if counted != rest.len() as u64 + u64::from(first.is_some()) {
                    return Err(format!("{}: count() disagrees with the drain", c.text.name));
                }
            }
        }
    }

    // Data, core refresh and serve: a shared store taking 8-fact commits.
    let all: Vec<Fact> = datasets.concat();
    let clusters = datasets[0]
        .iter()
        .filter(|(r, _)| *r == "Researcher")
        .count()
        / gen::CLUSTER;
    let deltas = gen::deltas(PROBE_COMMITS, "a", clusters, Some(PROBE_BRIDGE), &mut rng);
    let mut engine = ServingEngine::new(1);
    let mut store = Store::new(Schema::new());
    for c in &omqs {
        engine
            .register_plan(c.text.name, c.plan.clone())
            .map_err(err)?;
        store.merge_schema(c.omq.data_schema()).map_err(err)?;
    }
    engine.register_data(txn(&all)).map_err(err)?;
    store.commit(txn(&all)).map_err(err)?;
    let mut warm: Vec<_> = omqs
        .iter()
        .map(|c| c.plan.execute_tracked(store.snapshot()).map_err(err))
        .collect::<Fallible<_>>()?;
    for delta in &deltas {
        let sp = tr.begin("serve.register_data");
        engine.register_data(txn(delta)).map_err(err)?;
        tr.end(sp, delta.len() as u64);
        let sp = tr.begin("data.commit");
        let receipt = store.commit(txn(delta)).map_err(err)?;
        tr.end(sp, delta.len() as u64);
        let head = store.snapshot();
        for instance in warm.iter_mut() {
            let sp = tr.begin("core.refresh");
            let next = instance.refresh(&head, &receipt).map_err(err)?;
            tr.end(sp, 0);
            let s = next.stats();
            tr.count("core.refresh_calls", 1.0);
            tr.count("core.refresh_shards", s.shards as f64);
            tr.count("core.refresh_reused", s.reused_shards as f64);
            if s.reused_shards == 0 && s.shards > 1 {
                tr.count("core.refresh_rebuilds", 1.0);
            }
            *instance = next;
        }
    }
    tr.count("core.refresh_rebuilds", 0.0);
    // The refreshed instances must answer like a fresh execution.
    let head = store.snapshot();
    for (i, (c, instance)) in omqs.iter().zip(&warm).enumerate() {
        let fresh = c.plan.execute(&head).map_err(err)?;
        for sem in SEMANTICS.into_iter().filter(|&sem| !heavy(i, sem)) {
            if fingerprint(&drain(instance, sem)?) != fingerprint(&drain(&fresh, sem)?) {
                return Err(format!(
                    "{} {}: refreshed instance differs from a fresh execution",
                    c.text.name,
                    sem_name(sem)
                ));
            }
        }
    }
    let pinned = engine.snapshot();
    let mut pages: Vec<Vec<Vec<String>>> = Vec::new();
    for i in 0..omqs.len() {
        let id = QueryId::from_index(i);
        for sem in SEMANTICS {
            tr.count("serve.opens", 1.0);
            if engine.warm_instance(id).is_some() {
                tr.count("serve.warm_hits", 1.0);
            }
            let sp = tr.begin("serve.stream_open");
            let mut head = engine.serve_stream(&Request::new(id, sem)).map_err(err)?;
            tr.end(sp, 0);
            // Pages of 16, rendered: what a wire fetch serves.  The first
            // builds the cursor's structures; the later ones are timed.
            for p in 0..=OVERHEAD_PAGES {
                let t = Instant::now();
                let mut page = Vec::new();
                head.next_batch(&mut page, 16);
                let rendered: Vec<Vec<String>> =
                    page.iter().map(|a| render_answer(a, &pinned)).collect();
                if p > 0 {
                    tr.record("serve.page16", t, Instant::now(), rendered.len() as u64);
                }
                pages.push(rendered);
            }
            let sp = tr.begin("serve.pinned_open");
            let mut at = engine
                .serve_stream(&Request::new(id, sem).at(pinned.clone()))
                .map_err(err)?;
            tr.end(sp, 0);
            let mut big = Vec::new();
            at.next_batch(&mut big, 256);
            pages.push(big.iter().map(|a| render_answer(a, &pinned)).collect());
        }
    }

    // Wire: the public frame codec on the recorded pages.
    for (n, answers) in pages.into_iter().enumerate() {
        let frame = ServerFrame::Page {
            cursor: n as u64,
            answers,
            done: false,
        };
        let sp = tr.begin("wire.encode");
        let bytes = frame.encode();
        tr.end(sp, bytes.len() as u64);
        let sp = tr.begin("wire.decode");
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let payload = decoder.next_frame().map_err(err)?.ok_or("torn frame")?;
        let back = ServerFrame::decode(&payload).map_err(|v| v.message)?;
        tr.end(sp, bytes.len() as u64);
        if back != frame {
            return Err("page frame does not round-trip".into());
        }
    }

    // Server: fetch round trips beside the in-process pages above, and the
    // process's CPU use while two connections sit idle.
    let server = Server::start(engine, ServerConfig::default()).map_err(err)?;
    let mut clients = vec![
        Client::connect(server.local_addr()).map_err(err)?,
        Client::connect(server.local_addr()).map_err(err)?,
    ];
    for (i, c) in omqs.iter().enumerate() {
        for sem in SEMANTICS {
            let client = &mut clients[i % 2];
            let cursor = client
                .open_cursor(QueryTarget::Name(c.text.name.into()), sem, None)
                .map_err(err)?;
            client.fetch(cursor, 16).map_err(err)?;
            for _ in 0..OVERHEAD_PAGES {
                // Think time, as in the wire workloads (see `wire::Conn`).
                std::thread::sleep(Duration::from_micros(rng.below(500) as u64));
                let t = Instant::now();
                let page = client.fetch(cursor, 16).map_err(err)?;
                tr.record(
                    "server.fetch16",
                    t,
                    Instant::now(),
                    page.answers.len() as u64,
                );
            }
            client.close_cursor(cursor).map_err(err)?;
        }
    }
    let cpu0 = stats::process_cpu_ns();
    let t = Instant::now();
    std::thread::sleep(IDLE_WINDOW);
    let idle_pct = (stats::process_cpu_ns() - cpu0) / t.elapsed().as_nanos() as f64 * 100.0;
    tr.count("server.idle_cpu_pct", idle_pct);
    for client in clients {
        client.bye().map_err(err)?;
    }
    server.shutdown();

    // Cluster: distributed runs over the offices data, each checked against
    // the in-process execution as a multiset.
    let config = ClusterConfig {
        workers: 2,
        worker_timeout: Duration::from_secs(60),
        spawn: WorkerSpawn::Command {
            program: std::env::current_exe().map_err(err)?,
            args: Vec::new(),
        },
        ..ClusterConfig::default()
    };
    let c = &omqs[0];
    let db = database(c.omq.data_schema(), &datasets[0])?;
    let instance = c.plan.execute(&db).map_err(err)?;
    for _ in 0..CLUSTER_ROUNDS {
        for sem in SEMANTICS {
            let mut reference = drain(&instance, sem)?;
            reference.sort();
            cluster_run(c, &db, sem, &config, tr, &reference)?;
        }
    }
    Ok(())
}

/// One `omq_cluster::execute` over two worker processes (this binary),
/// drained in pages of [`PAGE`].
fn cluster_run(
    c: &Compiled,
    db: &Database,
    sem: Semantics,
    config: &ClusterConfig,
    tr: &mut Trace,
    reference: &[Answer],
) -> Fallible<()> {
    tr.request();
    let sp = tr.begin("cluster.execute_call");
    let run = omq_cluster::execute(c.text.ontology, c.text.query, db, sem, config).map_err(err)?;
    tr.end(sp, db.len() as u64);
    let mut stream = run.stream;
    let sp = tr.begin("cluster.first_answer");
    let mut answers: Vec<Answer> = stream.next().into_iter().collect();
    tr.end(sp, 1);
    let sp = tr.begin("cluster.reduce");
    while stream.next_batch(&mut answers, PAGE) > 0 {}
    tr.end(sp, answers.len().saturating_sub(1) as u64);
    check_stream(&stream)?;
    let stats = run.handle.finish();
    tr.count("cluster.runs", 1.0);
    tr.count("cluster.steals", stats.steals as f64);
    tr.count("cluster.pages", stats.pages as f64);
    tr.count("cluster.reassignments", stats.reassignments as f64);
    tr.count("cluster.shipped_bytes", stats.shipped_bytes as f64);
    tr.count("cluster.shipped_facts", stats.shipped_facts as f64);
    answers.sort();
    if answers != reference || stats.reassignments != 0 || stats.worker_failures != 0 {
        return Err(format!(
            "{} {}: {} answers from the cluster, {} in process ({} reassignments)",
            c.text.name,
            sem_name(sem),
            answers.len(),
            reference.len(),
            stats.reassignments
        ));
    }
    Ok(())
}

/// The layers whose self-time shares are reported.  `think` (the wire
/// clients' think time) is left out: it is the benchmark's own sleep.
const LAYERS: [&str; 9] = [
    "load", "cq", "chase", "core", "data", "serve", "wire", "server", "cluster",
];

/// Fills `report` with every per-layer metric.
/// `self_ns` is each layer's self time over the workload's requests (see
/// [`Trace::self_time_by_layer`]), taken before the probe ran; `e` holds the
/// request times of the run's traced and untraced ops.
pub fn report(
    tr: &Trace,
    self_ns: &BTreeMap<&'static str, f64>,
    e: &EndToEnd,
    report: &mut Report,
) {
    let count = |name: &str| tr.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: &str, b: &str| count(a) / count(b).max(1.0);
    let us = |report: &mut Report, metric: &str, span: &str| {
        report.put_median_ns(metric, &tr.durations(span), "us")
    };
    us(report, "cq.parse_us", "cq.parse");
    us(report, "core.compile_us", "core.compile");
    us(report, "chase.execute_us", "chase.execute");
    let per_fact = tr.per_item("chase.execute");
    report.put(
        "chase.us_per_fact",
        median(&per_fact) / 1e3,
        "us",
        per_fact.len(),
    );
    let execs = count("chase.executions") as usize;
    report.put(
        "chase.chased_per_input_fact",
        ratio("chase.chased_facts", "chase.input_facts"),
        "ratio",
        execs,
    );
    report.put(
        "chase.grafts",
        ratio("chase.grafts", "chase.executions"),
        "count",
        execs,
    );
    report.put(
        "chase.memo_hits",
        ratio("chase.memo_hits", "chase.executions"),
        "count",
        execs,
    );
    us(report, "chase.tracked_execute_us", "chase.tracked_execute");
    report.put(
        "chase.tracked_over_plain_x",
        ratio("chase.tracked_ns", "chase.plain_ns"),
        "x",
        execs,
    );
    us(report, "core.open_us", "core.open");
    for sem in ["complete", "partial", "multi"] {
        let first = tr.durations(&format!("core.first_pull.{sem}"));
        report.put_median_ns(&format!("core.first_pull_us.{sem}"), &first, "us");
        let delay = tr.per_item(&format!("core.drain.{sem}"));
        report.put_median_ns(&format!("core.delay_ns.{sem}"), &delay, "ns");
    }
    us(report, "core.count_us", "core.count");
    us(report, "data.commit_us", "data.commit");
    us(report, "core.refresh_us", "core.refresh");
    let refreshes = count("core.refresh_calls") as usize;
    report.put(
        "core.refresh_reused_ratio",
        ratio("core.refresh_reused", "core.refresh_shards"),
        "ratio",
        refreshes,
    );
    report.put(
        "core.refresh_rebuilds",
        count("core.refresh_rebuilds"),
        "count",
        refreshes,
    );
    us(report, "serve.register_data_us", "serve.register_data");
    us(report, "serve.stream_open_us", "serve.stream_open");
    report.put(
        "serve.warm_hit_ratio",
        ratio("serve.warm_hits", "serve.opens"),
        "ratio",
        count("serve.opens") as usize,
    );
    us(report, "serve.pinned_open_us", "serve.pinned_open");
    let bytes: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "wire.encode")
        .map(|s| s.n as f64)
        .collect();
    report.put("wire.page_bytes", median(&bytes), "bytes", bytes.len());
    us(report, "wire.encode_us", "wire.encode");
    us(report, "wire.decode_us", "wire.decode");
    let wire_fetch = tr.durations("server.fetch16");
    let local_page = tr.durations("serve.page16");
    report.put(
        "server.fetch_overhead_us",
        (median(&wire_fetch) - median(&local_page)) / 1e3,
        "us",
        wire_fetch.len(),
    );
    report.put("server.idle_cpu_pct", count("server.idle_cpu_pct"), "%", 1);
    us(report, "cluster.execute_call_us", "cluster.execute_call");
    us(report, "cluster.first_answer_us", "cluster.first_answer");
    report.put_median_ns(
        "cluster.reduce_ns_per_answer",
        &tr.per_item("cluster.reduce"),
        "ns",
    );
    let runs = count("cluster.runs") as usize;
    report.put(
        "cluster.shipped_bytes_per_fact",
        ratio("cluster.shipped_bytes", "cluster.shipped_facts"),
        "bytes",
        runs,
    );
    report.put(
        "cluster.steals",
        ratio("cluster.steals", "cluster.runs"),
        "count",
        runs,
    );
    report.put(
        "cluster.pages",
        ratio("cluster.pages", "cluster.runs"),
        "count",
        runs,
    );
    report.put(
        "cluster.reassignments",
        count("cluster.reassignments"),
        "count",
        runs,
    );
    let (overhead, keys) = e.tracing_overhead_pct();
    report.put("trace.overhead_pct", overhead, "%", keys);
    let total: f64 = LAYERS.iter().filter_map(|l| self_ns.get(l)).sum();
    for layer in LAYERS {
        let share = self_ns.get(layer).copied().unwrap_or(0.0) / total.max(1.0) * 100.0;
        report.put(format!("self_pct.{layer}"), share, "%", tr.spans().len());
    }
}
