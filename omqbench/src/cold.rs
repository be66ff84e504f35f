//! `cold_query`: one in-process caller, closed loop.  Each op commits a
//! fresh database into a new store, executes a compiled plan over it and
//! drains every answer, rotating over OMQ × semantics × shape × size.

use crate::common::*;
use crate::gen::{self, Fact, Rng, Shape};
use crate::stats::EndToEnd;
use crate::trace::Trace;
use omq_data::{Answer, Semantics, Store};
use std::time::{Duration, Instant};

/// The data variants, (facts, shape): two sizes either side of a 4 MiB L2
/// cache, and both shapes at the smaller size.  A giant component of 18k
/// facts is left out: its chase alone takes about ten times the 4.5k one's,
/// which would leave too few ops in a window.
pub const VARIANTS: [(usize, Shape); 3] = [
    (4_500, Shape::ComponentRich),
    (4_500, Shape::Giant),
    (18_000, Shape::ComponentRich),
];

pub struct ColdData {
    pub omq: usize,
    pub variant: usize,
    pub facts: Vec<Fact>,
}

pub struct Cold {
    pub omqs: Vec<Compiled>,
    pub data: Vec<ColdData>,
    /// Per dataset, per semantics: the reference result, computed at set-up
    /// through the tracked (component-sharded) execution path and checked
    /// against `PreparedInstance::count` of a plain execution.
    refs: Vec<[Option<Reference>; 3]>,
}

pub fn setup(seed: u64, tr: &mut Trace) -> Fallible<Cold> {
    let mut rng = Rng::new(seed);
    let omqs = compile_all(tr, &mut rng)?;
    let mut data = Vec::new();
    let mut refs = Vec::new();
    for (variant, (size, shape)) in VARIANTS.into_iter().enumerate() {
        for (omq, c) in omqs.iter().enumerate() {
            let facts = gen::dataset(omq, shape, size, "", &mut rng);
            let db = database(c.omq.data_schema(), &facts)?;
            let t0 = Instant::now();
            let plain = c.plan.execute(&db).map_err(err)?;
            let t1 = Instant::now();
            let tracked = c.plan.execute_tracked(&db).map_err(err)?;
            let t2 = Instant::now();
            tr.record("chase.tracked_execute", t1, t2, db.len() as u64);
            tr.count("chase.tracked_ns", (t2 - t1).as_nanos() as f64);
            tr.count("chase.plain_ns", (t1 - t0).as_nanos() as f64);
            check_chase(&plain, tr)?;
            let mut per_sem = [None; 3];
            for (i, sem) in SEMANTICS.into_iter().enumerate() {
                // Heavy combinations stay out of the rotation; the oracle
                // check at set-up still covers them.
                if !heavy(omq, sem) {
                    let answers = drain(&tracked, sem)?;
                    let sp = tr.begin("core.count");
                    let counted = plain.count(sem).map_err(err)?;
                    tr.end(sp, counted);
                    if counted != answers.len() as u64 {
                        return Err(format!(
                            "{} {}: count() says {counted}, the drain gave {}",
                            c.text.name,
                            sem_name(sem),
                            answers.len()
                        ));
                    }
                    per_sem[i] = Some(Reference {
                        count: answers.len() as u64,
                        fingerprint: fingerprint(&answers),
                    });
                }
            }
            refs.push(per_sem);
            data.push(ColdData {
                omq,
                variant,
                facts,
            });
        }
    }
    Ok(Cold { omqs, data, refs })
}

impl Cold {
    /// Runs whole rotations until the next one would end after `seconds`.
    pub fn run(&self, seconds: f64, tr: &mut Trace) -> EndToEnd {
        let mut e = EndToEnd::default();
        let start = Instant::now();
        let mut last = Duration::ZERO;
        let mut rotation = 0;
        while start.elapsed() == Duration::ZERO || (start.elapsed() + last).as_secs_f64() <= seconds
        {
            let t = Instant::now();
            let mut i = 0;
            for (d, data) in self.data.iter().enumerate() {
                for (s, sem) in SEMANTICS.into_iter().enumerate() {
                    let Some(reference) = &self.refs[d][s] else {
                        continue;
                    };
                    // A traced run traces every other op, and the other
                    // half of the same ops in the next rotation.
                    let traced = tr.step(rotation + i);
                    let from = e.request.len();
                    e.ops += 1;
                    if let Err(msg) = self.op(data, sem, reference, tr, &mut e) {
                        eprintln!("cold_query op failed: {msg}");
                        e.failed += 1;
                    }
                    e.pair_since(from, i, traced);
                    i += 1;
                }
            }
            rotation += 1;
            last = t.elapsed();
            // The commit tail is taken per rotation, over the whole mix.
            e.commit_block = i;
        }
        e.busy_s = e.request.iter().sum::<f64>() / 1e6;
        e
    }

    fn op(
        &self,
        data: &ColdData,
        sem: Semantics,
        reference: &Reference,
        tr: &mut Trace,
        e: &mut EndToEnd,
    ) -> Fallible<()> {
        let c = &self.omqs[data.omq];
        let txn = txn(&data.facts);
        tr.request();
        let root = tr.begin("load.cold_op");
        let t0 = Instant::now();
        let sp = tr.begin("data.load");
        let mut store = Store::new(c.omq.data_schema().clone());
        store.commit(txn).map_err(err)?;
        tr.end(sp, data.facts.len() as u64);
        let ack = Instant::now();
        let snapshot = store.snapshot();
        let sp = tr.begin("chase.execute");
        let instance = c.plan.execute(&snapshot).map_err(err)?;
        tr.end(sp, snapshot.len() as u64);
        let sp = tr.begin("core.open");
        let mut stream = instance.answers(sem).map_err(err)?;
        tr.end(sp, 0);
        let sp = tr.begin(first_pull_span(sem));
        let first = stream.next();
        tr.end(sp, 1);
        let t_first = Instant::now();
        let mut answers: Vec<Answer> = Vec::with_capacity(reference.count as usize);
        let sp = tr.begin(drain_span(sem));
        drain_pages(&mut stream, first, ack, &mut answers, e);
        tr.end(sp, answers.len().saturating_sub(1) as u64);
        let done = Instant::now();
        tr.end(root, data.variant as u64);
        check_stream(&stream)?;
        e.commit.push(us(t0, ack));
        e.ttfa.push(us(t0, t_first));
        e.request.push(us(t0, done));
        e.answers += answers.len() as u64;

        // Verification, outside the timed op: against the reference, whose
        // count `PreparedInstance::count` confirmed at set-up.
        check_chase(&instance, tr)?;
        let got = Reference {
            count: answers.len() as u64,
            fingerprint: fingerprint(&answers),
        };
        if got != *reference {
            return Err(format!(
                "{} {}: {} answers, reference {}",
                c.text.name,
                sem_name(sem),
                got.count,
                reference.count
            ));
        }
        Ok(())
    }
}

impl crate::Workload for Cold {
    fn run(&mut self, seconds: f64, tr: &mut Trace) -> EndToEnd {
        Cold::run(self, seconds, tr)
    }
}
