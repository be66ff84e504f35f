//! What every workload shares: compiling the OMQs, the oracle check,
//! answer fingerprints and the in-process drain.

use crate::gen::{self, Fact, OmqText, Rng, Shape};
use crate::stats::EndToEnd;
use crate::trace::Trace;
use omq_chase::{ChaseConfig, Ontology, OntologyMediatedQuery};
use omq_core::{AnswerStream, BruteForce, PreparedInstance, QueryPlan};
use omq_cq::ConjunctiveQuery;
use omq_data::{Answer, Database, Semantics, Store, Txn};
use std::hash::{Hash, Hasher};
use std::time::Instant;

pub const SEMANTICS: [Semantics; 3] = [
    Semantics::Complete,
    Semantics::MinimalPartial,
    Semantics::MinimalPartialMulti,
];

pub fn sem_name(sem: Semantics) -> &'static str {
    match sem {
        Semantics::Complete => "complete",
        Semantics::MinimalPartial => "partial",
        Semantics::MinimalPartialMulti => "multi",
    }
}

pub fn first_pull_span(sem: Semantics) -> &'static str {
    match sem {
        Semantics::Complete => "core.first_pull.complete",
        Semantics::MinimalPartial => "core.first_pull.partial",
        Semantics::MinimalPartialMulti => "core.first_pull.multi",
    }
}

pub fn drain_span(sem: Semantics) -> &'static str {
    match sem {
        Semantics::Complete => "core.drain.complete",
        Semantics::MinimalPartial => "core.drain.partial",
        Semantics::MinimalPartialMulti => "core.drain.multi",
    }
}

pub type Fallible<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Whether draining (or counting) an OMQ under a semantics is too slow to
/// repeat many times in a window: the five-variable teaching query costs
/// about 0.6 ms per multi-wildcard answer.  Such combinations are only
/// browsed (first pages), or run on the smallest data.
pub fn heavy(omq: usize, sem: Semantics) -> bool {
    omq == 2 && sem == Semantics::MinimalPartialMulti
}

/// One OMQ, parsed and compiled.
pub struct Compiled {
    pub text: &'static OmqText,
    pub omq: OntologyMediatedQuery,
    pub plan: QueryPlan,
}

/// Parses and compiles the three OMQs, and opens a cursor for every
/// semantics on a small generated database so that all three pass at set-up.
pub fn compile_all(tr: &mut Trace, rng: &mut Rng) -> Fallible<Vec<Compiled>> {
    gen::OMQS
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let sp = tr.begin("cq.parse");
            let ontology = Ontology::parse(text.ontology).map_err(err)?;
            let query = ConjunctiveQuery::parse(text.query).map_err(err)?;
            let omq = OntologyMediatedQuery::new(ontology, query).map_err(err)?;
            tr.end(sp, 0);
            let sp = tr.begin("core.compile");
            let plan = QueryPlan::compile(&omq).map_err(err)?;
            tr.end(sp, 0);
            let compiled = Compiled { text, omq, plan };
            check_against_oracle(&compiled, i, rng)?;
            Ok(compiled)
        })
        .collect()
}

/// Builds a database from generated facts through one store commit.
pub fn database(schema: &omq_data::Schema, facts: &[Fact]) -> Fallible<Database> {
    let mut store = Store::new(schema.clone());
    store.commit(txn(facts)).map_err(err)?;
    Ok(store.snapshot().database().clone())
}

pub fn txn(facts: &[Fact]) -> Txn {
    facts
        .iter()
        .fold(Txn::new(), |t, (rel, args)| t.insert(rel, args))
}

/// Facts in each database the oracle checks: small enough for a full chase,
/// large enough that every semantics has answers.
const ORACLE_FACTS: usize = 240;

/// Compares the engine with the brute-force oracle (a full bounded chase
/// plus homomorphism search) on a small database of both shapes, under all
/// three semantics.
fn check_against_oracle(c: &Compiled, omq: usize, rng: &mut Rng) -> Fallible<()> {
    for shape in [Shape::ComponentRich, Shape::Giant] {
        let facts = gen::dataset(omq, shape, ORACLE_FACTS, "s", rng);
        let db = database(c.omq.data_schema(), &facts)?;
        let oracle = BruteForce::new(&c.omq, &db, &ChaseConfig::default()).map_err(err)?;
        if oracle.truncated {
            return Err(format!("{}: oracle chase truncated", c.text.name));
        }
        let instance = c.plan.execute(&db).map_err(err)?;
        for sem in SEMANTICS {
            let mut expected: Vec<Answer> = match sem {
                Semantics::Complete => oracle
                    .complete_answers()
                    .into_iter()
                    .map(|t| Answer::Complete(t.into_iter().filter_map(|v| v.as_const()).collect()))
                    .collect(),
                Semantics::MinimalPartial => oracle
                    .minimal_partial()
                    .into_iter()
                    .map(Answer::Partial)
                    .collect(),
                Semantics::MinimalPartialMulti => oracle
                    .minimal_partial_multi()
                    .into_iter()
                    .map(Answer::Multi)
                    .collect(),
            };
            let mut got = drain(&instance, sem)?;
            expected.sort();
            got.sort();
            if got != expected || got.is_empty() {
                return Err(format!(
                    "{} ({shape:?}, {}): engine gave {} answers, oracle {}",
                    c.text.name,
                    sem_name(sem),
                    got.len(),
                    expected.len()
                ));
            }
        }
    }
    Ok(())
}

/// Drains a cursor, failing on a mid-stream error.
pub fn drain(instance: &PreparedInstance, sem: Semantics) -> Fallible<Vec<Answer>> {
    let mut stream = instance.answers(sem).map_err(err)?;
    let all: Vec<Answer> = stream.by_ref().collect();
    check_stream(&stream)?;
    Ok(all)
}

pub fn check_stream(stream: &AnswerStream) -> Fallible<()> {
    match stream.error() {
        Some(e) => Err(err(e)),
        None => Ok(()),
    }
}

/// An order-independent fingerprint of a multiset of answers.
pub fn fingerprint<T: Hash>(answers: &[T]) -> u64 {
    answers.iter().fold(0u64, |acc, a| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        a.hash(&mut h);
        acc.wrapping_add(h.finish())
    })
}

/// The reference result of one (query, data, semantics) combination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reference {
    pub count: u64,
    pub fingerprint: u64,
}

/// Checks the facts of a chase: saturation must have converged.
pub fn check_chase(instance: &PreparedInstance, tr: &mut Trace) -> Fallible<()> {
    let stats = instance.stats();
    if !stats.saturation_converged {
        return Err("guarded saturation did not converge".into());
    }
    tr.count("chase.grafts", stats.grafts as f64);
    tr.count("chase.memo_hits", stats.memo_hits as f64);
    tr.count("chase.input_facts", stats.input_facts as f64);
    tr.count("chase.chased_facts", stats.chased_facts as f64);
    tr.count("chase.executions", 1.0);
    Ok(())
}

/// Answers per page of an in-process (or coordinator-side) drain.
pub const PAGE: usize = 256;

/// Drains `stream` into `answers` in pages of [`PAGE`], the first page
/// starting with the already pulled `first` answer.  The time from `ack`
/// (the data's commit) to the end of the first page goes to `e.fresh`;
/// every later page's own time goes to `e.fetch`.
pub fn drain_pages(
    stream: &mut AnswerStream,
    first: Option<Answer>,
    ack: Instant,
    answers: &mut Vec<Answer>,
    e: &mut EndToEnd,
) {
    let Some(first) = first else { return };
    answers.push(first);
    let mut want = PAGE - 1;
    let mut page_start = None;
    loop {
        let got = stream.next_batch(answers, want);
        let now = Instant::now();
        match page_start {
            None => e.fresh.push(us(ack, now)),
            Some(start) => e.fetch.push(us(start, now)),
        }
        page_start = Some(now);
        if got < want {
            return;
        }
        want = PAGE;
    }
}

/// Microseconds between two instants.
pub fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64 / 1e3
}
