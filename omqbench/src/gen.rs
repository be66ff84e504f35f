//! Seeded inputs: the three OMQs and the two data shapes of every workload.
//!
//! Everything the program under test receives is generated here from the
//! `--seed` argument, so one seed always yields the same facts in the same
//! order.  Only the wiring varies with the seed (which researcher has an
//! office, which course is scheduled where); the shape and the size of each
//! dataset are fixed, so figures of different seeds are comparable.

/// A small deterministic generator (SplitMix64), so the inputs do not depend
/// on any other crate's random-number stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// One OMQ of the benchmark, as text (the server and the cluster take text).
pub struct OmqText {
    pub name: &'static str,
    pub ontology: &'static str,
    pub query: &'static str,
}

/// The paper's Example 1.1 (ELI).
pub const OFFICES: OmqText = OmqText {
    name: "offices",
    ontology: "Researcher(x) -> exists y. HasOffice(x, y)\n\
               HasOffice(x, y) -> Office(y)\n\
               Office(x) -> exists y. InBuilding(x, y)",
    query: "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)",
};

/// The research-portal ontology (ELI, two existential branches).
pub const PORTAL: OmqText = OmqText {
    name: "portal",
    ontology: "Researcher(x) -> exists y. MemberOf(x, y)\n\
               MemberOf(x, y) -> Group(y)\n\
               Group(x) -> exists y. PartOf(x, y)\n\
               PartOf(x, y) -> Institute(y)\n\
               Researcher(x) -> exists y. WorksOn(x, y)\n\
               WorksOn(x, y) -> Project(y)",
    query: "q(person, group, institute) :- MemberOf(person, group), PartOf(group, institute)",
};

/// A guarded ontology that is not ELI (a ternary relation), with an all-free
/// query over it.
pub const TEACHING: OmqText = OmqText {
    name: "teaching",
    ontology: "Teaches(p, c, t) -> exists r. Scheduled(c, t, r)\n\
               Scheduled(c, t, r) -> Room(r)\n\
               Room(r) -> exists b. InBuilding(r, b)",
    query: "q(p, c, t, r, b) :- Teaches(p, c, t), Scheduled(c, t, r), InBuilding(r, b)",
};

pub const OMQS: [OmqText; 3] = [OFFICES, PORTAL, TEACHING];

/// How the facts connect in the Gaifman graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Many small components (clusters share no constant).
    ComponentRich,
    /// One component holding most facts.
    Giant,
}

/// A generated fact.
pub type Fact = (&'static str, Vec<String>);

/// Researchers per cluster in the component-rich shape.
pub const CLUSTER: usize = 8;

/// Generates a dataset for OMQ number `omq` of about `target` facts.
/// `prefix` keeps the constants of datasets that share a store apart.
pub fn dataset(omq: usize, shape: Shape, target: usize, prefix: &str, rng: &mut Rng) -> Vec<Fact> {
    let mut facts = Vec::with_capacity(target + 16);
    let mut i = 0;
    while facts.len() < target {
        match omq {
            0 => offices_unit(&mut facts, shape, prefix, i, rng),
            1 => portal_unit(&mut facts, shape, prefix, i, rng),
            _ => teaching_unit(&mut facts, shape, prefix, i, rng),
        }
        i += 1;
    }
    facts
}

fn s(parts: std::fmt::Arguments<'_>) -> String {
    parts.to_string()
}

/// One researcher of Example 1.1: 80 % have an office, 70 % of offices a
/// building.  Component-rich: two buildings per cluster of eight, and the
/// first researcher of a cluster always has an office in building `b0` (the
/// anchor [`deltas`] bridges through).  Giant: four buildings overall,
/// chained together by the first offices.
fn offices_unit(facts: &mut Vec<Fact>, shape: Shape, p: &str, i: usize, rng: &mut Rng) {
    let person = s(format_args!("{p}r{i}"));
    facts.push(("Researcher", vec![person.clone()]));
    let anchor = shape == Shape::ComponentRich && i.is_multiple_of(CLUSTER);
    if !rng.chance(80) && !anchor {
        return;
    }
    let office = s(format_args!("{p}o{i}"));
    facts.push(("HasOffice", vec![person, office.clone()]));
    let building = match shape {
        Shape::ComponentRich if anchor => s(format_args!("{p}c{}b0", i / CLUSTER)),
        Shape::ComponentRich => s(format_args!("{p}c{}b{}", i / CLUSTER, rng.below(2))),
        Shape::Giant => s(format_args!("{p}b{}", rng.below(4))),
    };
    if shape == Shape::Giant && i < 4 {
        facts.push((
            "InBuilding",
            vec![office.clone(), s(format_args!("{p}b{i}"))],
        ));
        facts.push((
            "InBuilding",
            vec![office, s(format_args!("{p}b{}", (i + 1) % 4))],
        ));
    } else if rng.chance(70) || anchor {
        facts.push(("InBuilding", vec![office, building]));
    }
}

/// One portal member: 80 % belong to a group, half work on a project, and
/// 70 % of groups are part of an institute.  Component-rich: two groups
/// per cluster.  Giant: sixteen groups and four institutes overall.
fn portal_unit(facts: &mut Vec<Fact>, shape: Shape, p: &str, i: usize, rng: &mut Rng) {
    let person = s(format_args!("{p}m{i}"));
    facts.push(("Researcher", vec![person.clone()]));
    if rng.chance(50) {
        let project = match shape {
            Shape::ComponentRich => s(format_args!("{p}c{}j{}", i / CLUSTER, rng.below(2))),
            Shape::Giant => s(format_args!("{p}j{}", rng.below(16))),
        };
        facts.push(("WorksOn", vec![person.clone(), project]));
    }
    let (group, institute, first_of_group) = match shape {
        Shape::ComponentRich => {
            let g = rng.below(2);
            (
                s(format_args!("{p}c{}g{g}", i / CLUSTER)),
                s(format_args!("{p}c{}i", i / CLUSTER)),
                i % CLUSTER == g,
            )
        }
        Shape::Giant => {
            let g = if i < 16 { i } else { rng.below(16) };
            (
                s(format_args!("{p}g{g}")),
                s(format_args!("{p}i{}", (g + i.min(1)) % 4)),
                i < 16,
            )
        }
    };
    if rng.chance(80) {
        facts.push(("MemberOf", vec![person, group.clone()]));
    }
    if first_of_group && rng.chance(70) {
        facts.push(("PartOf", vec![group, institute]));
    }
}

/// One lecturer teaching two courses: 70 % of (course, slot) pairs are
/// scheduled in a room, and 70 % of rooms are in a building.
/// Component-rich: slots, rooms and buildings per department of eight.
/// Giant: eight slots, twenty rooms and four buildings overall.
fn teaching_unit(facts: &mut Vec<Fact>, shape: Shape, p: &str, i: usize, rng: &mut Rng) {
    let person = s(format_args!("{p}l{i}"));
    let dept = i / CLUSTER;
    for k in 0..2 {
        let course = s(format_args!("{p}k{i}_{k}"));
        let (slot, room) = match shape {
            Shape::ComponentRich => (
                s(format_args!("{p}d{dept}t{}", rng.below(4))),
                s(format_args!("{p}d{dept}r{}", rng.below(3))),
            ),
            Shape::Giant => (
                s(format_args!("{p}t{}", rng.below(8))),
                s(format_args!("{p}r{}", rng.below(20))),
            ),
        };
        facts.push((
            "Teaches",
            vec![person.clone(), course.clone(), slot.clone()],
        ));
        if rng.chance(90) {
            facts.push(("Scheduled", vec![course, slot, room.clone()]));
            if rng.chance(35) {
                let building = match shape {
                    Shape::ComponentRich => s(format_args!("{p}d{dept}b")),
                    Shape::Giant => s(format_args!("{p}b{}", room.len() % 4)),
                };
                facts.push(("InBuilding", vec![room, building]));
            }
        }
    }
}

/// The 8-fact transactions of the open-loop writer, over the offices
/// dataset a store was preloaded with (`prefix`, `clusters` component-rich
/// clusters).  Every tenth starts a new cluster, one in `bridge_every` (if
/// any; half-way through each period, so runs of whole periods hold the
/// same number) joins two existing clusters, which forces a full refresh,
/// and the rest grow an existing cluster.
pub fn deltas(
    count: usize,
    prefix: &str,
    clusters: usize,
    bridge_every: Option<usize>,
    rng: &mut Rng,
) -> Vec<Vec<Fact>> {
    (0..count)
        .map(|k| {
            let fresh = |j: usize| format!("{prefix}w{k}_{j}");
            let mut txn: Vec<Fact> = Vec::with_capacity(8);
            if bridge_every.is_some_and(|every| k % every == every / 2) {
                let a = rng.below(clusters);
                let b = (a + 1 + rng.below(clusters - 1)) % clusters;
                // An office of cluster `a` also sits in a building of `b`.
                txn.push(("HasOffice", vec![fresh(0), fresh(1)]));
                txn.push(("InBuilding", vec![fresh(1), format!("{prefix}c{a}b0")]));
                txn.push(("InBuilding", vec![fresh(1), format!("{prefix}c{b}b0")]));
            }
            let building = if k % 10 == 0 {
                format!("{prefix}w{k}b")
            } else {
                format!("{prefix}c{}b{}", rng.below(clusters), rng.below(2))
            };
            let mut j = 2;
            while txn.len() < 8 {
                let (person, office) = (fresh(j), fresh(j + 1));
                j += 2;
                txn.push(("Researcher", vec![person.clone()]));
                if txn.len() < 8 {
                    txn.push(("HasOffice", vec![person, office.clone()]));
                }
                if txn.len() < 8 {
                    txn.push(("InBuilding", vec![office, building.clone()]));
                }
            }
            txn
        })
        .collect()
}
