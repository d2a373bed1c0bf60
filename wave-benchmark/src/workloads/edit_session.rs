//! `edit_session`: a seeded random walk of edits to `checkout_bench`,
//! sent to one journaled engine.
//!
//! Why: it is the workload that writes to the cache layer
//! (`serve_zipf` only reads it) and the only one where slicing and the
//! incremental tiers do most of the work. Each step is one of
//!
//! * 70% a fresh edit outside the property's cone of influence: one
//!   `flag*` rule body on page `CP` gets a never-seen variant over the
//!   `tog*`/`flag*` vocabulary — a verdict-tier replay, a cache insert
//!   and a journal append;
//! * 25% a revisit (undo or redo) of one of the last [`HISTORY`]
//!   states — a result-cache hit;
//! * 5% a toggle of one of three in-cone edits (each duplicates a rule
//!   body the property can observe) — cold only on the first visit to
//!   each of the 2^3 cones, a tier replay or a hit afterwards (a tier
//!   replay too when the state was visited so long ago that the result
//!   cache has evicted it).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use wave_core::provenance::ServiceSources;
use wave_core::rules::StateRule;
use wave_core::service::Service;
use wave_logic::formula::Formula;
use wave_logic::parser::parse_property;
use wave_logic::temporal::Property;
use wave_rng::{Rng, SplitMix64};
use wave_serve::codec::VerifyRequest;
use wave_serve::engine::{Engine, EngineOptions, SubmitError, SubmitResult};
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

use super::{class_of, decode, ltl_request, unreached, verdict_bytes, FIG2};
use crate::closed::{ClosedLoop, Job};
use crate::common::{journal, Config, Tally};
use crate::pipeline::Class;

/// Share of steps that are fresh out-of-cone edits, and (cumulative)
/// of steps that are fresh edits or revisits; the rest toggle.
const FRESH: f64 = 0.70;
const FRESH_OR_REVISIT: f64 = 0.95;
/// The out-of-cone rule bodies: `(flag, insertion?)` on page `CP`.
const KNOBS: [(&str, bool); 4] = [
    ("flag0", true),
    ("flag0", false),
    ("flag1", true),
    ("flag1", false),
];
/// How far back a revisit reaches, in distinct states.
const HISTORY: usize = 1024;
/// Hex digits of a variant id; each digit picks one of 16 clauses.
const DIGITS: usize = 5;
/// Fresh states cross-checked from scratch: those whose ordinal is a
/// power of 16, up to this many.
const CHECKED_FRESH: usize = 5;

/// A point of the walk: which in-cone edits are on, and the variant of
/// each out-of-cone body (`0` = as shipped).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct State {
    cone: u8,
    knobs: [u32; KNOBS.len()],
}

pub struct EditSession {
    engine: Engine,
    journal: PathBuf,
    base: Service,
    sources: ServiceSources,
    property: Property,
    req: VerifyRequest,
    /// Disjunctive clauses over the toggle vocabulary, `16 * DIGITS`.
    clauses: Vec<Formula>,
    rng: SplitMix64,
    current: State,
    next_id: u32,
    visited: Vec<State>,
    /// Hash of the outcome bytes first served for each state.
    served: HashMap<State, u64>,
    /// Verdict bytes of each cone's first answer.
    cones: HashMap<u8, String>,
    /// States cross-checked from scratch after the clock stops.
    to_check: Vec<State>,
    fresh: u64,
    sent: u64,
    unreached: u64,
}

/// `n` distinct disjunctions of two or three literals over the
/// `tog*`/`flag*` vocabulary.
fn clauses(n: usize) -> Vec<Formula> {
    let lits: Vec<Formula> = ["tog0", "tog1", "flag0", "flag1"]
        .iter()
        .flat_map(|a| [Formula::prop(*a), Formula::not(Formula::prop(*a))])
        .collect();
    let mut out = Vec::new();
    for i in 0..lits.len() {
        for j in i + 1..lits.len() {
            out.push(Formula::or([lits[i].clone(), lits[j].clone()]));
        }
    }
    for i in 0..lits.len() {
        for j in i + 1..lits.len() {
            for k in j + 1..lits.len() {
                out.push(Formula::or([
                    lits[i].clone(),
                    lits[j].clone(),
                    lits[k].clone(),
                ]));
            }
        }
    }
    assert!(out.len() >= n, "only {} clauses for {n}", out.len());
    out.truncate(n);
    out
}

fn state_rule<'a>(service: &'a mut Service, page: &str, relation: &str) -> &'a mut StateRule {
    service
        .pages
        .get_mut(page)
        .and_then(|p| p.state_rules.iter_mut().find(|r| r.relation == relation))
        .unwrap_or_else(|| panic!("checkout_bench has a {relation} rule on {page}"))
}

fn doubled(f: &Formula) -> Formula {
    Formula::and([f.clone(), f.clone()])
}

impl EditSession {
    /// The service at `s`.
    fn build(&self, s: &State) -> Service {
        let mut svc = self.base.clone();
        for (&(flag, insert), &id) in KNOBS.iter().zip(&s.knobs) {
            if id == 0 {
                continue;
            }
            let rule = state_rule(&mut svc, "CP", flag);
            let body = if insert {
                &mut rule.insert
            } else {
                &mut rule.delete
            };
            let original = body.take().expect("toggle rules have both bodies");
            let mut parts = vec![original];
            for d in 0..DIGITS {
                let digit = (id as usize >> (4 * d)) & 15;
                parts.push(self.clauses[16 * d + digit].clone());
            }
            *body = Some(Formula::and(parts));
        }
        if s.cone & 1 != 0 {
            let ship = &mut svc.pages.get_mut("UPP").expect("UPP page").action_rules[0];
            ship.body = doubled(&ship.body);
        }
        if s.cone & 2 != 0 {
            let paid = state_rule(&mut svc, "UPP", "paid");
            paid.insert = paid.insert.as_ref().map(doubled);
        }
        if s.cone & 4 != 0 {
            let pick = state_rule(&mut svc, "CP", "pick_pid");
            pick.delete = pick.delete.as_ref().map(doubled);
        }
        svc
    }

    fn uniform(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

impl ClosedLoop for EditSession {
    /// The state and the answer classes it may get.
    type Tag = (State, &'static [Class]);
    const RSS_AT: usize = 30_000;

    fn setup(cfg: &Config, dir: PathBuf) -> Self {
        let (base, sources) = wave_demo::site::checkout_bench_with_sources();
        let journal = journal(&dir);
        EditSession {
            engine: Engine::new(EngineOptions {
                persist: Some(journal.clone()),
                ..EngineOptions::default()
            }),
            journal,
            base,
            sources,
            property: parse_property(FIG2).expect("the Fig. 2 property parses"),
            req: ltl_request("checkout_bench", FIG2),
            clauses: clauses(16 * DIGITS),
            rng: SplitMix64::seed_from_u64(cfg.seed ^ 0xED17),
            current: State {
                cone: 0,
                knobs: [0; KNOBS.len()],
            },
            next_id: 0,
            visited: Vec::new(),
            served: HashMap::new(),
            cones: HashMap::new(),
            to_check: Vec::new(),
            fresh: 0,
            sent: 0,
            unreached: 0,
        }
    }

    /// The unedited service: the first cone's cold run.
    fn warmup(&self) -> usize {
        1
    }

    fn next(&mut self) -> Job<(State, &'static [Class])> {
        let (state, expect): (State, &'static [Class]) = if self.sent == 0 {
            (self.current, &[Class::Cold])
        } else {
            let u = self.uniform();
            let mut s = self.current;
            if u < FRESH {
                let knob = self.rng.gen_range(0..KNOBS.len());
                self.next_id += 1;
                s.knobs[knob] = self.next_id;
                (s, &[Class::Tier])
            } else if u < FRESH_OR_REVISIT {
                let recent = &self.visited[self.visited.len().saturating_sub(HISTORY)..];
                let s = *self.rng.choose(recent).expect("the first state is visited");
                (s, &[Class::Hit])
            } else {
                s.cone ^= 1u8 << self.rng.gen_range(0..3u32);
                let expect: &'static [Class] = if self.served.contains_key(&s) {
                    &[Class::Hit, Class::Tier]
                } else if self.cones.contains_key(&s.cone) {
                    &[Class::Tier]
                } else {
                    &[Class::Cold]
                };
                (s, expect)
            }
        };
        self.current = state;
        self.sent += 1;
        Job {
            service: self.build(&state),
            sources: self.sources.clone(),
            req: self.req.clone(),
            tag: (state, expect),
        }
    }

    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn journal(&self) -> Option<PathBuf> {
        Some(self.journal.clone())
    }

    fn check(
        &mut self,
        (state, expect): &(State, &'static [Class]),
        res: &Result<SubmitResult, SubmitError>,
    ) -> Result<Class, String> {
        self.unreached += unreached(res) as u64;
        let r = res.as_ref().map_err(|e| e.to_string())?;
        let class = class_of(r);
        if !expect.contains(&class) {
            return Err(format!(
                "{state:?}: expected {expect:?}, answered {class:?}"
            ));
        }
        let out = decode(&r.outcome_bytes)?;
        let verdict = verdict_bytes(&out);
        match self.cones.get(&state.cone) {
            Some(v) if *v != verdict => {
                return Err(format!(
                    "{state:?}: verdict differs from its cone's first answer"
                ))
            }
            Some(_) => {}
            None => {
                self.cones.insert(state.cone, verdict);
                self.to_check.push(*state);
            }
        }
        // A hit replays the bytes the state was last answered with; any
        // other answer (a tier replay after an eviction) re-stores them.
        let h = hash_bytes(&r.outcome_bytes);
        match self.served.insert(*state, h) {
            Some(prev) if class == Class::Hit && prev != h => {
                return Err(format!("{state:?}: replayed outcome bytes differ"))
            }
            Some(_) => {}
            None => {
                self.visited.push(*state);
                if class == Class::Tier {
                    self.fresh += 1;
                    let ordinal = self.fresh;
                    if ordinal.is_power_of_two()
                        && ordinal.trailing_zeros().is_multiple_of(4)
                        && (ordinal.trailing_zeros() / 4) < CHECKED_FRESH as u32
                    {
                        self.to_check.push(*state);
                    }
                }
            }
        }
        Ok(class)
    }

    fn finish(&mut self, repeats: u64) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.to_check {
            let fresh = verify_ltl(&self.build(s), &self.property, &SymbolicOptions::default())
                .map(|o| verdict_bytes(&o));
            if fresh.as_ref().ok() != self.cones.get(&s.cone) {
                out.push(format!("{s:?}: from-scratch verify_ltl gives {fresh:?}"));
            }
        }
        let mut tally = Tally::default();
        tally.add(&self.engine.counters);
        tally.check(
            self.sent + repeats,
            self.unreached,
            self.cones.len() as u64,
            &mut out,
        );
        out
    }
}
