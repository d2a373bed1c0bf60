//! `cold_corpus`: a stream of distinct admissible `wave-qa` cases sent
//! to one long-lived, journaled engine.
//!
//! Why: every request misses the result cache on a small service, so
//! the per-request fixed cost dominates and the search is small —
//! admission lint, fingerprint, slice, LTL→Büchi (or an automaton-tier
//! hit), the symbolic table, the cache insert and its journal append.
//! This is how VERIFAS reports verification time: per property over a
//! corpus of specifications, not one hero run. Cases are generated and
//! built outside the clock, in batches, and deduplicated by request
//! fingerprint so none can hit the cache. Every 8th case is sent a
//! second time right after its answer, a repeat the cache answers.
//!
//! Every request carries a node budget of [`NODE_LIMIT`], as a service
//! bounding each request's work would set it. About 1% of cases reach
//! it; without it a run's slowest case — up to 4,000 nodes and 0.6 s —
//! decides its peak memory and much of its throughput, and which case
//! that is depends on the seed.

use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;

use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::parser::parse_property;
use wave_qa::gen::generate;
use wave_rng::{Rng, SplitMix64};
use wave_serve::codec::{Mode, VerifyRequest};
use wave_serve::engine::{request_fingerprint, Engine, EngineOptions, SubmitError, SubmitResult};
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

use super::{class_of, decode, ltl_request, unreached, verdict_bytes};
use crate::closed::{ClosedLoop, Job};
use crate::common::{journal, Config, Tally};
use crate::pipeline::Class;

/// Cases built ahead of the clock at a time.
const BATCH: usize = 256;
/// Every n-th case is cross-checked against a from-scratch run.
const CROSS_CHECK_EVERY: u64 = 16;
/// Search budget of every request, in product nodes.
const NODE_LIMIT: usize = 500;

struct Built {
    /// The `generate` seed of the case.
    case: u64,
    service: Service,
    sources: ServiceSources,
    property: String,
}

pub struct ColdCorpus {
    engine: Engine,
    journal: PathBuf,
    /// Seed-derived start of this run's case stream.
    base: u64,
    next_case: u64,
    /// Warm-up cases come from a stream of their own that no seed
    /// changes, so set-up does the same work in every run.
    next_warm: u64,
    queue: VecDeque<Built>,
    fingerprints: HashSet<u128>,
    /// `(case, verdict bytes served)` of the sampled cases.
    served: Vec<(u64, String)>,
    sent: u64,
    unreached: u64,
}

/// Start of the warm-up stream.
const WARM_BASE: u64 = 0x5EED_0000_0000;
/// Warm-up requests.
const WARMUP: usize = 32;

impl ColdCorpus {
    /// Builds case `case` unless its fingerprint was already sent.
    fn build(&mut self, case: u64) -> Option<Built> {
        let spec = generate(case).spec;
        let (service, sources) = spec.build().expect("generated cases build");
        let property = parse_property(&spec.property).expect("generated properties parse");
        let fp = request_fingerprint(&service, Some(&property), Mode::Ltl, NODE_LIMIT);
        self.fingerprints.insert(fp.0).then_some(Built {
            case,
            service,
            sources,
            property: spec.property,
        })
    }

    fn refill(&mut self) {
        while self.queue.len() < BATCH {
            let case = self.base.wrapping_add(self.next_case);
            self.next_case += 1;
            if let Some(b) = self.build(case) {
                self.queue.push_back(b);
            }
        }
    }
}

impl ClosedLoop for ColdCorpus {
    type Tag = u64;
    const RSS_AT: usize = 4_000;
    const REPEAT_EVERY: usize = 8;

    fn setup(cfg: &Config, dir: PathBuf) -> Self {
        let journal = journal(&dir);
        let engine = Engine::new(EngineOptions {
            persist: Some(journal.clone()),
            ..EngineOptions::default()
        });
        ColdCorpus {
            engine,
            journal,
            base: SplitMix64::seed_from_u64(cfg.seed).next_u64(),
            next_case: 0,
            next_warm: WARM_BASE,
            queue: VecDeque::new(),
            fingerprints: HashSet::new(),
            served: Vec::new(),
            sent: 0,
            unreached: 0,
        }
    }

    fn warmup(&self) -> usize {
        WARMUP
    }

    fn next(&mut self) -> Job<u64> {
        let b = if (self.sent as usize) < WARMUP {
            loop {
                self.next_warm += 1;
                if let Some(b) = self.build(self.next_warm) {
                    break b;
                }
            }
        } else {
            if self.queue.is_empty() {
                self.refill();
            }
            self.queue.pop_front().expect("refilled")
        };
        self.sent += 1;
        Job {
            service: b.service,
            sources: b.sources,
            req: VerifyRequest {
                node_limit: NODE_LIMIT,
                ..ltl_request("qa-corpus", &b.property)
            },
            tag: b.case,
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
        case: &u64,
        res: &Result<SubmitResult, SubmitError>,
    ) -> Result<Class, String> {
        self.unreached += unreached(res) as u64;
        let r = res.as_ref().map_err(|e| format!("case {case}: {e}"))?;
        let class = class_of(r);
        if class == Class::Hit {
            return Err(format!("case {case}: a distinct case hit the result cache"));
        }
        let out = decode(&r.outcome_bytes)?;
        // Answers are checked in send order, so `sent` counts this one.
        if self.sent.is_multiple_of(CROSS_CHECK_EVERY) {
            self.served.push((*case, verdict_bytes(&out)));
        }
        Ok(class)
    }

    fn finish(&mut self, repeats: u64) -> Vec<String> {
        let mut out = Vec::new();
        for (case, served) in &self.served {
            let spec = generate(*case).spec;
            let (service, _) = spec.build().expect("generated cases build");
            let property = parse_property(&spec.property).expect("generated properties parse");
            let opts = SymbolicOptions {
                node_limit: NODE_LIMIT,
                ..SymbolicOptions::default()
            };
            match verify_ltl(&service, &property, &opts) {
                Ok(o) if verdict_bytes(&o) == *served => {}
                other => out.push(format!(
                    "case {case}: served {served}, from-scratch run gives {:?}",
                    other.map(|o| verdict_bytes(&o))
                )),
            }
        }
        let mut tally = Tally::default();
        tally.add(&self.engine.counters);
        tally.check(self.sent + repeats, self.unreached, self.sent, &mut out);
        out
    }
}
