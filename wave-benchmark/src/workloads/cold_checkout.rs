//! `cold_checkout`: the Fig. 2 property on `checkout_bench`, each
//! request sent to a fresh engine, so every answer is a full cold run.
//!
//! Why: it is the one workload where the search core does most of the
//! work (the search is most of a ~140 ms `verify_ltl` call), so it is
//! the workload a search-core change must move. Building the engine is
//! not timed. The input does not depend on the seed. Each request is
//! sent a second time to its engine right after the answer, the
//! repeat submission a user makes, which the result cache answers.

use std::path::PathBuf;

use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::parser::parse_property;
use wave_serve::codec::VerifyRequest;
use wave_serve::engine::{Engine, EngineOptions, SubmitError, SubmitResult};
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

use super::{class_of, decode, ltl_request, unreached, verdict_bytes, FIG2};
use crate::closed::{ClosedLoop, Job};
use crate::common::{Config, Tally};
use crate::pipeline::Class;

pub struct ColdCheckout {
    service: Service,
    sources: ServiceSources,
    req: VerifyRequest,
    engine: Option<Engine>,
    /// Counters of every engine already dropped.
    tally: Tally,
    engines: u64,
    sent: u64,
    unreached: u64,
    /// Verdict bytes and node count of the first answer; every fresh
    /// engine must reproduce both.
    first: Option<(String, usize)>,
}

impl ColdCheckout {
    fn retire_engine(&mut self) {
        if let Some(e) = self.engine.take() {
            self.tally.add(&e.counters);
            self.engines += 1;
        }
    }
}

impl ClosedLoop for ColdCheckout {
    type Tag = ();
    const RSS_AT: usize = 40;
    const FRESH_ENGINE: bool = true;
    const REPEAT_EVERY: usize = 1;

    fn setup(_cfg: &Config, _dir: PathBuf) -> Self {
        let (service, sources) = wave_demo::site::checkout_bench_with_sources();
        ColdCheckout {
            service,
            sources,
            req: ltl_request("checkout_bench", FIG2),
            engine: None,
            tally: Tally::default(),
            engines: 0,
            sent: 0,
            unreached: 0,
            first: None,
        }
    }

    fn warmup(&self) -> usize {
        1
    }

    fn next(&mut self) -> Job<()> {
        self.retire_engine();
        self.engine = Some(Engine::new(EngineOptions::default()));
        self.sent += 1;
        Job {
            service: self.service.clone(),
            sources: self.sources.clone(),
            req: self.req.clone(),
            tag: (),
        }
    }

    fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("next() builds the engine")
    }

    fn journal(&self) -> Option<PathBuf> {
        None
    }

    fn check(&mut self, _: &(), res: &Result<SubmitResult, SubmitError>) -> Result<Class, String> {
        self.unreached += unreached(res) as u64;
        let r = res.as_ref().map_err(|e| e.to_string())?;
        if class_of(r) != Class::Cold {
            return Err("a fresh engine answered from a cache".into());
        }
        let out = decode(&r.outcome_bytes)?;
        if !out.holds() {
            return Err(format!(
                "the Fig. 2 property must hold, got {}",
                verdict_bytes(&out)
            ));
        }
        let this = (verdict_bytes(&out), out.stats.nodes_interned);
        match &self.first {
            None => self.first = Some(this),
            Some(first) if *first != this => {
                return Err("verdict or node count differs between fresh engines".into())
            }
            Some(_) => {}
        }
        Ok(Class::Cold)
    }

    fn finish(&mut self, repeats: u64) -> Vec<String> {
        self.retire_engine();
        let mut out = Vec::new();
        let property = parse_property(FIG2).expect("the Fig. 2 property parses");
        let fresh = verify_ltl(&self.service, &property, &SymbolicOptions::default())
            .map(|o| (verdict_bytes(&o), o.stats.nodes_interned));
        if fresh.as_ref().ok() != self.first.as_ref() {
            out.push(format!(
                "from-scratch verify_ltl gives {fresh:?}, the engines gave {:?}",
                self.first
            ));
        }
        // Each engine saw one distinct input.
        self.tally
            .check(self.sent + repeats, self.unreached, self.engines, &mut out);
        out
    }
}
