//! The traced re-enactment of one verify request.
//!
//! [`Shadow::submit`] calls, in the order `Engine::submit_service` does,
//! each layer's public function — parse, admission precheck,
//! fingerprint, result-cache probe, cone slice, verdict-tier key and
//! probe, LTL→Büchi translation, the scheduler round trip around
//! `verify_ltl`, tier store, outcome encoding and cache insert — on
//! state of its own (a result cache, tier store and worker pool built
//! like the engine's), and the freeing of the request's service gets
//! one too. Every call gets a span, so the stage self times
//! of a request can be set against the real `submit_service` call that
//! ran just before it on the same input. The benchmark never reaches
//! inside the program: spans sit around public calls only.

use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use wave_automata::ltl2buchi::translate;
use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::parser::parse_property;
use wave_serve::cache::ResultCache;
use wave_serve::codec::{outcome_to_json, VerifyRequest};
use wave_serve::engine::{request_fingerprint, EngineOptions};
use wave_serve::registry;
use wave_serve::scheduler::Scheduler;
use wave_serve::tiers::{buchi_key, verdict_tier_key, TierStore};
use wave_verifier::abstraction::{to_pnf, FoAbstraction};
use wave_verifier::precheck::precheck;
use wave_verifier::symbolic::{verify_ltl, SearchStats, SymbolicOptions, Verdict, VerifyOutcome};

use crate::trace::{SpanId, Tracer};

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Replayed from the result cache.
    Hit,
    /// Replayed from the verdict tier.
    Tier,
    /// Searched.
    Cold,
}

/// Work counts at the layer boundaries, summed over a traced run.
#[derive(Default)]
pub struct Counts {
    pub cache_gets: u64,
    pub cache_hits: u64,
    pub slices: u64,
    pub rules_removed: u64,
    pub tier_probes: u64,
    pub tier_hits: u64,
    pub buchi_lookups: u64,
    pub translations: u64,
    pub buchi_states: u64,
    pub verifies: u64,
    pub nodes: u64,
    pub dedup_hits: u64,
    pub memoized: u64,
    pub memo_hits: u64,
    pub peak_frontier: u64,
    pub search_ns: u64,
}

impl Counts {
    fn add_search(&mut self, s: &SearchStats) {
        self.verifies += 1;
        self.nodes += s.nodes_interned as u64;
        self.dedup_hits += s.dedup_hits;
        self.memoized += s.successors_memoized as u64;
        self.memo_hits += s.memo_hits;
        self.peak_frontier += s.peak_frontier as u64;
        self.search_ns += s.search_wall.as_nanos() as u64;
    }
}

/// Engine-shaped state the re-enactment runs against.
pub struct Shadow {
    cache: ResultCache,
    tiers: TierStore,
    sched: Scheduler,
}

impl Shadow {
    /// Built like `Engine::new` with default options; `persist` mirrors
    /// the real engine's journal so appends cost the same.
    pub fn new(persist: Option<&Path>) -> Shadow {
        let opts = EngineOptions::default();
        let mut cache = ResultCache::new(opts.cache_bytes);
        if let Some(path) = persist {
            cache = cache.with_persistence(path.to_path_buf());
        }
        Shadow {
            cache,
            tiers: TierStore::new(opts.cache_bytes, persist),
            sched: Scheduler::new(opts.workers, opts.queue_capacity),
        }
    }

    /// Re-enacts one LTL verify request under a `pipeline` span.
    pub fn submit(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        rid: u64,
        service: Service,
        sources: &ServiceSources,
        req: &VerifyRequest,
    ) -> Result<Class, String> {
        let root = tr.open("pipeline", rid, 0);
        let result = self.stages(tr, counts, rid, root, service, sources, req);
        tr.close(root);
        result
    }

    /// Re-enacts a wire request, which names a registry service: the
    /// server resolves the name before the pipeline runs.
    pub fn submit_named(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        rid: u64,
        req: &VerifyRequest,
    ) -> Result<Class, String> {
        let root = tr.open("pipeline", rid, 0);
        let result = match tr.time("registry.resolve", rid, root, || {
            registry::resolve_with_sources(&req.service)
        }) {
            Some((service, sources)) => self.stages(tr, counts, rid, root, service, &sources, req),
            None => Err(format!("unknown service {}", req.service)),
        };
        tr.close(root);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn stages(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        rid: u64,
        root: SpanId,
        service: Service,
        sources: &ServiceSources,
        req: &VerifyRequest,
    ) -> Result<Class, String> {
        let property = tr
            .time("parser.parse", rid, root, || parse_property(&req.property))
            .map_err(|e| e.to_string())?;
        let pre = tr.time("precheck", rid, root, || {
            precheck(&service, Some(sources), Some(&property))
        });
        if let Some(reason) = pre.refusal() {
            return Err(format!("not admissible: {reason}"));
        }
        let fp = tr.time("fingerprint", rid, root, || {
            request_fingerprint(&service, Some(&property), req.mode, req.node_limit)
        });
        counts.cache_gets += 1;
        let cache = &mut self.cache;
        if tr.time("cache.get", rid, root, || cache.get(fp)).is_some() {
            counts.cache_hits += 1;
            tr.time("release", rid, root, move || drop((service, property)));
            return Ok(Class::Hit);
        }

        let sliced = tr.time("slice", rid, root, || {
            wave_core::slice::slice(&service, &property)
        });
        counts.slices += 1;
        counts.rules_removed += sliced.report.sliced_rules() as u64;
        let key = tr.time("tiers.key", rid, root, || {
            verdict_tier_key(&sliced.service, &property, req.node_limit)
        });
        let tiers = &self.tiers;
        counts.tier_probes += 1;
        if let Some(verdict) = tr.time("tiers.probe", rid, root, || tiers.probe_verdict(key)) {
            counts.tier_hits += 1;
            let outcome = VerifyOutcome {
                verdict,
                stats: SearchStats {
                    sliced_rules: sliced.report.sliced_rules(),
                    sliced_relations: sliced.report.sliced_relations(),
                    incremental: true,
                    ..SearchStats::default()
                },
            };
            let bytes = tr.time("codec.encode", rid, root, || {
                outcome_to_json(&outcome).encode().into_bytes()
            });
            tr.time("cache.insert", rid, root, || cache.insert(fp, bytes));
            tr.time("release", rid, root, move || {
                drop((service, property, sliced))
            });
            return Ok(Class::Tier);
        }

        // The engine translates inside `verify_ltl` on its worker; here
        // the translation goes first, into the same automaton cache the
        // search then reads, so its cost lands in a span of its own.
        let automata = tiers.automata();
        let mut states = None;
        tr.time("ltl2buchi", rid, root, || {
            let mut table = FoAbstraction::default();
            if let Some(pnf) = to_pnf(&property.body, true, &mut table) {
                automata.get_or_insert(buchi_key(&property), || {
                    let aut = translate(&pnf);
                    states = Some(aut.len());
                    aut
                });
            }
        });
        counts.buchi_lookups += 1;
        if let Some(n) = states {
            counts.translations += 1;
            counts.buchi_states += n as u64;
        }

        tr.time("release", rid, root, move || drop(sliced));
        let dispatch = tr.open("scheduler", rid, root);
        let (tx, rx) = mpsc::channel();
        let opts = SymbolicOptions {
            node_limit: req.node_limit,
            threads: req.threads,
            automata: Some(automata),
            ..SymbolicOptions::default()
        };
        self.sched
            .submit(move || {
                let t0 = Instant::now();
                let result = verify_ltl(&service, &property, &opts);
                let _ = tx.send((result, t0, Instant::now()));
            })
            .map_err(|_| "queue full".to_string())?;
        let (result, t0, t1) = rx.recv().map_err(|_| "verification job died".to_string())?;
        tr.record("symbolic.verify", rid, dispatch, t0, t1);
        tr.close(dispatch);
        let outcome = result.map_err(|e| e.to_string())?;
        counts.add_search(&outcome.stats);

        tr.time("tiers.store", rid, root, || {
            tiers.store_verdict(key, &outcome.verdict);
            tiers.persist_pending_automata();
        });
        let bytes = tr.time("codec.encode", rid, root, || {
            outcome_to_json(&outcome).encode().into_bytes()
        });
        if outcome.verdict != Verdict::Cancelled {
            tr.time("cache.insert", rid, root, || cache.insert(fp, bytes));
        }
        Ok(Class::Cold)
    }
}
