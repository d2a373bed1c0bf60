//! The cross-engine differential driver.
//!
//! One generated case is pushed through every applicable decision
//! procedure and every result is checked against every other:
//!
//! * **symbolic vs enumerative** (the Theorem 3.5 engine against the
//!   explicit-state baseline): symbolic `Holds` forbids an enumerative
//!   violation on *any* sampled database; for fully propositional
//!   services (where the empty database is the only database) the two
//!   must agree exactly.
//! * **symbolic vs the propositional CTL path** (Theorem 4.4): for
//!   propositional services and closed LTL properties, `A φ` checked on
//!   the per-database Kripke structure must match the enumerative
//!   verdict on that database.
//! * **slice vs full**: the cone-of-influence slicer
//!   ([`wave_core::slice`](mod@wave_core::slice)) is on by default in the symbolic engine, so
//!   the base run is sliced; a `slice: false` leg re-verifies the full
//!   service. Both conclusive verdicts must agree in kind — the
//!   certified-reduction claim (DESIGN.md §12) demanded on every
//!   generated case. Counterexamples are replayed against the **full**
//!   service regardless (the enumerative sweep below never slices).
//! * **pruned vs unpruned**: store subsumption (DESIGN.md §3.1.3) is on
//!   by default, so the base run prunes where it applies and then
//!   searches breadth-first instead of by nested DFS; every such case is
//!   re-verified with `prune: false`, which takes the nested DFS.
//!   Conclusive unpruned verdicts must agree in kind, and a lasso of the
//!   breadth-first search must replay through the unpruned product
//!   ([`wave_verifier::symbolic::lasso_replays`]).
//! * **metamorphic permutations**: shuffling rules, declarations, pages
//!   and database facts must keep the service's canonical
//!   [`Fingerprint`](wave_logic::fingerprint::Fingerprint) *and* the
//!   verdict; consistently renaming rule and property variables must
//!   keep the verdict (fingerprints hash variable names, so only the
//!   verdict is claimed there).
//! * **replay**: every enumerative counterexample is re-executed through
//!   the concrete semantics by [`wave_verifier::replay`]; a lasso that
//!   does not replay, or does not violate the property under its own
//!   witness, convicts the engine that produced it.
//!
//! Anything that trips is a [`Flaw`]; the driver never panics on a
//! divergence — it reports, so the shrinker can minimize.

use wave_logic::fingerprint::Canonical;
use wave_logic::instance::Instance;
use wave_logic::parser::parse_property;
use wave_logic::temporal::{PathQuant, Property, TFormula, TemporalClass};
use wave_rng::{Rng, SplitMix64};

use wave_core::classify::ServiceClass;
use wave_verifier::ctl_prop::{verify_ctl_on_db, CtlError, CtlOptions};
use wave_verifier::dbgen;
use wave_verifier::enumerative::{verify_ltl_on_db, EnumOptions, EnumOutcome};
use wave_verifier::precheck::precheck;
use wave_verifier::replay::replay_outcome;
use wave_verifier::symbolic::{
    lasso_replays, searches_breadth_first, verify_ltl, SymbolicOptions, Verdict,
};

use crate::spec::{rename_idents, ServiceSpec};

/// Budgets and comparison knobs for one differential run.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Symbolic node budget.
    pub sym_node_limit: usize,
    /// Enumerative node budget (per witness assignment).
    pub enum_node_limit: usize,
    /// Fresh values in the enumerative / CTL pools.
    pub fresh_values: usize,
    /// Domain size for the bounded database enumeration.
    pub db_domain: usize,
    /// Cap on enumerated databases per case.
    pub db_max: usize,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            sym_node_limit: 300_000,
            enum_node_limit: 150_000,
            fresh_values: 2,
            db_domain: 2,
            db_max: 6,
        }
    }
}

/// What a flaw is about — the discriminant the shrinker preserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlawKind {
    /// The spec did not build or its property did not parse.
    Build,
    /// The admission gate refused a generated case.
    Inadmissible,
    /// An engine returned an error on an admissible request.
    EngineError,
    /// A rule/declaration/fact permutation changed the fingerprint.
    PermutedFingerprint,
    /// A permutation changed a verdict.
    PermutedVerdict,
    /// A consistent variable renaming changed a verdict.
    RenamedVerdict,
    /// Symbolic says holds-for-all-databases, enumerative violates one.
    SymVsEnum,
    /// Database-free exactness (single possible database) broken.
    FullyPropExactness,
    /// The propositional CTL path disagrees with the enumerative verdict.
    CtlPathDisagree,
    /// An enumerative counterexample failed concrete replay.
    ReplayFailed,
    /// Cone-of-influence slicing changed a symbolic verdict.
    SliceDivergence,
    /// Store subsumption changed a symbolic verdict kind, or a pruned
    /// search reported a lasso the unpruned product does not contain.
    SubsumptionDivergence,
    /// A warm engine's digest-keyed incremental answer differed from a
    /// cold run of the edited service (or a no-op edit searched at all).
    IncrementalDivergence,
}

/// One confirmed cross-engine disagreement (or oracle failure).
#[derive(Clone, Debug)]
pub struct Flaw {
    /// The discriminant.
    pub kind: FlawKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// The outcome of one differential case.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// The seed (0 for hand-written specs).
    pub seed: u64,
    /// The decidable class the service fell into.
    pub class: String,
    /// The base symbolic verdict kind (`holds` / `violated` / ...).
    pub sym: String,
    /// Databases the enumerative engine ran on.
    pub dbs: usize,
    /// Enumerative violations found (each one replay-checked).
    pub enum_violations: usize,
    /// Counterexamples that survived concrete replay.
    pub replays: usize,
    /// True when any engine hit a budget — comparisons involving it are
    /// skipped, not failed.
    pub inconclusive: bool,
    /// The base symbolic run's `SearchStats::pruned`.
    pub pruned: u64,
    /// True when the base run took the breadth-first search (pruning on,
    /// safety-shaped negation), so the unpruned leg ran.
    pub breadth_first: bool,
    /// Everything that tripped.
    pub flaws: Vec<Flaw>,
}

impl CaseReport {
    /// True when the case produced no flaw.
    pub fn clean(&self) -> bool {
        self.flaws.is_empty()
    }
}

fn kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Holds { .. } => "holds",
        Verdict::Violated { .. } => "violated",
        Verdict::LimitReached => "limit",
        Verdict::Cancelled => "cancelled",
        Verdict::Poisoned => "poisoned",
    }
}

fn conclusive(v: &Verdict) -> bool {
    matches!(v, Verdict::Holds { .. } | Verdict::Violated { .. })
}

/// A permutation metamorphosis: shuffles every order-irrelevant list in
/// the spec (pages, declarations, per-page rules, database facts).
pub fn permuted(spec: &ServiceSpec, rng: &mut SplitMix64) -> ServiceSpec {
    let mut s = spec.clone();
    rng.shuffle(&mut s.db_rels);
    rng.shuffle(&mut s.state_props);
    rng.shuffle(&mut s.state_rels);
    rng.shuffle(&mut s.input_props);
    rng.shuffle(&mut s.input_rels);
    rng.shuffle(&mut s.pages);
    rng.shuffle(&mut s.facts);
    for p in &mut s.pages {
        rng.shuffle(&mut p.solicits);
        rng.shuffle(&mut p.input_rules);
        rng.shuffle(&mut p.inserts);
        rng.shuffle(&mut p.deletes);
        rng.shuffle(&mut p.targets);
    }
    s
}

/// A renaming metamorphosis: consistently renames the variable tokens
/// the generator uses (`x`, `y`, `q`, `q2`) across rule heads, rule
/// bodies and the property. Relation, page and proposition names are
/// multi-character, so the token-level rename cannot collide.
pub fn renamed(spec: &ServiceSpec) -> ServiceSpec {
    let map = |id: &str| -> Option<String> {
        match id {
            "x" => Some("vx".into()),
            "y" => Some("vy".into()),
            "q" => Some("vq".into()),
            "q2" => Some("vq2".into()),
            _ => None,
        }
    };
    let mut s = spec.clone();
    for p in &mut s.pages {
        for r in p
            .input_rules
            .iter_mut()
            .chain(p.inserts.iter_mut())
            .chain(p.deletes.iter_mut())
        {
            for v in &mut r.vars {
                if let Some(nv) = map(v) {
                    *v = nv;
                }
            }
            r.body = rename_idents(&r.body, &map);
        }
        for (_, g) in &mut p.targets {
            *g = rename_idents(g, &map);
        }
    }
    s.property = rename_idents(&s.property, &map);
    s
}

/// Runs the full differential battery on one spec.
pub fn run_case(seed: u64, spec: &ServiceSpec, opts: &DiffOptions) -> CaseReport {
    let mut report = CaseReport {
        seed,
        class: String::new(),
        sym: String::new(),
        dbs: 0,
        enum_violations: 0,
        replays: 0,
        inconclusive: false,
        pruned: 0,
        breadth_first: false,
        flaws: Vec::new(),
    };
    let flaw = |report: &mut CaseReport, kind: FlawKind, detail: String| {
        report.flaws.push(Flaw { kind, detail });
    };

    // Build + admission.
    let (service, sources) = match spec.build() {
        Ok(pair) => pair,
        Err(errs) => {
            flaw(
                &mut report,
                FlawKind::Build,
                format!("build errors: {errs:?}"),
            );
            return report;
        }
    };
    let property: Property = match parse_property(&spec.property) {
        Ok(p) => p,
        Err(e) => {
            flaw(&mut report, FlawKind::Build, format!("property parse: {e}"));
            return report;
        }
    };
    let pre = precheck(&service, Some(&sources), Some(&property));
    report.class = format!("{:?}", pre.class);
    if !pre.admissible() {
        flaw(
            &mut report,
            FlawKind::Inadmissible,
            pre.refusal().unwrap_or_default(),
        );
        return report;
    }

    // Symbolic base run.
    let sym_opts = SymbolicOptions {
        node_limit: opts.sym_node_limit,
        ..SymbolicOptions::default()
    };
    let base = match verify_ltl(&service, &property, &sym_opts) {
        Ok(out) => out,
        Err(e) => {
            flaw(
                &mut report,
                FlawKind::EngineError,
                format!("symbolic refused an admissible request: {e}"),
            );
            return report;
        }
    };
    report.sym = kind(&base.verdict).to_string();
    report.pruned = base.stats.pruned;
    if !conclusive(&base.verdict) {
        report.inconclusive = true;
    }

    // Slice-vs-full: the base run above slices (cone-of-influence
    // reduction is on by default), so re-running with `slice: false`
    // checks the certified-reduction claim end to end — the full,
    // unsliced service must reach the same verdict *kind* whenever both
    // runs are conclusive (witness lassos may differ textually between
    // the sliced and full state spaces, and either side may exhaust its
    // node budget first, so only conclusive-kind identity is claimed).
    let full_opts = SymbolicOptions {
        slice: false,
        ..sym_opts.clone()
    };
    match verify_ltl(&service, &property, &full_opts) {
        Ok(full)
            if conclusive(&full.verdict)
                && conclusive(&base.verdict)
                && kind(&full.verdict) != kind(&base.verdict) =>
        {
            flaw(
                &mut report,
                FlawKind::SliceDivergence,
                format!(
                    "sliced verdict {} vs full {} (slice dropped {} rules, {} relations)",
                    kind(&base.verdict),
                    kind(&full.verdict),
                    base.stats.sliced_rules,
                    base.stats.sliced_relations
                ),
            );
        }
        Ok(_) => {}
        Err(e) => flaw(
            &mut report,
            FlawKind::EngineError,
            format!("slice off: {e}"),
        ),
    }

    // Pruned vs unpruned: store subsumption (DESIGN.md §3.1.3) is on by
    // default, so the base run pruned wherever it applies, and searched
    // breadth-first there. Every case that search served is re-run with
    // `prune: false`, which takes the nested DFS, whether or not it
    // dropped anything: the search order itself differs. The kinds must
    // agree whenever the unpruned side is conclusive; pruning only
    // shrinks the search, so an unpruned `LimitReached` may become
    // conclusive. Its lasso must also replay through the unpruned
    // product, which it is a path of by construction.
    report.breadth_first = searches_breadth_first(&property, &sym_opts);
    if report.breadth_first {
        let unpruned_opts = SymbolicOptions {
            prune: false,
            ..sym_opts.clone()
        };
        match verify_ltl(&service, &property, &unpruned_opts) {
            Ok(full) if conclusive(&full.verdict) && kind(&full.verdict) != kind(&base.verdict) => {
                flaw(
                    &mut report,
                    FlawKind::SubsumptionDivergence,
                    format!(
                        "pruned verdict {} vs unpruned {} ({} nodes pruned)",
                        kind(&base.verdict),
                        kind(&full.verdict),
                        base.stats.pruned
                    ),
                );
            }
            Ok(_) => {}
            Err(e) => flaw(
                &mut report,
                FlawKind::EngineError,
                format!("prune off: {e}"),
            ),
        }
        if let Verdict::Violated { stem, cycle } = &base.verdict {
            match lasso_replays(&service, &property, &unpruned_opts, stem, cycle) {
                Ok(true) => {}
                Ok(false) => flaw(
                    &mut report,
                    FlawKind::SubsumptionDivergence,
                    "the breadth-first lasso does not replay through the unpruned product".into(),
                ),
                Err(e) => flaw(&mut report, FlawKind::EngineError, format!("replay: {e}")),
            }
        }
    }

    // Permutation metamorphosis: same fingerprint, same verdict kind.
    let mut perm_rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
    let perm = permuted(spec, &mut perm_rng);
    match perm.build() {
        Ok((perm_service, _)) => {
            let (f0, f1) = (service.fingerprint(), perm_service.fingerprint());
            if f0 != f1 {
                flaw(
                    &mut report,
                    FlawKind::PermutedFingerprint,
                    format!("fingerprint {f0} became {f1} under permutation"),
                );
            }
            match verify_ltl(&perm_service, &property, &sym_opts) {
                Ok(out) if kind(&out.verdict) == kind(&base.verdict) => {}
                Ok(out) => flaw(
                    &mut report,
                    FlawKind::PermutedVerdict,
                    format!("{} became {}", kind(&base.verdict), kind(&out.verdict)),
                ),
                Err(e) => flaw(&mut report, FlawKind::EngineError, format!("permuted: {e}")),
            }
        }
        Err(errs) => flaw(
            &mut report,
            FlawKind::PermutedVerdict,
            format!("permuted spec no longer builds: {errs:?}"),
        ),
    }

    // Renaming metamorphosis: same verdict kind (fingerprints hash
    // variable names, so no fingerprint claim).
    let ren = renamed(spec);
    match (ren.build(), parse_property(&ren.property)) {
        (Ok((ren_service, _)), Ok(ren_property)) => {
            match verify_ltl(&ren_service, &ren_property, &sym_opts) {
                Ok(out) if kind(&out.verdict) == kind(&base.verdict) => {}
                Ok(out) => flaw(
                    &mut report,
                    FlawKind::RenamedVerdict,
                    format!("{} became {}", kind(&base.verdict), kind(&out.verdict)),
                ),
                Err(e) => flaw(&mut report, FlawKind::EngineError, format!("renamed: {e}")),
            }
        }
        (Err(errs), _) => flaw(
            &mut report,
            FlawKind::RenamedVerdict,
            format!("renamed spec no longer builds: {errs:?}"),
        ),
        (_, Err(e)) => flaw(
            &mut report,
            FlawKind::RenamedVerdict,
            format!("renamed property no longer parses: {e}"),
        ),
    }

    // Enumerative sweep: the spec's own database, the empty database,
    // and the bounded enumeration.
    let enum_opts = EnumOptions {
        fresh_values: opts.fresh_values,
        node_limit: opts.enum_node_limit,
        ..EnumOptions::default()
    };
    let mut dbs = vec![Instance::new(), spec.db_instance()];
    dbs.extend(dbgen::enumerate(
        &service.schema,
        opts.db_domain,
        Some(opts.db_max),
    ));
    dbs.dedup();
    let empty_db_outcome = run_enum_sweep(
        &service,
        &property,
        &dbs,
        &enum_opts,
        &base.verdict,
        &mut report,
    );

    // Database-free exactness: when the schema declares no database
    // relations and no database constants, the empty database is the
    // *only* database, so symbolic and enumerative must agree outright,
    // not just one-sidedly. The `FullyPropositional` *class* is not
    // enough: it classifies the rules, and a property can observe a
    // declared database relation no rule touches — found by this very
    // oracle (seeds 243, 581, 1451, … of the first campaign).
    let db_free = service
        .schema
        .relations_of(wave_logic::schema::RelKind::Database)
        .next()
        .is_none()
        && !service
            .schema
            .constants()
            .any(|(_, k)| k == wave_logic::schema::ConstKind::Database);
    if db_free && conclusive(&base.verdict) {
        if let Some(enum_empty) = &empty_db_outcome {
            let (s, e) = (base.holds(), enum_empty.holds());
            if s != e {
                flaw(
                    &mut report,
                    FlawKind::FullyPropExactness,
                    format!(
                        "symbolic {} but enumerative holds={e} on the empty database",
                        kind(&base.verdict)
                    ),
                );
            }
        }
    }

    // Propositional CTL path (Theorem 4.4): `A φ` per database must
    // match the enumerative verdict there.
    let propositional = matches!(
        pre.class,
        ServiceClass::FullyPropositional | ServiceClass::Propositional
    );
    if propositional && property.vars.is_empty() && property.classify() == TemporalClass::Ltl {
        let all_paths = TFormula::Path(PathQuant::A, Box::new(property.body.clone()));
        let ctl_opts = CtlOptions {
            fresh_values: opts.fresh_values,
            ..CtlOptions::default()
        };
        for db in &dbs {
            let enum_out = match verify_ltl_on_db(&service, db, &property, &enum_opts) {
                Ok(out) => out,
                Err(_) => continue,
            };
            let enum_holds = match enum_out {
                EnumOutcome::Holds { .. } => true,
                EnumOutcome::Violated { .. } => false,
                _ => continue,
            };
            match verify_ctl_on_db(&service, db, &all_paths, &ctl_opts) {
                Ok(ctl_holds) if ctl_holds == enum_holds => {}
                Ok(ctl_holds) => flaw(
                    &mut report,
                    FlawKind::CtlPathDisagree,
                    format!("A-path says holds={ctl_holds}, enumerative says holds={enum_holds} on {db:?}"),
                ),
                Err(CtlError::StateLimit) => report.inconclusive = true,
                Err(e) => flaw(
                    &mut report,
                    FlawKind::EngineError,
                    format!("ctl path refused a propositional request: {e}"),
                ),
            }
        }
    }

    report
}

/// Runs the enumerative engine over `dbs`, replay-checking every
/// counterexample and diffing against the symbolic verdict. Returns the
/// outcome on the empty database (always `dbs[0]`) when conclusive.
fn run_enum_sweep(
    service: &wave_core::service::Service,
    property: &Property,
    dbs: &[Instance],
    enum_opts: &EnumOptions,
    sym: &Verdict,
    report: &mut CaseReport,
) -> Option<EnumOutcome> {
    let mut empty_outcome = None;
    for (i, db) in dbs.iter().enumerate() {
        report.dbs += 1;
        let out = match verify_ltl_on_db(service, db, property, enum_opts) {
            Ok(out) => out,
            Err(e) => {
                report.flaws.push(Flaw {
                    kind: FlawKind::EngineError,
                    detail: format!("enumerative failed on {db:?}: {e}"),
                });
                continue;
            }
        };
        match &out {
            EnumOutcome::Violated { .. } => {
                report.enum_violations += 1;
                match replay_outcome(service, db, property, &out) {
                    Ok(()) => report.replays += 1,
                    Err(f) => report.flaws.push(Flaw {
                        kind: FlawKind::ReplayFailed,
                        detail: format!("on {db:?}: {f}"),
                    }),
                }
                if matches!(sym, Verdict::Holds { .. }) {
                    report.flaws.push(Flaw {
                        kind: FlawKind::SymVsEnum,
                        detail: format!(
                            "symbolic holds for all databases, enumerative violates on {db:?}"
                        ),
                    });
                }
            }
            EnumOutcome::Holds { .. } => {}
            EnumOutcome::LimitReached | EnumOutcome::Cancelled => {
                report.inconclusive = true;
            }
        }
        if i == 0
            && matches!(
                out,
                EnumOutcome::Holds { .. } | EnumOutcome::Violated { .. }
            )
        {
            empty_outcome = Some(out);
        }
    }
    empty_outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::{PageSpec, RuleSpec};

    fn toggle_spec() -> ServiceSpec {
        ServiceSpec {
            home: "P0".into(),
            input_props: vec!["g0".into()],
            pages: vec![
                PageSpec {
                    name: "P0".into(),
                    solicits: vec!["g0".into()],
                    targets: vec![("P1".into(), "g0".into())],
                    ..PageSpec::default()
                },
                PageSpec {
                    name: "P1".into(),
                    solicits: vec!["g0".into()],
                    targets: vec![("P0".into(), "g0".into())],
                    ..PageSpec::default()
                },
            ],
            property: "G (P0 | P1)".into(),
            ..ServiceSpec::default()
        }
    }

    #[test]
    fn clean_case_produces_no_flaws() {
        let report = run_case(0, &toggle_spec(), &DiffOptions::default());
        assert!(report.clean(), "{:?}", report.flaws);
        assert_eq!(report.sym, "holds");
        assert!(report.dbs >= 1);
    }

    #[test]
    fn violated_case_is_replayed_not_flagged() {
        let mut spec = toggle_spec();
        spec.property = "G !P1".into();
        let report = run_case(0, &spec, &DiffOptions::default());
        assert!(report.clean(), "{:?}", report.flaws);
        assert_eq!(report.sym, "violated");
        assert!(report.enum_violations >= 1);
        assert_eq!(report.replays, report.enum_violations);
    }

    /// Shrunk repro from the first 3000-seed campaign (seed 2804; seeds
    /// 243, 581, 1451, 1811, 1889, 2445, 2509 shrank to the same core).
    /// The service's *rules* are fully propositional, but the property
    /// observes the declared-yet-unused database relation `r0` — so the
    /// symbolic engine (quantifying over all databases of the schema)
    /// legitimately finds a violating database while the enumerative
    /// engine holds on the empty one. The driver's exactness rule must
    /// key on the schema being database-free, not on the service class.
    #[test]
    fn regression_property_can_observe_unused_db_relation() {
        let spec = ServiceSpec::parse(
            "home P0\n\
             db r0 1\n\
             inputprop g0\n\
             page P0\n\
             \x20 solicit g0\n\
             \x20 goto P1 when g0\n\
             page P1\n\
             property ((!(r0(\"k\")) B r0(\"k\")) | (g0 B F (P1)))\n",
        )
        .unwrap();
        let report = run_case(2804, &spec, &DiffOptions::default());
        assert!(report.clean(), "{:?}", report.flaws);
        assert_eq!(report.sym, "violated", "needs a database with r0(\"k\")");
        assert_eq!(report.class, "FullyPropositional", "rules never touch r0");
    }

    /// A spec with deliberate dead logic — an unreachable page writing a
    /// state prop nothing reads — must slice (the base run drops rules)
    /// and still come back clean: the slice-off leg agrees in kind.
    #[test]
    fn pruning_keeps_error_freeness_verdicts_on_generated_services() {
        // The demo sites have no subsumed configuration, so the
        // generated services are where `is_error_free` actually prunes.
        use wave_verifier::symbolic::is_error_free;
        let mut fired = 0;
        for seed in 0..100 {
            let (service, _) = generate(seed).spec.build().unwrap();
            let on = SymbolicOptions {
                node_limit: 20_000,
                ..SymbolicOptions::default()
            };
            let off = SymbolicOptions {
                prune: false,
                ..on.clone()
            };
            let pruned = is_error_free(&service, &on).unwrap();
            let full = is_error_free(&service, &off).unwrap();
            assert_eq!(
                kind(&pruned.verdict),
                kind(&full.verdict),
                "seed {seed}: {pruned:?} vs {full:?}"
            );
            assert!(pruned.stats.nodes_interned <= full.stats.nodes_interned);
            fired += usize::from(pruned.stats.pruned > 0);
        }
        assert!(fired > 10, "pruning fired on only {fired} of 100 services");
    }

    #[test]
    fn dead_logic_case_slices_and_stays_clean() {
        let mut spec = toggle_spec();
        spec.state_props = vec!["audit".into()];
        spec.pages.push(PageSpec {
            name: "P2".into(),
            solicits: vec!["g0".into()],
            inserts: vec![RuleSpec {
                rel: "audit".into(),
                vars: vec![],
                body: "g0".into(),
            }],
            targets: vec![("P0".into(), "g0".into())],
            ..PageSpec::default()
        });
        let opts = DiffOptions::default();
        let report = run_case(0, &spec, &opts);
        assert!(report.clean(), "{:?}", report.flaws);
        assert_eq!(report.sym, "holds");
        // The base run really sliced: P2's rules and `audit` are outside
        // the property cone, so the differential leg compared two
        // genuinely different searches.
        let (service, _) = spec.build().unwrap();
        let property = parse_property(&spec.property).unwrap();
        let out = verify_ltl(&service, &property, &SymbolicOptions::default()).unwrap();
        assert!(out.stats.sliced_rules > 0, "expected a non-identity slice");
        assert!(out.stats.sliced_relations > 0);
    }

    #[test]
    fn permutation_preserves_fingerprint_on_a_data_service() {
        let case = generate(2);
        let (s0, _) = case.spec.build().unwrap();
        let mut rng = SplitMix64::seed_from_u64(99);
        for _ in 0..5 {
            let p = permuted(&case.spec, &mut rng);
            let (s1, _) = p.build().unwrap();
            assert_eq!(s0.fingerprint(), s1.fingerprint());
        }
    }

    #[test]
    fn renaming_rewrites_heads_bodies_and_property() {
        let spec = ServiceSpec {
            home: "P0".into(),
            db_rels: vec![("r0".into(), 1)],
            input_rels: vec![("pick".into(), 1)],
            state_rels: vec![("st".into(), 1)],
            pages: vec![PageSpec {
                name: "P0".into(),
                input_rules: vec![RuleSpec {
                    rel: "pick".into(),
                    vars: vec!["y".into()],
                    body: "r0(y)".into(),
                }],
                inserts: vec![RuleSpec {
                    rel: "st".into(),
                    vars: vec!["y".into()],
                    body: "pick(y)".into(),
                }],
                ..PageSpec::default()
            }],
            property: "forall x . G (!(exists q . (pick(q) & q = x)) | r0(x))".into(),
            ..ServiceSpec::default()
        };
        let ren = renamed(&spec);
        assert_eq!(ren.pages[0].input_rules[0].vars, vec!["vy".to_string()]);
        assert_eq!(ren.pages[0].input_rules[0].body, "r0(vy)");
        assert!(ren.property.contains("vq") && ren.property.contains("vx"));
        // Both builds verify to the same verdict via the driver.
        let report = run_case(0, &spec, &DiffOptions::default());
        assert!(report.clean(), "{:?}", report.flaws);
    }
}
