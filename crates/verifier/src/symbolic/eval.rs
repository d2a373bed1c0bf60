//! Branching evaluation of FO formulas on symbolic configurations.
//!
//! Evaluation is three-valued against the knowledge store: a database
//! literal or `C`-equality not yet decided surfaces as a *needed
//! assumption*; the driver forks the configuration on it and re-evaluates.
//! The store grows monotonically, so every evaluation terminates with a
//! finite set of `(configuration, truth-value)` branches.
//!
//! Quantifiers range over the **live symbols** (canonical `C`
//! representatives plus live fresh symbols) — complete for input-bounded
//! formulas, whose quantified variables are pinned to input tuples; the
//! ∃FO bodies of input-option rules additionally get *ephemeral witness*
//! candidates supplied by the caller (see `step.rs`).

use std::collections::BTreeMap;

use wave_core::service::Service;
use wave_logic::formula::{Formula, Term, Var};
use wave_logic::schema::RelKind;

use super::config::SymConfig;
use super::state::Assumption;
use super::table::{CTable, Sym};

/// Evaluation context.
pub struct Ctx<'a> {
    /// The service (for relation kinds).
    pub service: &'a Service,
    /// The symbol table.
    pub table: &'a CTable,
    /// Extra quantifier candidates (ephemeral ∃FO witnesses).
    pub ephemeral: Vec<Sym>,
}

/// Why a single evaluation pass could not finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalStop {
    /// The truth of this assumption is needed.
    Need(Assumption),
    /// The formula mentions an unprovided input constant (error-page
    /// condition (i) territory; the caller decides what that means).
    Unprovided(String),
}

type R = Result<bool, EvalStop>;

fn resolve(
    ctx: &Ctx<'_>,
    cfg: &SymConfig,
    env: &BTreeMap<Var, Sym>,
    t: &Term,
) -> Result<Sym, EvalStop> {
    match t {
        Term::Var(v) => Ok(*env
            .get(v)
            .unwrap_or_else(|| panic!("unbound variable `{v}`"))),
        Term::Lit(val) => {
            Ok(Sym::C(ctx.table.literal_sym(val).unwrap_or_else(|| {
                panic!("literal {val:?} missing from the symbol table")
            })))
        }
        Term::Const(name) => {
            let c = ctx
                .table
                .const_sym(name)
                .unwrap_or_else(|| panic!("constant `{name}` missing from the symbol table"));
            if ctx.table.is_input_const(c) && !cfg.is_provided(c) {
                return Err(EvalStop::Unprovided(name.clone()));
            }
            Ok(Sym::C(c))
        }
    }
}

/// One evaluation pass; `Err` signals a needed assumption or an
/// unprovided constant.
pub fn eval(ctx: &Ctx<'_>, cfg: &SymConfig, env: &BTreeMap<Var, Sym>, f: &Formula) -> R {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Not(g) => Ok(!eval(ctx, cfg, env, g)?),
        Formula::And(fs) => {
            // Evaluate greedily but surface Need only if no conjunct is
            // already false (keeps branching down).
            let mut need = None;
            for g in fs {
                match eval(ctx, cfg, env, g) {
                    Ok(false) => return Ok(false),
                    Ok(true) => {}
                    Err(e) => need = Some(need.unwrap_or(e)),
                }
            }
            match need {
                None => Ok(true),
                Some(e) => Err(e),
            }
        }
        Formula::Or(fs) => {
            let mut need = None;
            for g in fs {
                match eval(ctx, cfg, env, g) {
                    Ok(true) => return Ok(true),
                    Ok(false) => {}
                    Err(e) => need = Some(need.unwrap_or(e)),
                }
            }
            match need {
                None => Ok(false),
                Some(e) => Err(e),
            }
        }
        Formula::Eq(a, b) => {
            let x = resolve(ctx, cfg, env, a)?;
            let y = resolve(ctx, cfg, env, b)?;
            match cfg.st.eq_status(ctx.table, x, y) {
                Some(v) => Ok(v),
                None => match (cfg.st.canon(x), cfg.st.canon(y)) {
                    (Sym::C(p), Sym::C(q)) => Err(EvalStop::Need(Assumption::EqC(p, q))),
                    _ => unreachable!("fresh equalities are always decided"),
                },
            }
        }
        Formula::Rel { name, args } => {
            let mut syms = Vec::with_capacity(args.len());
            for a in args {
                syms.push(resolve(ctx, cfg, env, a)?);
            }
            let (rel, kind) = ctx
                .table
                .relation(name)
                .unwrap_or_else(|| panic!("relation `{name}` missing from schema"));
            match kind {
                RelKind::Database => match cfg.st.fact_status(rel, &syms) {
                    Some(v) => Ok(v),
                    None => Err(EvalStop::Need(Assumption::DbFact {
                        rel,
                        args: syms.iter().map(|&s| cfg.st.canon(s)).collect(),
                    })),
                },
                RelKind::State | RelKind::Action => {
                    // Input-boundedness keeps quantified variables out of
                    // state/action atoms, so arguments live in `C`.
                    let mut cs = Vec::with_capacity(syms.len());
                    for s in &syms {
                        match cfg.st.canon(*s) {
                            Sym::C(c) => cs.push(c),
                            Sym::F(_) => return Ok(false),
                        }
                    }
                    let key = (rel, cs);
                    Ok(match kind {
                        RelKind::State => cfg.state.contains(&key),
                        _ => cfg.action.contains(&key),
                    })
                }
                RelKind::Input => tuple_match(ctx, cfg, cfg.inputs.get(&rel), &syms),
                RelKind::PrevInput => {
                    let base = name
                        .strip_prefix(wave_logic::schema::PREV_PREFIX)
                        .and_then(|base| ctx.table.name_id(base))
                        .expect("prev relations name an interned input relation");
                    tuple_match(ctx, cfg, cfg.prev.get(&base), &syms)
                }
                RelKind::Page => Ok(rel == cfg.page),
            }
        }
        Formula::Exists(vars, body) => quantify(ctx, cfg, env, vars, body, true),
        Formula::Forall(vars, body) => quantify(ctx, cfg, env, vars, body, false),
    }
}

/// Componentwise equality of an atom's arguments with the current/previous
/// input tuple.
fn tuple_match(ctx: &Ctx<'_>, cfg: &SymConfig, tuple: Option<&Vec<Sym>>, args: &[Sym]) -> R {
    let Some(tuple) = tuple else { return Ok(false) };
    if tuple.len() != args.len() {
        return Ok(false);
    }
    let mut need = None;
    for (&t, &a) in tuple.iter().zip(args.iter()) {
        match cfg.st.eq_status(ctx.table, t, a) {
            Some(false) => return Ok(false),
            Some(true) => {}
            None => {
                if need.is_none() {
                    if let (Sym::C(p), Sym::C(q)) = (cfg.st.canon(t), cfg.st.canon(a)) {
                        need = Some(EvalStop::Need(Assumption::EqC(p, q)));
                    }
                }
            }
        }
    }
    match need {
        None => Ok(true),
        Some(e) => Err(e),
    }
}

fn quantify(
    ctx: &Ctx<'_>,
    cfg: &SymConfig,
    env: &BTreeMap<Var, Sym>,
    vars: &[Var],
    body: &Formula,
    existential: bool,
) -> R {
    let mut live = cfg.live_syms();
    live.extend(ctx.ephemeral.iter().copied());
    let mut envs = vec![env.clone()];
    let mut next_eph = 0usize;
    for v in vars {
        // A *free witness* — a variable occurring only in database atoms —
        // can always be realized by a fresh element (the database is
        // existentially quantified and nothing ties the witness to known
        // symbols), so a single ephemeral candidate is complete and avoids
        // polluting the knowledge store with per-candidate fact guesses.
        let candidates: Vec<Sym> =
            if existential && !ctx.ephemeral.is_empty() && is_free_witness(ctx, body, v) {
                let c = ctx.ephemeral[next_eph.min(ctx.ephemeral.len() - 1)];
                next_eph += 1;
                vec![c]
            } else {
                live.clone()
            };
        let mut next = Vec::with_capacity(envs.len() * candidates.len());
        for e in &envs {
            for &c in &candidates {
                let mut e2 = e.clone();
                e2.insert(v.clone(), c);
                next.push(e2);
            }
        }
        envs = next;
    }
    let mut need = None;
    for e in &envs {
        match eval(ctx, cfg, e, body) {
            Ok(v) if v == existential => return Ok(existential),
            Ok(_) => {}
            Err(err) => need = Some(need.unwrap_or(err)),
        }
    }
    match need {
        None => Ok(!existential),
        Some(e) => Err(e),
    }
}

/// True when every occurrence of `var` in `f` is as an argument of a
/// `Database` atom — no equalities, no input/prev/state/action atoms.
fn is_free_witness(ctx: &Ctx<'_>, f: &Formula, var: &str) -> bool {
    let mut free = true;
    f.walk(&mut |g| {
        if !free {
            return;
        }
        match g {
            Formula::Eq(a, b) if (a.as_var() == Some(var) || b.as_var() == Some(var)) => {
                free = false;
            }
            Formula::Rel { name, args } if args.iter().any(|t| t.as_var() == Some(var)) => {
                let kind = ctx.service.schema.relation(name).map(|r| r.kind);
                if kind != Some(RelKind::Database) {
                    free = false;
                }
            }
            // An inner quantifier shadowing `var` would make occurrences
            // below refer to the inner binder; formulas here are
            // standardized apart by construction, but stay conservative.
            Formula::Exists(vs, _) | Formula::Forall(vs, _) if vs.iter().any(|v| v == var) => {
                free = false;
            }
            _ => {}
        }
    });
    free
}

/// Fully evaluates `f`, forking on needed assumptions. Returns every
/// consistent branch with its truth value. `Unprovided` branches are
/// reported separately so the caller can apply the right semantics
/// (error page for rules, "not satisfied" for property components).
///
/// Takes the configuration by value: when nothing needs deciding — the
/// common case — it comes back as the single branch without a copy.
pub fn eval_branching(
    ctx: &Ctx<'_>,
    cfg: SymConfig,
    env: &BTreeMap<Var, Sym>,
    f: &Formula,
) -> (Vec<(SymConfig, bool)>, bool) {
    let mut out = Vec::new();
    let mut unprovided = false;
    let mut work = vec![cfg];
    while let Some(c) = work.pop() {
        match eval(ctx, &c, env, f) {
            Ok(v) => out.push((c, v)),
            Err(EvalStop::Unprovided(_)) => unprovided = true,
            Err(EvalStop::Need(a)) => {
                if let Some(c2) = c.clone().assert(ctx.table, &a, true) {
                    work.push(c2);
                }
                if let Some(c2) = c.assert(ctx.table, &a, false) {
                    work.push(c2);
                }
            }
        }
    }
    (out, unprovided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wave_core::builder::ServiceBuilder;
    use wave_logic::parser::{parse_fo, parse_property};

    fn setup() -> (Service, CTable) {
        let mut b = ServiceBuilder::new("P");
        b.database_relation("r", 1)
            .database_relation("edge", 2)
            .state_relation("s", 1)
            .state_prop("flag")
            .input_relation("i", 1)
            .input_constant("name")
            .page("P")
            .solicit_constant("name")
            .input_rule("i", &["x"], "r(x)")
            .insert_rule("flag", &[], r#"exists x . (i(x) & x = "lit")"#)
            .target("P", r#"name = "lit""#);
        let s = b.build().unwrap();
        let p = parse_property("forall w . G !gone(w)").unwrap();
        let t = CTable::build(&s, &p);
        (s, t)
    }

    fn ctx<'a>(s: &'a Service, t: &'a CTable) -> Ctx<'a> {
        Ctx {
            service: s,
            table: t,
            ephemeral: Vec::new(),
        }
    }

    #[test]
    fn db_atom_branches_both_ways() {
        let (s, t) = setup();
        let cfg = SymConfig::initial(&t);
        let f = parse_fo("r(\"lit\")", &[]).unwrap();
        let (branches, unprov) = eval_branching(&ctx(&s, &t), cfg, &BTreeMap::new(), &f);
        assert!(!unprov);
        let vals: Vec<bool> = branches.iter().map(|(_, v)| *v).collect();
        assert!(vals.contains(&true) && vals.contains(&false));
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn page_and_state_atoms_are_decided() {
        let (s, t) = setup();
        let mut cfg = SymConfig::initial(&t);
        let c = ctx(&s, &t);
        assert_eq!(
            eval(&c, &cfg, &BTreeMap::new(), &parse_fo("P", &[]).unwrap()),
            Ok(true)
        );
        assert_eq!(
            eval(&c, &cfg, &BTreeMap::new(), &parse_fo("flag", &[]).unwrap()),
            Ok(false)
        );
        Arc::make_mut(&mut cfg.state).insert((t.name_id("flag").unwrap(), vec![]));
        assert_eq!(
            eval(&c, &cfg, &BTreeMap::new(), &parse_fo("flag", &[]).unwrap()),
            Ok(true)
        );
    }

    #[test]
    fn unprovided_constant_reported() {
        let (s, t) = setup();
        let cfg = SymConfig::initial(&t);
        let f = parse_fo("name = \"lit\"", &[]).unwrap();
        let (branches, unprov) = eval_branching(&ctx(&s, &t), cfg, &BTreeMap::new(), &f);
        assert!(unprov);
        assert!(branches.is_empty());
    }

    #[test]
    fn provided_constant_equality_branches() {
        let (s, t) = setup();
        let mut cfg = SymConfig::initial(&t);
        cfg.provided.insert(t.const_sym("name").unwrap());
        let f = parse_fo("name = \"lit\"", &[]).unwrap();
        let (branches, unprov) = eval_branching(&ctx(&s, &t), cfg, &BTreeMap::new(), &f);
        assert!(!unprov);
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn input_atom_matches_current_tuple() {
        let (s, t) = setup();
        let mut cfg = SymConfig::initial(&t);
        cfg.n_fresh = 1;
        cfg.inputs.insert(t.name_id("i").unwrap(), vec![Sym::F(0)]);
        let c = ctx(&s, &t);
        // ∃x (i(x) ∧ x = "lit"): the fresh input is ≠ every C symbol.
        let f = parse_fo(r#"exists x . (i(x) & x = "lit")"#, &[]).unwrap();
        assert_eq!(eval(&c, &cfg, &BTreeMap::new(), &f), Ok(false));
        // With the input being the literal itself, it holds.
        let lit = t.literal_sym(&"lit".into()).unwrap();
        cfg.inputs
            .insert(t.name_id("i").unwrap(), vec![Sym::C(lit)]);
        assert_eq!(eval(&c, &cfg, &BTreeMap::new(), &f), Ok(true));
    }

    #[test]
    fn prev_atom_reads_previous_tuple() {
        let (s, t) = setup();
        let mut cfg = SymConfig::initial(&t);
        cfg.n_fresh = 1;
        Arc::make_mut(&mut cfg.prev).insert(t.name_id("i").unwrap(), vec![Sym::F(0)]);
        let c = ctx(&s, &t);
        let f = parse_fo("exists x . prev_i(x)", &[]).unwrap();
        assert_eq!(eval(&c, &cfg, &BTreeMap::new(), &f), Ok(true));
        let g = parse_fo("exists x . i(x)", &[]).unwrap();
        assert_eq!(eval(&c, &cfg, &BTreeMap::new(), &g), Ok(false));
    }

    #[test]
    fn guarded_forall_over_inputs() {
        let (s, t) = setup();
        let mut cfg = SymConfig::initial(&t);
        let lit = t.literal_sym(&"lit".into()).unwrap();
        cfg.inputs
            .insert(t.name_id("i").unwrap(), vec![Sym::C(lit)]);
        let c = ctx(&s, &t);
        let f = parse_fo(r#"forall x . (i(x) -> x = "lit")"#, &[]).unwrap();
        // The lazy evaluator may need equality guesses to see that every
        // case converges to true; all branches must agree.
        let (branches, _) = eval_branching(&c, cfg, &BTreeMap::new(), &f);
        assert!(!branches.is_empty());
        assert!(branches.iter().all(|(_, v)| *v));
    }

    #[test]
    fn witness_env_binding() {
        let (s, t) = setup();
        let cfg = SymConfig::initial(&t);
        let w = t.witness_sym("w").unwrap();
        let env: BTreeMap<Var, Sym> = [("w".to_string(), Sym::C(w))].into();
        let c = ctx(&s, &t);
        let f = parse_fo("w = w", &["w"]).unwrap();
        assert_eq!(eval(&c, &cfg, &env, &f), Ok(true));
    }

    #[test]
    fn ephemeral_candidates_extend_quantifiers() {
        let (s, t) = setup();
        let mut cfg = SymConfig::initial(&t);
        cfg.n_fresh = 0;
        // edge(x, y) with both quantified: no live fresh, db unknown over
        // C-pairs → branching can find a true branch.
        let mut c = ctx(&s, &t);
        c.ephemeral = vec![Sym::F(10)];
        let f = parse_fo("exists x y . edge(x, y)", &[]).unwrap();
        let (branches, _) = eval_branching(&c, cfg, &BTreeMap::new(), &f);
        assert!(branches.iter().any(|(_, v)| *v));
        assert!(branches.iter().any(|(_, v)| !*v));
    }
}
