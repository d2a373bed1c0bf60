//! Symbolic successor generation — Definition 2.3 over symbols.
//!
//! Mirrors the concrete interpreter's split into a *transition core*
//! (targets with ambiguity detection, state update on `C`-tuples with
//! conflict-no-op semantics, action firing, `prev` shift) and a *page
//! entry* (constant provisioning with the (i)/(ii) error conditions, and
//! the user's input choice). Where the concrete interpreter evaluates over
//! one database, every step here *branches*: on undecided database
//! literals and `C`-equalities, on the equality type of each new input
//! component (a `C`-class or a fresh element), and on the ∃FO witnesses
//! needed to put the chosen tuple inside the page's input options.
//!
//! Branches are passed along by value through every loop: a branch that
//! does not fork moves on without a copy, and forks share the knowledge
//! store and the state, action and `prev` sets until one side writes
//! (see [`SymConfig`]), so a fork in page entry copies only the current
//! inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wave_core::page::Page;
use wave_core::service::Service;
use wave_logic::formula::Var;
use wave_logic::schema::{ConstKind, RelKind};

use super::config::SymConfig;
use super::eval::{eval_branching, Ctx};
use super::table::{CSym, CTable, NameId, Sym};

/// Base id for ephemeral ∃FO witnesses (never collides with live fresh
/// symbols, whose count stays far below this).
const EPHEMERAL_BASE: u16 = 10_000;

/// All initial configurations `σ_0`: every symbolic way to enter the home
/// page.
pub fn initial_configs(service: &Service, table: &CTable) -> Vec<SymConfig> {
    enter_page(service, table, SymConfig::initial(table), table.home())
}

/// All symbolic successors of `cfg`.
pub fn successors(service: &Service, table: &CTable, cfg: &SymConfig) -> Vec<SymConfig> {
    if cfg.page == table.error_page() {
        return vec![cfg.clone()];
    }
    if cfg.err_pending {
        return vec![cfg.to_error(table)];
    }
    let page = service
        .page(table.name(cfg.page))
        .expect("non-error configurations sit on defined pages");

    // --- targets: branch over rule bodies; ambiguity → error page ---
    // Each branch carries (config-with-knowledge, Some(next page) so far).
    let mut branches: Vec<(SymConfig, Option<NameId>, bool)> = vec![(cfg.clone(), None, false)];
    let ctx = Ctx {
        service,
        table,
        ephemeral: Vec::new(),
    };
    for rule in &page.target_rules {
        let rule_target = table.name_id(&rule.target).expect("targets are interned");
        let mut next = Vec::new();
        for (c, target, dead) in branches {
            if dead {
                next.push((c, target, dead));
                continue;
            }
            // A configuration without `err_pending` has every input
            // constant its page's rules mention provided (checked on page
            // entry), so no target body can stop on an unprovided one.
            let (evals, unprovided) = eval_branching(&ctx, c, &BTreeMap::new(), &rule.body);
            assert!(!unprovided, "provision checked on page entry");
            for (c2, v) in evals {
                if !v {
                    next.push((c2, target, false));
                } else {
                    match target {
                        Some(t) if t != rule_target => next.push((c2, None, true)),
                        _ => next.push((c2, Some(rule_target), false)),
                    }
                }
            }
        }
        branches = next;
    }

    let mut out = Vec::new();
    for (c, target, dead) in branches {
        if dead {
            out.push(c.to_error(table));
            continue;
        }
        let next_page = target.unwrap_or(cfg.page);
        for core in transition_cores(service, table, page, c) {
            out.extend(enter_page(service, table, core, next_page));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Computes the state/action/prev part of the transition from a branch
/// whose target is already decided. The knowledge store keeps evolving —
/// state memberships are accumulated against pre-step tuples and
/// re-canonicalized at the end (a merge that collapses tuples with
/// different membership kills the branch).
fn transition_cores(
    service: &Service,
    table: &CTable,
    page: &Page,
    cfg: SymConfig,
) -> Vec<SymConfig> {
    type Acc = Vec<(NameId, Vec<CSym>, bool)>; // (relation, pre-step tuple, next-membership)
    let ctx = Ctx {
        service,
        table,
        ephemeral: Vec::new(),
    };
    let base_reps = cfg.st.reps();

    let mut branches: Vec<(SymConfig, Acc, Acc)> = vec![(cfg, Vec::new(), Vec::new())];

    // State rules.
    for rel in service.schema.relations_of(RelKind::State) {
        let rel_id = table.name_id(&rel.name).expect("relations are interned");
        let rule = page.state_rule(&rel.name);
        for tuple in tuples_over(&base_reps, rel.arity) {
            let mut next = Vec::new();
            for (c, mut sacc, aacc) in branches {
                let current = c.state.contains(&(rel_id, tuple.clone()));
                match rule {
                    None => {
                        if current {
                            sacc.push((rel_id, tuple.clone(), true));
                        }
                        next.push((c, sacc, aacc));
                    }
                    Some(r) => {
                        let env: BTreeMap<Var, Sym> = r
                            .vars
                            .iter()
                            .cloned()
                            .zip(tuple.iter().map(|&t| Sym::C(t)))
                            .collect();
                        let ins_branches = match &r.insert {
                            Some(body) => eval_branching(&ctx, c, &env, body).0,
                            None => vec![(c, false)],
                        };
                        for (c2, ins) in ins_branches {
                            let del_branches = match &r.delete {
                                Some(body) => eval_branching(&ctx, c2, &env, body).0,
                                None => vec![(c2, false)],
                            };
                            for (c3, del) in del_branches {
                                let member = (ins && !del) || (current && (ins == del));
                                let mut s2 = sacc.clone();
                                if member {
                                    s2.push((rel_id, tuple.clone(), true));
                                }
                                next.push((c3, s2, aacc.clone()));
                            }
                        }
                    }
                }
            }
            branches = next;
        }
    }

    // Action rules.
    for rule in &page.action_rules {
        let rel_id = table
            .name_id(&rule.relation)
            .expect("relations are interned");
        let arity = service
            .schema
            .relation(&rule.relation)
            .map(|r| r.arity)
            .unwrap_or(0);
        for tuple in tuples_over(&base_reps, arity) {
            let mut next = Vec::new();
            for (c, sacc, aacc) in branches {
                let env: BTreeMap<Var, Sym> = rule
                    .vars
                    .iter()
                    .cloned()
                    .zip(tuple.iter().map(|&t| Sym::C(t)))
                    .collect();
                for (c2, fired) in eval_branching(&ctx, c, &env, &rule.body).0 {
                    let mut a2 = aacc.clone();
                    if fired {
                        a2.push((rel_id, tuple.clone(), true));
                    }
                    next.push((c2, sacc.clone(), a2));
                }
            }
            branches = next;
        }
    }

    // Finalize each branch: canonicalize accumulated facts, shift prev,
    // retire dead fresh symbols.
    let mut out = Vec::new();
    'branch: for (mut c, sacc, aacc) in branches {
        let mut state = BTreeSet::new();
        let mut decided: BTreeMap<(NameId, Vec<CSym>), bool> = BTreeMap::new();
        for reps in tuples_decisions(&sacc, &c) {
            let ((rel, tuple), member) = reps;
            match decided.insert((rel, tuple.clone()), member) {
                Some(old) if old != member => continue 'branch, // collapse conflict
                _ => {}
            }
            if member {
                state.insert((rel, tuple));
            }
        }
        // Memberships default to false: also check that collapsed
        // *positive* tuples don't meet implicit negatives — the map above
        // covers explicit entries; implicit false entries correspond to
        // tuples never pushed, which collapse conflicts are caught by
        // `SymConfig::assert` at merge time for previously-stored facts.
        let mut action = BTreeSet::new();
        for &(rel, ref tuple, member) in &aacc {
            let canon: Vec<CSym> = tuple.iter().map(|&t| c.st.find(t)).collect();
            if member {
                action.insert((rel, canon));
            }
        }
        c.state = Arc::new(state);
        c.action = Arc::new(action);

        // prev := current inputs of this page (arity > 0 only).
        let mut inputs = std::mem::take(&mut c.inputs);
        let mut prev = BTreeMap::new();
        for rel in &page.inputs {
            if let Some(r) = service.schema.relation(rel) {
                if r.arity > 0 {
                    let id = table.name_id(rel).expect("relations are interned");
                    if let Some(t) = inputs.remove(&id) {
                        prev.insert(id, t);
                    }
                }
            }
        }

        // Renumber live fresh symbols (those surviving in prev).
        let mut rename: BTreeMap<u16, u16> = BTreeMap::new();
        for t in prev.values() {
            for s in t {
                if let Sym::F(i) = s {
                    let n = rename.len() as u16;
                    rename.entry(*i).or_insert(n);
                }
            }
        }
        if c.st.has_local() {
            Arc::make_mut(&mut c.st).retire_fresh(&|i| rename.get(&i).copied());
        }
        for t in prev.values_mut() {
            for s in t.iter_mut() {
                if let Sym::F(i) = s {
                    *s = Sym::F(rename[i]);
                }
            }
        }
        c.prev = Arc::new(prev);
        c.n_fresh = rename.len() as u16;
        out.push(c);
    }
    out
}

fn tuples_decisions(
    acc: &[(NameId, Vec<CSym>, bool)],
    c: &SymConfig,
) -> Vec<((NameId, Vec<CSym>), bool)> {
    acc.iter()
        .map(|&(rel, ref tuple, member)| {
            let canon: Vec<CSym> = tuple.iter().map(|&t| c.st.find(t)).collect();
            ((rel, canon), member)
        })
        .collect()
}

fn tuples_over(reps: &[CSym], arity: usize) -> Vec<Vec<CSym>> {
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(out.len() * reps.len());
        for t in &out {
            for &r in reps {
                let mut u = t.clone();
                u.push(r);
                next.push(u);
            }
        }
        out = next;
    }
    out
}

/// Enters page `page_id` with the carried configuration: provisions input
/// constants (conditions (i)/(ii)), then branches over every input choice,
/// asserting option membership for chosen tuples.
fn enter_page(
    service: &Service,
    table: &CTable,
    mut cfg: SymConfig,
    page_id: NameId,
) -> Vec<SymConfig> {
    if page_id == table.error_page() {
        return vec![cfg.to_error(table)];
    }
    cfg.page = page_id;
    let page = service.page(table.name(page_id)).expect("defined page");

    // Condition (ii): re-request of a provided constant.
    let page_consts: Vec<CSym> = page
        .input_constants
        .iter()
        .filter_map(|c| table.const_sym(c))
        .collect();
    let rerequest = page_consts.iter().any(|c| cfg.is_provided(*c));
    if !rerequest {
        for c in &page_consts {
            cfg.provided.insert(*c);
        }
    }

    // Condition (i): a rule formula uses a still-unprovided constant.
    let missing = page.constants_used().into_iter().any(|c| {
        service.schema.constant(&c) == Some(ConstKind::Input)
            && table
                .const_sym(&c)
                .map(|s| !cfg.is_provided(s))
                .unwrap_or(true)
    });
    cfg.err_pending = rerequest || missing;

    // Input choices, relation by relation, in name order.
    let mut branches = vec![cfg];
    let mut inputs_sorted: Vec<NameId> = page
        .inputs
        .iter()
        .map(|rel| table.name_id(rel).expect("relations are interned"))
        .collect();
    inputs_sorted.sort();
    for rel_id in inputs_sorted {
        let rel = table.name(rel_id);
        let arity = service.schema.relation(rel).map(|r| r.arity).unwrap_or(0);
        let mut next = Vec::new();
        for c in branches {
            if arity == 0 {
                // Propositional input: free truth value.
                let mut c2 = c.clone();
                next.push(c);
                c2.inputs.insert(rel_id, Vec::new());
                next.push(c2);
                continue;
            }
            // The pick must come from the page's options. Options
            // unavailable (missing constant): per the concrete semantics
            // the option set is empty, so no tuple can be picked.
            let rule = if cfg_err_pending_blocks_options(&c) {
                None
            } else {
                page.input_rule(rel)
            };
            let Some(rule) = rule else {
                // No pick is the only choice.
                next.push(c);
                continue;
            };
            // No pick.
            next.push(c.clone());
            let n_eph = count_quantified(&rule.body);
            let ephemeral: Vec<Sym> = (0..n_eph as u16)
                .map(|i| Sym::F(EPHEMERAL_BASE + i))
                .collect();
            let ctx = Ctx {
                service,
                table,
                ephemeral,
            };
            // Every equality type for the picked tuple.
            for tuple in component_choices(&c, arity) {
                let mut c2 = c.clone();
                let max_fresh = tuple
                    .iter()
                    .filter_map(|s| match s {
                        Sym::F(i) => Some(*i + 1),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(c2.n_fresh);
                c2.n_fresh = c2.n_fresh.max(max_fresh);
                let env: BTreeMap<Var, Sym> = rule
                    .vars
                    .iter()
                    .cloned()
                    .zip(tuple.iter().copied())
                    .collect();
                c2.inputs.insert(rel_id, tuple);
                for (mut c3, ok) in eval_branching(&ctx, c2, &env, &rule.body).0 {
                    if !ok {
                        continue;
                    }
                    // Ephemeral witnesses die immediately; their database
                    // facts are realizable by globally fresh elements.
                    if c3.st.has_local() {
                        Arc::make_mut(&mut c3.st)
                            .retire_fresh(&|i| (i < EPHEMERAL_BASE).then_some(i));
                    }
                    next.push(c3);
                }
            }
        }
        branches = next;
    }
    branches.sort();
    branches.dedup();
    branches
}

fn cfg_err_pending_blocks_options(c: &SymConfig) -> bool {
    // entry_options in the concrete semantics yields an empty option set
    // when a rule needs a missing constant; err_pending covers both error
    // conditions, of which only (i) affects options. Being conservative
    // here only prunes runs that are headed to the error page anyway.
    c.err_pending
}

/// Candidate tuples for a picked input: every component is a `C`-class
/// representative, an existing live fresh symbol, or a new fresh symbol
/// (numbered in restricted-growth fashion so patterns are canonical).
fn component_choices(cfg: &SymConfig, arity: usize) -> Vec<Vec<Sym>> {
    let reps = cfg.st.reps();
    let mut out: Vec<(Vec<Sym>, u16)> = vec![(Vec::new(), cfg.n_fresh)];
    for _ in 0..arity {
        let mut next = Vec::new();
        for (t, next_new) in &out {
            for &r in &reps {
                let mut u = t.clone();
                u.push(Sym::C(r));
                next.push((u, *next_new));
            }
            // existing live fresh and earlier new-fresh in this tuple
            for i in 0..*next_new {
                let mut u = t.clone();
                u.push(Sym::F(i));
                next.push((u, *next_new));
            }
            // a brand-new fresh element
            let mut u = t.clone();
            u.push(Sym::F(*next_new));
            next.push((u, next_new + 1));
        }
        out = next;
    }
    out.into_iter().map(|(t, _)| t).collect()
}

fn count_quantified(f: &wave_logic::formula::Formula) -> usize {
    let mut n = 0;
    f.walk(&mut |g| {
        if let wave_logic::formula::Formula::Exists(vars, _)
        | wave_logic::formula::Formula::Forall(vars, _) = g
        {
            n += vars.len();
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::builder::ServiceBuilder;
    use wave_logic::parser::parse_property;

    fn id(t: &CTable, name: &str) -> NameId {
        t.name_id(name).unwrap()
    }

    fn toggle() -> (Service, CTable) {
        let mut b = ServiceBuilder::new("P");
        b.input_relation("go", 0)
            .page("P")
            .input_prop_on_page("go")
            .target("Q", "go")
            .page("Q")
            .input_prop_on_page("go")
            .target("P", "go");
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        let t = CTable::build(&s, &p);
        (s, t)
    }

    #[test]
    fn initial_configs_enumerate_prop_input() {
        let (s, t) = toggle();
        let inits = initial_configs(&s, &t);
        // go pressed or not
        assert_eq!(inits.len(), 2);
        let (p, go) = (id(&t, "P"), id(&t, "go"));
        assert!(inits.iter().all(|c| c.page == p));
        assert!(inits.iter().any(|c| c.inputs.contains_key(&go)));
        assert!(inits.iter().any(|c| !c.inputs.contains_key(&go)));
    }

    #[test]
    fn toggle_successors_move_pages() {
        let (s, t) = toggle();
        let inits = initial_configs(&s, &t);
        let go = id(&t, "go");
        let pressed = inits.iter().find(|c| c.inputs.contains_key(&go)).unwrap();
        let succs = successors(&s, &t, pressed);
        assert!(succs.iter().all(|c| c.page == id(&t, "Q")));
        let idle = inits.iter().find(|c| !c.inputs.contains_key(&go)).unwrap();
        let succs2 = successors(&s, &t, idle);
        assert!(succs2.iter().all(|c| c.page == id(&t, "P")));
    }

    fn login() -> (Service, CTable) {
        let mut b = ServiceBuilder::new("HP");
        b.database_relation("user", 2)
            .input_relation("button", 1)
            .state_prop("logged_in")
            .input_constant("name")
            .input_constant("password")
            .page("HP")
            .solicit_constant("name")
            .solicit_constant("password")
            .input_rule("button", &["x"], r#"x = "login""#)
            .insert_rule(
                "logged_in",
                &[],
                r#"user(name, password) & button("login")"#,
            )
            .target("CP", r#"user(name, password) & button("login")"#)
            .page("CP");
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        let t = CTable::build(&s, &p);
        (s, t)
    }

    #[test]
    fn login_reaches_cp_only_with_db_fact() {
        let (s, t) = login();
        let inits = initial_configs(&s, &t);
        // Some initial config presses login.
        let button = id(&t, "button");
        let pressed: Vec<_> = inits
            .iter()
            .filter(|c| c.inputs.contains_key(&button))
            .collect();
        assert!(!pressed.is_empty());
        let mut reached_cp = false;
        let mut stayed = false;
        for c in pressed {
            for s2 in successors(&s, &t, c) {
                match t.name(s2.page) {
                    "CP" => {
                        reached_cp = true;
                        // the branch assumed user(name, password)
                        assert!(s2.state.contains(&(id(&t, "logged_in"), vec![])));
                    }
                    "HP" => stayed = true,
                    other => panic!("unexpected page {other}"),
                }
            }
        }
        assert!(reached_cp, "a database with user(name,password) exists");
        assert!(stayed, "a database without the row exists");
    }

    #[test]
    fn rerequest_dooms_next_step() {
        let (s, t) = login();
        let inits = initial_configs(&s, &t);
        // Idle on HP: stay → re-entry re-requests name/password.
        let idle = inits
            .iter()
            .find(|c| !c.inputs.contains_key(&id(&t, "button")))
            .unwrap();
        let succs = successors(&s, &t, idle);
        let back_home: Vec<_> = succs.iter().filter(|c| c.page == id(&t, "HP")).collect();
        assert!(!back_home.is_empty());
        assert!(back_home.iter().all(|c| c.err_pending));
        for c in back_home {
            let nexts = successors(&s, &t, c);
            assert!(nexts.iter().all(|n| n.page == t.error_page()));
        }
    }

    #[test]
    fn options_constrain_picks() {
        // Input options require a database fact: picking forces the fact.
        let mut b = ServiceBuilder::new("P");
        b.database_relation("item", 1)
            .input_relation("pick", 1)
            .page("P")
            .input_rule("pick", &["y"], "item(y)");
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        let t = CTable::build(&s, &p);
        let inits = initial_configs(&s, &t);
        let (pick, item) = (id(&t, "pick"), id(&t, "item"));
        for c in &inits {
            if let Some(tuple) = c.inputs.get(&pick) {
                // the knowledge store must contain item(tuple) = true
                assert_eq!(
                    c.st.fact_status(item, tuple),
                    Some(true),
                    "picked tuples must satisfy the options rule"
                );
            }
        }
        // And both a fresh pick and a no-pick branch exist.
        assert!(inits.iter().any(|c| c.inputs.is_empty()));
        assert!(inits
            .iter()
            .any(|c| matches!(c.inputs.get(&pick).map(|t| t[0]), Some(Sym::F(0)))));
    }

    #[test]
    fn input_choice_siblings_share_their_fact_sets() {
        let mut b = ServiceBuilder::new("P");
        b.database_relation("item", 1)
            .input_relation("pick", 1)
            .state_prop("seen")
            .page("P")
            .input_rule("pick", &["y"], "item(y)");
        let s = b.build().unwrap();
        let p = parse_property("forall w . G true").unwrap();
        let t = CTable::build(&s, &p);
        let (pick, seen) = (id(&t, "pick"), id(&t, "seen"));
        let mut cfg = SymConfig::initial(&t);
        Arc::make_mut(&mut cfg.state).insert((seen, vec![]));
        Arc::make_mut(&mut cfg.action).insert((seen, vec![]));
        Arc::make_mut(&mut cfg.prev).insert(pick, vec![Sym::F(0)]);
        cfg.n_fresh = 1;
        let siblings = enter_page(&s, &t, cfg.clone(), id(&t, "P"));
        // No pick, the witness, the live fresh symbol and a new one.
        assert!(siblings.len() >= 4, "{}", siblings.len());
        for c in &siblings {
            assert!(Arc::ptr_eq(&c.state, &cfg.state));
            assert!(Arc::ptr_eq(&c.action, &cfg.action));
            assert!(Arc::ptr_eq(&c.prev, &cfg.prev));
        }
    }
}
