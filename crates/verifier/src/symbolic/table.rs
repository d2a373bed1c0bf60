//! The symbol set `C` of the Local-Run Lemma and the symbolic values.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use wave_core::service::Service;
use wave_logic::schema::{ConstKind, RelKind};
use wave_logic::temporal::Property;
use wave_logic::value::Value;

/// Index into the constant table.
pub type CSym = u16;

/// Dense id of a page or relation name. Ids are assigned in
/// lexicographic name order (see [`CTable`]), so comparing ids compares
/// names.
pub type NameId = u16;

/// A symbolic value: a `C`-symbol or a live fresh symbol (canonically
/// numbered per configuration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Sym {
    /// A member of the designated symbol set `C`.
    C(CSym),
    /// A fresh element introduced by a recent user input (or an ephemeral
    /// ∃FO witness); distinct from every `C`-symbol and from other fresh
    /// symbols with different ids.
    F(u16),
}

/// What a `C`-symbol denotes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CSymKind {
    /// A literal of the specification or property — fixed, pairwise
    /// distinct values.
    Literal(Value),
    /// A named database constant (interpretation chosen with the database).
    DbConst(String),
    /// An input constant (value provided by the user during the run).
    InputConst(String),
    /// A Skolem witness for a universally quantified property variable.
    Witness(String),
}

/// The designated symbol set `C`.
///
/// # Layout invariant: literals first
///
/// The literal symbols occupy the **prefix** `0..n_literals()` of the
/// table. Combined with the union–find convention that a class
/// representative is its smallest member, this makes "does this class
/// contain a literal, and which?" an O(1) question: a class contains a
/// literal iff its representative is one (see
/// `SymState::eq_status`).
///
/// # Name ids follow name order
///
/// The table also interns every page and relation name of the service
/// to a dense `NameId`, numbering the sorted name set `0, 1, 2, …`.
/// Configurations key pages, facts and inputs by these ids, and their
/// derived orderings are then exactly the orderings over the names —
/// which is what keeps successor order, and so every verdict byte,
/// independent of the representation.
#[derive(Clone, Debug, Default)]
pub struct CTable {
    syms: Vec<CSymKind>,
    /// Literals occupy `syms[0..n_literals]` (see the type-level
    /// invariant).
    n_literals: usize,
    /// Lookup indices: the `syms` scan they replace sits on the
    /// successor-generation hot path (every term resolution).
    by_literal: BTreeMap<Value, CSym>,
    by_const: BTreeMap<String, CSym>,
    by_witness: BTreeMap<String, CSym>,
    /// Interned page and relation names, sorted: `names[id]`.
    names: Vec<String>,
    /// Name → (id, relation kind if the name is a schema relation).
    by_name: BTreeMap<String, (NameId, Option<RelKind>)>,
    home: NameId,
    error_page: NameId,
}

impl CTable {
    /// Builds `C` from a service and a property: all literals, database
    /// constants, input constants, and one witness per property variable.
    pub fn build(service: &Service, property: &Property) -> CTable {
        let mut literals: BTreeSet<Value> = BTreeSet::new();
        for page in service.pages.values() {
            for (body, _) in page.all_bodies() {
                literals.extend(body.literals_used());
            }
        }
        for comp in property.body.fo_components() {
            literals.extend(comp.literals_used());
        }
        let mut syms = Vec::new();
        for v in literals {
            syms.push(CSymKind::Literal(v));
        }
        let n_literals = syms.len();
        for (name, kind) in service.schema.constants() {
            match kind {
                ConstKind::Database => syms.push(CSymKind::DbConst(name.to_string())),
                ConstKind::Input => syms.push(CSymKind::InputConst(name.to_string())),
            }
        }
        for v in &property.vars {
            syms.push(CSymKind::Witness(v.clone()));
        }
        let mut by_literal = BTreeMap::new();
        let mut by_const = BTreeMap::new();
        let mut by_witness = BTreeMap::new();
        for (i, kind) in syms.iter().enumerate() {
            match kind {
                CSymKind::Literal(v) => {
                    by_literal.insert(v.clone(), i as CSym);
                }
                CSymKind::DbConst(n) | CSymKind::InputConst(n) => {
                    by_const.insert(n.clone(), i as CSym);
                }
                CSymKind::Witness(v) => {
                    by_witness.insert(v.clone(), i as CSym);
                }
            }
        }
        // Every name a configuration can carry: schema relations (pages
        // included), page schemas, navigation targets, home and error
        // page. A BTreeSet gives the lexicographic numbering.
        let mut name_set: BTreeSet<&str> = service
            .schema
            .relations()
            .map(|r| r.name.as_str())
            .collect();
        name_set.extend(service.page_names());
        name_set.extend(
            service
                .pages
                .values()
                .flat_map(|p| p.target_rules.iter().map(|r| r.target.as_str())),
        );
        name_set.insert(&service.home);
        name_set.insert(&service.error_page);
        assert!(
            name_set.len() <= NameId::MAX as usize,
            "more page and relation names than name ids"
        );
        let names: Vec<String> = name_set.into_iter().map(str::to_string).collect();
        let by_name: BTreeMap<String, (NameId, Option<RelKind>)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let kind = service.schema.relation(n).map(|r| r.kind);
                (n.clone(), (i as NameId, kind))
            })
            .collect();
        let home = by_name[&service.home].0;
        let error_page = by_name[&service.error_page].0;
        CTable {
            syms,
            n_literals,
            by_literal,
            by_const,
            by_witness,
            names,
            by_name,
            home,
            error_page,
        }
    }

    /// Number of literal symbols; they occupy indices `0..n_literals()`.
    pub fn n_literals(&self) -> usize {
        self.n_literals
    }

    /// Number of symbols in `C`.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when `C` is empty.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// The kind of a symbol.
    pub fn kind(&self, s: CSym) -> &CSymKind {
        &self.syms[s as usize]
    }

    /// The literal value of a symbol, if it is a literal.
    pub fn literal(&self, s: CSym) -> Option<&Value> {
        match self.kind(s) {
            CSymKind::Literal(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up the symbol for a literal value.
    pub fn literal_sym(&self, v: &Value) -> Option<CSym> {
        self.by_literal.get(v).copied()
    }

    /// Looks up the symbol for a named constant (database or input).
    pub fn const_sym(&self, name: &str) -> Option<CSym> {
        self.by_const.get(name).copied()
    }

    /// Looks up the witness symbol for a property variable.
    pub fn witness_sym(&self, var: &str) -> Option<CSym> {
        self.by_witness.get(var).copied()
    }

    /// The id of an interned page or relation name.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.by_name.get(name).map(|&(id, _)| id)
    }

    /// The id and schema kind of a relation name.
    pub fn relation(&self, name: &str) -> Option<(NameId, RelKind)> {
        match self.by_name.get(name) {
            Some(&(id, Some(kind))) => Some((id, kind)),
            _ => None,
        }
    }

    /// The name behind an id.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id as usize]
    }

    /// The home page's id.
    pub fn home(&self) -> NameId {
        self.home
    }

    /// The error page's id.
    pub fn error_page(&self) -> NameId {
        self.error_page
    }

    /// True when the symbol is an input constant.
    pub fn is_input_const(&self, s: CSym) -> bool {
        matches!(self.kind(s), CSymKind::InputConst(_))
    }

    /// Renders a symbol for diagnostics.
    pub fn render(&self, s: Sym) -> String {
        match s {
            Sym::F(i) => format!("✶{i}"),
            Sym::C(c) => match self.kind(c) {
                CSymKind::Literal(v) => format!("{v:?}"),
                CSymKind::DbConst(n) => format!("@{n}"),
                CSymKind::InputConst(n) => format!("?{n}"),
                CSymKind::Witness(v) => format!("${v}"),
            },
        }
    }
}

impl fmt::Display for CTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C = {{")?;
        for i in 0..self.syms.len() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.render(Sym::C(i as CSym)))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::builder::ServiceBuilder;
    use wave_logic::parser::parse_property;

    #[test]
    fn table_collects_all_symbol_sources() {
        let mut b = ServiceBuilder::new("HP");
        b.database_relation("user", 2)
            .database_constant("min")
            .input_constant("name")
            .input_relation("button", 1)
            .page("HP")
            .solicit_constant("name")
            .input_rule("button", &["x"], r#"x = "login" | x = "clear""#);
        let s = b.build().unwrap();
        let p = parse_property("forall pid . G !ship(pid)").unwrap();
        let t = CTable::build(&s, &p);
        assert!(t.literal_sym(&Value::str("login")).is_some());
        assert!(t.literal_sym(&Value::str("clear")).is_some());
        assert!(t.const_sym("min").is_some());
        assert!(t.const_sym("name").is_some());
        assert!(t.witness_sym("pid").is_some());
        assert_eq!(t.len(), 5);
        let name = t.const_sym("name").unwrap();
        assert!(t.is_input_const(name));
        assert!(!t.is_input_const(t.const_sym("min").unwrap()));
    }

    #[test]
    fn rendering() {
        let mut b = ServiceBuilder::new("HP");
        b.input_relation("button", 1)
            .page("HP")
            .input_rule("button", &["x"], r#"x = "go""#);
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        let t = CTable::build(&s, &p);
        let go = t.literal_sym(&Value::str("go")).unwrap();
        assert_eq!(t.render(Sym::C(go)), "\"go\"");
        assert_eq!(t.render(Sym::F(2)), "✶2");
    }

    #[test]
    fn name_ids_follow_name_order() {
        let mut b = ServiceBuilder::new("home");
        b.state_prop("zeta")
            .state_prop("alpha")
            .input_relation("mid", 0)
            .page("home")
            .input_prop_on_page("mid")
            .target("away", "mid")
            .page("away");
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        let t = CTable::build(&s, &p);
        let names = [
            "alpha",
            "away",
            "home",
            "mid",
            "zeta",
            s.error_page.as_str(),
        ];
        for a in names {
            let ia = t.name_id(a).unwrap();
            assert_eq!(t.name(ia), a);
            for b in names {
                let ib = t.name_id(b).unwrap();
                assert_eq!(ia.cmp(&ib), a.cmp(b), "{a} vs {b}");
            }
        }
        assert_eq!(t.name(t.home()), "home");
        assert_eq!(t.name(t.error_page()), s.error_page);
        assert_eq!(t.relation("zeta").map(|(_, k)| k), Some(RelKind::State));
        assert_eq!(t.name_id("nope"), None);
    }
}
