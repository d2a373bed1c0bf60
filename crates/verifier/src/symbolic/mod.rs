//! Symbolic LTL-FO verification of input-bounded Web services
//! (Theorem 3.5).
//!
//! The paper proves decidability by reducing to finite satisfiability of
//! E+TC formulas; the underlying combinatorics are Spielmann's **Local-Run
//! Lemma** (only the restriction of states/actions to a designated finite
//! symbol set `C` matters) and **Periodic-Run Lemma** (a violating run
//! exists iff a *periodic* one does). We implement those lemmas directly
//! as an on-the-fly search — the architecture the authors themselves chose
//! for their WAVE prototype:
//!
//! * **Symbol set `C`** (`table`): the literals of the specification and
//!   property, the database constants, the input constants, and one Skolem
//!   witness per universally quantified property variable.
//! * **Symbolic configurations** (`config`): current page, provided
//!   constants, state/action facts restricted to `C`, the current and
//!   previous input tuples (components are `C`-symbols or canonically
//!   numbered fresh symbols), plus the accumulated knowledge about the
//!   existentially quantified database: an equality partition of `C` with
//!   disequalities, persistent database literals over `C`, and *local*
//!   literals mentioning live fresh symbols (`state`).
//! * **Branching evaluation** (`eval`): a database literal or a
//!   `C`-equality not yet decided forks the search; the knowledge store
//!   grows monotonically along a path, so the space is finite.
//! * **Successor generation** (`step`): Definition 2.3 transposed to
//!   symbols — option satisfaction asserts ∃FO facts with ephemeral
//!   witnesses, the three error conditions route to the error page, state
//!   update uses conflict-no-op semantics on `C`-tuples, and input
//!   freshness exploits the one-step `prev` window (exactly what breaks
//!   for lossless input, Theorem 3.9).
//! * **The product search** (`engine`): the negated property becomes a
//!   Büchi automaton over its FO components; nested DFS hunts for an
//!   accepting lasso — a symbolic pseudo-run that, by construction, is
//!   realizable by a concrete database and user behaviour.
//!
//! Soundness and completeness (relative to the paper's theorems) are
//! cross-checked against the enumerative verifier in the integration
//! tests.

mod bits;
mod config;
mod engine;
mod eval;
mod state;
mod step;
mod subsume;
mod table;

pub use config::SymConfig;
pub use engine::{
    buchi_key, is_error_free, lasso_replays, verify_ltl, CancelToken, SearchStats, SymbolicError,
    SymbolicOptions, Verdict, VerifyOutcome, DEFAULT_NODE_LIMIT,
};
pub use table::{CTable, Sym};
