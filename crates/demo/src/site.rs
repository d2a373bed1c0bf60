//! The Figure 2 e-commerce Web service.
//!
//! All nineteen pages of the WAVE demo, reconstructed from Figure 2 and
//! the rules printed in Example 2.2 (pages HP and LSP verbatim; the rest
//! from the figure's links and buttons). The whole specification is
//! **input-bounded** — the one delicate spot, the product-index page
//! whose options depend on the previous search, uses a `prev` atom
//! (`∃r h d (prev_laptopsearch(r,h,d) ∧ laptop(p,r,h,d))`) exactly as the
//! paper advertises (`prev` relations are "very useful when defining
//! tractable restrictions", §2).
//!
//! Page inventory (names as in Figure 2):
//!
//! | page | role |
//! |---|---|
//! | HP | home: login / register / clear |
//! | NP | new-user registration form |
//! | RP | successful registration |
//! | MP | error message (failed login) |
//! | CP | customer page: search links, cart, logout |
//! | AP | administrator page |
//! | DSP / LSP | desktop / laptop search forms |
//! | PIP | product index (search results) |
//! | PP | product detail: add to cart |
//! | CC | cart contents: buy / empty |
//! | UPP | payment: amount + authorize |
//! | COP | order confirmation |
//! | POP | pending orders (admin) |
//! | VOP | view order |
//! | OSP | order status |
//! | SCP | shipment confirmation |
//! | CCP | cancel confirmation |
//! | DCP | deletion confirmation |

use wave_core::builder::ServiceBuilder;
use wave_core::provenance::ServiceSources;
use wave_core::service::Service;

/// Builds the full Figure 2 site.
pub fn full_site() -> Service {
    full_site_builder()
        .build()
        .expect("the Figure 2 site must validate")
}

/// [`full_site`] plus the rule sources recorded during parsing, for
/// span-carrying diagnostics (`wave-lint`).
pub fn full_site_with_sources() -> (Service, ServiceSources) {
    full_site_builder()
        .build_with_sources()
        .expect("the Figure 2 site must validate")
}

fn full_site_builder() -> ServiceBuilder {
    let mut b = ServiceBuilder::new("HP");
    // ---- database schema (see `catalog`) ----
    b.database_relation("user", 2)
        .database_relation("criteria", 3)
        .database_relation("prod_prices", 2)
        .database_relation("prod_names", 2)
        .database_relation("laptop", 4)
        .database_relation("desktop", 4)
        // ---- input constants ----
        .input_constant("name")
        .input_constant("password")
        .input_constant("new_name")
        .input_constant("new_password")
        .input_constant("card")
        // ---- inputs ----
        .input_relation("button", 1)
        .input_relation("laptopsearch", 3)
        .input_relation("desktopsearch", 3)
        .input_relation("pickprod", 2)
        .input_relation("pay", 1)
        // ---- states ----
        .state_relation("error", 1)
        .state_prop("logged_in")
        .state_prop("registered")
        .state_relation("userchoice", 3)
        .state_relation("cart", 2)
        .state_relation("pick", 2)
        .state_relation("pick_pid", 1)
        .state_relation("pick_price", 1)
        .state_prop("paid")
        .state_prop("order_pending")
        .state_prop("order_shipped")
        .state_prop("order_cancelled")
        // ---- actions ----
        .action_relation("conf", 2)
        .action_relation("ship", 2)
        .action_relation("cancel", 2);

    // ---------------- HP — verbatim from Example 2.2 ----------------
    b.page("HP")
        .solicit_constant("name")
        .solicit_constant("password")
        .input_rule(
            "button",
            &["x"],
            r#"x = "login" | x = "register" | x = "clear""#,
        )
        .insert_rule(
            "error",
            &["e"],
            r#"e = "failed login" & !user(name, password) & button("login")"#,
        )
        .insert_rule(
            "logged_in",
            &[],
            r#"user(name, password) & button("login")"#,
        )
        .target("HP", r#"button("clear")"#)
        .target("NP", r#"button("register")"#)
        .target(
            "CP",
            r#"user(name, password) & button("login") & name != "Admin""#,
        )
        .target(
            "AP",
            r#"user(name, password) & button("login") & name = "Admin""#,
        )
        .target("MP", r#"!user(name, password) & button("login")"#);

    // ---------------- NP — new user registration ----------------
    b.page("NP")
        .solicit_constant("new_name")
        .solicit_constant("new_password")
        .input_rule("button", &["x"], r#"x = "register" | x = "cancel""#)
        .insert_rule("registered", &[], r#"button("register")"#)
        .insert_rule("logged_in", &[], r#"button("register")"#)
        .target("RP", r#"button("register")"#)
        .target("HP", r#"button("cancel")"#);

    // ---------------- RP — successful registration ----------------
    b.page("RP")
        .input_rule("button", &["x"], r#"x = "continue" | x = "logout""#)
        .target("CP", r#"button("continue")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- MP — error message page ----------------
    b.page("MP")
        .input_rule("button", &["x"], r#"x = "back""#)
        .delete_rule("error", &["e"], r#"e = "failed login" & button("back")"#)
        .target("HP", r#"button("back")"#);

    // ---------------- CP — customer page ----------------
    b.page("CP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "desktop" | x = "laptop" | x = "view cart" | x = "logout""#,
        )
        .target("DSP", r#"button("desktop")"#)
        .target("LSP", r#"button("laptop")"#)
        .target("CC", r#"button("view cart")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- AP — administrator page ----------------
    b.page("AP")
        .input_rule("button", &["x"], r#"x = "order" | x = "logout""#)
        .target("POP", r#"button("order")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- LSP — verbatim from Example 2.2 ----------------
    b.page("LSP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "search" | x = "view cart" | x = "logout""#,
        )
        .input_rule(
            "laptopsearch",
            &["r", "h", "d"],
            r#"criteria("laptop", "ram", r) & criteria("laptop", "hdd", h) & criteria("laptop", "display", d)"#,
        )
        .insert_rule(
            "userchoice",
            &["r", "h", "d"],
            r#"laptopsearch(r, h, d) & button("search")"#,
        )
        .target("HP", r#"button("logout")"#)
        .target(
            "PIP",
            r#"(exists r h d . laptopsearch(r, h, d)) & button("search")"#,
        )
        .target("CC", r#"button("view cart")"#);

    // ---------------- DSP — mirror of LSP for desktops ----------------
    b.page("DSP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "search" | x = "view cart" | x = "logout""#,
        )
        .input_rule(
            "desktopsearch",
            &["r", "h", "d"],
            r#"criteria("desktop", "ram", r) & criteria("desktop", "hdd", h) & criteria("desktop", "display", d)"#,
        )
        .insert_rule(
            "userchoice",
            &["r", "h", "d"],
            r#"desktopsearch(r, h, d) & button("search")"#,
        )
        .target("HP", r#"button("logout")"#)
        .target(
            "PIP",
            r#"(exists r h d . desktopsearch(r, h, d)) & button("search")"#,
        )
        .target("CC", r#"button("view cart")"#);

    // ---------------- PIP — product index (search results) ----------------
    // The matching products: the previous step's search parameters come in
    // through prev_laptopsearch / prev_desktopsearch — the input-bounded
    // way to thread values between pages.
    b.page("PIP")
        .input_rule(
            "pickprod",
            &["p", "pr"],
            r#"((exists r h d . (prev_laptopsearch(r, h, d) & laptop(p, r, h, d)))
               | (exists r h d . (prev_desktopsearch(r, h, d) & desktop(p, r, h, d))))
              & prod_prices(p, pr)"#,
        )
        .input_rule(
            "button",
            &["x"],
            r#"x = "view cart" | x = "continue" | x = "logout""#,
        )
        .insert_rule("pick", &["p", "pr"], "pickprod(p, pr)")
        .insert_rule("pick_pid", &["p"], "exists pr . pickprod(p, pr)")
        .insert_rule("pick_price", &["pr"], "exists p . pickprod(p, pr)")
        .target("PP", "exists p pr . pickprod(p, pr)")
        .target("CC", r#"button("view cart")"#)
        .target("CP", r#"button("continue")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- PP — product detail ----------------
    b.page("PP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "add to cart" | x = "back" | x = "view cart""#,
        )
        .insert_rule(
            "cart",
            &["p", "pr"],
            r#"pick(p, pr) & button("add to cart")"#,
        )
        .target("CC", r#"button("add to cart") | button("view cart")"#)
        .target("CP", r#"button("back")"#);

    // ---------------- CC — cart contents ----------------
    b.page("CC")
        .input_rule(
            "button",
            &["x"],
            r#"x = "buy" | x = "empty cart" | x = "continue" | x = "logout""#,
        )
        .delete_rule(
            "cart",
            &["p", "pr"],
            r#"cart(p, pr) & button("empty cart")"#,
        )
        .target("UPP", r#"button("buy")"#)
        .target("CP", r#"button("continue") | button("empty cart")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- UPP — user payment ----------------
    b.page("UPP")
        .solicit_constant("card")
        .input_rule("pay", &["a"], "exists p . prod_prices(p, a)")
        .input_rule("button", &["x"], r#"x = "authorize payment" | x = "back""#)
        .insert_rule("paid", &[], r#"button("authorize payment")"#)
        .insert_rule("order_pending", &[], r#"button("authorize payment")"#)
        .action_rule(
            "conf",
            &["u", "a"],
            r#"u = name & pay(a) & pick_price(a) & button("authorize payment")"#,
        )
        .target("COP", r#"button("authorize payment")"#)
        .target("CC", r#"button("back")"#);

    // ---------------- COP — order confirmation ----------------
    b.page("COP")
        .input_rule("button", &["x"], r#"x = "continue" | x = "logout""#)
        .target("CP", r#"button("continue")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- POP — pending orders (admin) ----------------
    b.page("POP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "ship" | x = "view" | x = "back" | x = "logout""#,
        )
        .insert_rule("order_shipped", &[], r#"order_pending & button("ship")"#)
        .action_rule(
            "ship",
            &["u", "p"],
            r#"u = name & pick_pid(p) & order_pending & button("ship")"#,
        )
        .target("SCP", r#"order_pending & button("ship")"#)
        .target("VOP", r#"button("view")"#)
        .target("AP", r#"button("back")"#)
        .target("HP", r#"button("logout")"#);

    // ---------------- VOP — view order ----------------
    b.page("VOP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "delete" | x = "status" | x = "back""#,
        )
        .target("DCP", r#"button("delete")"#)
        .target("OSP", r#"button("status")"#)
        .target("POP", r#"button("back")"#);

    // ---------------- OSP — order status ----------------
    b.page("OSP")
        .input_rule("button", &["x"], r#"x = "cancel" | x = "back""#)
        .insert_rule(
            "order_cancelled",
            &[],
            r#"order_pending & button("cancel")"#,
        )
        .delete_rule("order_pending", &[], r#"button("cancel")"#)
        .action_rule(
            "cancel",
            &["u", "p"],
            r#"u = name & pick_pid(p) & button("cancel")"#,
        )
        .target("CCP", r#"button("cancel")"#)
        .target("VOP", r#"button("back")"#);

    // ---------------- SCP / CCP / DCP — confirmations ----------------
    b.page("SCP")
        .input_rule("button", &["x"], r#"x = "back" | x = "logout""#)
        .target("POP", r#"button("back")"#)
        .target("HP", r#"button("logout")"#);
    b.page("CCP")
        .input_rule("button", &["x"], r#"x = "back" | x = "logout""#)
        .target("OSP", r#"button("back")"#)
        .target("HP", r#"button("logout")"#);
    b.page("DCP")
        .input_rule("button", &["x"], r#"x = "back" | x = "logout""#)
        .target("VOP", r#"button("back")"#)
        .target("HP", r#"button("logout")"#);

    b
}

/// A trimmed, fast-to-verify *checkout core*: CP → UPP → COP with a
/// single-slot pick state — sized for the symbolic verifier (the full
/// site is also input-bounded, but its symbol set makes the PSPACE search
/// expensive; see EXPERIMENTS.md).
pub fn checkout_core() -> Service {
    checkout_core_builder()
        .build()
        .expect("checkout core must validate")
}

/// [`checkout_core`] plus recorded rule sources.
pub fn checkout_core_with_sources() -> (Service, ServiceSources) {
    checkout_core_builder()
        .build_with_sources()
        .expect("checkout core must validate")
}

fn checkout_core_builder() -> ServiceBuilder {
    let mut b = ServiceBuilder::new("CP");
    b.database_relation("prod_prices", 2)
        .input_relation("button", 1)
        .input_relation("pickprod", 1)
        .state_relation("pick_pid", 1)
        .state_prop("paid")
        .action_relation("ship", 1);

    b.page("CP")
        .input_rule("pickprod", &["p"], "exists a . prod_prices(p, a)")
        // single-slot pick: a new choice replaces the previous one
        .insert_rule("pick_pid", &["p"], "pickprod(p)")
        .delete_rule(
            "pick_pid",
            &["p"],
            "pick_pid(p) & exists q . (pickprod(q) & q != p)",
        )
        .target("UPP", "exists p . pickprod(p)");

    b.page("UPP")
        .input_rule("button", &["x"], r#"x = "authorize payment" | x = "back""#)
        .insert_rule("paid", &[], r#"button("authorize payment")"#)
        .action_rule(
            "ship",
            &["p"],
            r#"pick_pid(p) & button("authorize payment")"#,
        )
        .target("COP", r#"button("authorize payment")"#)
        .target("CP", r#"button("back")"#);

    b.page("COP")
        .input_rule("button", &["x"], r#"x = "continue""#)
        .target("CP", r#"button("continue")"#);

    b
}

/// How many independent toggle flags [`checkout_bench`] layers on top of
/// the checkout core. Each flag doubles the reachable symbolic state
/// space, so the bench service explores ~2^k× the configurations of
/// [`checkout_core`] while keeping the same per-node successor shape.
const BENCH_TOGGLES: usize = 2;

/// A scaled-up checkout for `bench_symbolic`: the [`checkout_core`]
/// page graph plus `BENCH_TOGGLES` independent toggle flags flipped
/// from CP. The checkout core saturates around 3k interned
/// configurations — too small for thread-scaling measurements, where
/// per-run setup dominates the search. The flags multiply the state
/// space combinatorially without changing the service's decidable class
/// or the Fig. 2 payment-safety verdict.
pub fn checkout_bench() -> Service {
    checkout_bench_builder()
        .build()
        .expect("checkout bench must validate")
}

/// [`checkout_bench`] plus recorded rule sources.
pub fn checkout_bench_with_sources() -> (Service, ServiceSources) {
    checkout_bench_builder()
        .build_with_sources()
        .expect("checkout bench must validate")
}

fn checkout_bench_builder() -> ServiceBuilder {
    let mut b = checkout_core_builder();
    let toggles: Vec<(String, String)> = (0..BENCH_TOGGLES)
        .map(|i| (format!("tog{i}"), format!("flag{i}")))
        .collect();
    for (tog, flag) in &toggles {
        b.input_relation(tog, 0).state_prop(flag);
    }
    // Re-open CP: each visit may flip any subset of the flags, so the
    // reachable state space gains a full 2^k propositional cube.
    b.page("CP");
    for (tog, flag) in &toggles {
        b.input_prop_on_page(tog)
            .insert_rule(flag, &[], &format!("{tog} & !{flag}"))
            .delete_rule(flag, &[], &format!("{tog} & {flag}"));
    }
    b
}

/// A deliberately flawed *audit site*: a working login → dashboard flow
/// carrying intentional dead logic, hand-modeled as the slicing/lint
/// exercise (first entry of the flawed-service corpus, ROADMAP item 4).
///
/// The dead logic, all invisible to any property over the live flow:
///
/// * an `ADMIN` page no target rule reaches (W012/W023) — its rules,
///   including a `grant` action, can never fire;
/// * a write-only `audited` state relation recording logins and
///   dashboard refreshes that no rule body reads (W010/W024);
/// * a `reason` input solicited only on the dead admin page (W025).
///
/// The service is input-bounded, so the symbolic engine admits it, and
/// property-directed slicing removes all three families wholesale.
pub fn audit_site() -> Service {
    audit_site_builder()
        .build()
        .expect("audit site must validate")
}

/// [`audit_site`] plus recorded rule sources.
pub fn audit_site_with_sources() -> (Service, ServiceSources) {
    audit_site_builder()
        .build_with_sources()
        .expect("audit site must validate")
}

fn audit_site_builder() -> ServiceBuilder {
    let mut b = ServiceBuilder::new("HP");
    b.database_relation("user", 2)
        .input_relation("button", 1)
        .input_relation("reason", 1)
        .state_prop("logged_in")
        .state_prop("audited")
        .action_prop("greet")
        .action_prop("grant")
        .input_constant("name")
        .input_constant("password");

    b.page("HP")
        .solicit_constant("name")
        .solicit_constant("password")
        .input_rule("button", &["x"], r#"x = "login" | x = "clear""#)
        .insert_rule(
            "logged_in",
            &[],
            r#"user(name, password) & button("login")"#,
        )
        // Audit every login attempt — but nothing ever reads `audited`.
        .insert_rule("audited", &[], r#"button("login")"#)
        .target("DASH", r#"user(name, password) & button("login")"#)
        .target("HP", r#"!user(name, password)"#);

    b.page("DASH")
        .input_rule("button", &["x"], r#"x = "refresh" | x = "logout""#)
        .insert_rule("audited", &[], r#"button("refresh")"#)
        .delete_rule("logged_in", &[], r#"button("logout")"#)
        .action_rule("greet", &[], "logged_in")
        .target("HP", r#"button("logout")"#)
        .target("DASH", r#"button("refresh")"#);

    // The admin page exists in the spec but no target rule points at it:
    // every rule below is dead, and `reason` is never consumable.
    b.page("ADMIN")
        .input_rule("reason", &["x"], r#"x = "maintenance" | x = "ban""#)
        .delete_rule("audited", &[], r#"reason("maintenance")"#)
        .action_rule("grant", &[], "logged_in")
        .target("HP", "true");

    b
}

/// The propositional navigation abstraction of Example 4.3: the same page
/// graph with all non-input atoms abstracted away (database lookups
/// replaced by a free `lookup_ok` input proposition, so both outcomes stay
/// reachable), states propositional. Suitable for the Theorem 4.4 / 4.6
/// verifiers.
pub fn navigation_abstraction() -> Service {
    navigation_abstraction_builder()
        .build()
        .expect("navigation abstraction must validate")
}

/// [`navigation_abstraction`] plus recorded rule sources.
pub fn navigation_abstraction_with_sources() -> (Service, ServiceSources) {
    navigation_abstraction_builder()
        .build_with_sources()
        .expect("navigation abstraction must validate")
}

fn navigation_abstraction_builder() -> ServiceBuilder {
    let mut b = ServiceBuilder::new("HP");
    b.input_relation("button", 1)
        .input_relation("lookup_ok", 0)
        .input_relation("is_admin", 0)
        .state_prop("logged_in")
        .state_prop("paid");

    b.page("HP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "login" | x = "register" | x = "clear""#,
        )
        .input_prop_on_page("lookup_ok")
        .input_prop_on_page("is_admin")
        .insert_rule("logged_in", &[], r#"lookup_ok & button("login")"#)
        .target("HP", r#"button("clear")"#)
        .target("NP", r#"button("register")"#)
        .target("CP", r#"lookup_ok & button("login") & !is_admin"#)
        .target("AP", r#"lookup_ok & button("login") & is_admin"#)
        .target("MP", r#"!lookup_ok & button("login")"#);

    b.page("NP")
        .input_rule("button", &["x"], r#"x = "register" | x = "cancel""#)
        .insert_rule("logged_in", &[], r#"button("register")"#)
        .target("RP", r#"button("register")"#)
        .target("HP", r#"button("cancel")"#);

    b.page("RP")
        .input_rule("button", &["x"], r#"x = "continue" | x = "logout""#)
        .delete_rule("logged_in", &[], r#"button("logout")"#)
        .target("CP", r#"button("continue")"#)
        .target("HP", r#"button("logout")"#);

    b.page("MP")
        .input_rule("button", &["x"], r#"x = "back""#)
        .target("HP", r#"button("back")"#);

    b.page("CP")
        .input_rule(
            "button",
            &["x"],
            r#"x = "search" | x = "view cart" | x = "logout""#,
        )
        .delete_rule("logged_in", &[], r#"button("logout")"#)
        .target("LSP", r#"button("search")"#)
        .target("CC", r#"button("view cart")"#)
        .target("HP", r#"button("logout")"#);

    b.page("AP")
        .input_rule("button", &["x"], r#"x = "logout""#)
        .delete_rule("logged_in", &[], r#"button("logout")"#)
        .target("HP", r#"button("logout")"#);

    b.page("LSP")
        .input_rule("button", &["x"], r#"x = "search" | x = "logout""#)
        .target("PIP", r#"button("search")"#)
        .target("HP", r#"button("logout")"#);

    b.page("PIP")
        .input_rule("button", &["x"], r#"x = "pick" | x = "continue""#)
        .target("PP", r#"button("pick")"#)
        .target("CP", r#"button("continue")"#);

    b.page("PP")
        .input_rule("button", &["x"], r#"x = "add to cart" | x = "back""#)
        .target("CC", r#"button("add to cart")"#)
        .target("CP", r#"button("back")"#);

    b.page("CC")
        .input_rule("button", &["x"], r#"x = "buy" | x = "continue""#)
        .target("UPP", r#"button("buy")"#)
        .target("CP", r#"button("continue")"#);

    b.page("UPP")
        .input_rule("button", &["x"], r#"x = "authorize payment" | x = "back""#)
        .insert_rule("paid", &[], r#"button("authorize payment")"#)
        .target("COP", r#"button("authorize payment")"#)
        .target("CC", r#"button("back")"#);

    b.page("COP")
        .input_rule("button", &["x"], r#"x = "continue" | x = "logout""#)
        .delete_rule("logged_in", &[], r#"button("logout")"#)
        .target("CP", r#"button("continue")"#)
        .target("HP", r#"button("logout")"#);

    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use wave_core::classify;
    use wave_core::run::{InputChoice, Runner};
    use wave_logic::tuple;

    #[test]
    fn full_site_validates_and_is_input_bounded() {
        let s = full_site();
        assert_eq!(s.pages.len(), 19, "all Figure 2 pages");
        let violations = classify::input_bounded_violations(&s);
        assert!(
            violations.is_empty(),
            "the reconstruction is input-bounded: {violations:?}"
        );
    }

    #[test]
    fn checkout_bench_is_input_bounded_and_keeps_the_core_shape() {
        let s = checkout_bench();
        assert!(classify::input_bounded_violations(&s).is_empty());
        // Same page graph as the core, plus the toggle vocabulary.
        assert_eq!(s.pages.len(), checkout_core().pages.len());
    }

    #[test]
    fn checkout_core_and_abstraction_classify() {
        assert!(classify::input_bounded_violations(&checkout_core()).is_empty());
        let nav = navigation_abstraction();
        assert!(classify::is_propositional(&nav), "Theorem 4.4 class");
        // `button` stays parameterized ("inputs can still be parameterized
        // in a propositional Web service", §4), so it is not *fully*
        // propositional.
        assert!(!classify::is_fully_propositional(&nav));
    }

    /// The running example's end-to-end scenario: login, search laptops,
    /// pick one, add to cart, buy, authorize payment.
    #[test]
    fn full_purchase_scenario() {
        let s = full_site();
        let db = catalog::tiny();
        let r = Runner::new(&s, &db);

        // σ0: HP, login as alice.
        let c = r
            .initial(
                &InputChoice::empty()
                    .with_constant("name", "alice")
                    .with_constant("password", "pw1")
                    .with_tuple("button", tuple!["login"]),
            )
            .unwrap();
        assert_eq!(c.page, "HP");

        // σ1: CP; go to laptop search.
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["laptop"]),
            )
            .unwrap();
        assert_eq!(c.page, "CP");
        assert!(c.state.prop("logged_in"));

        // σ2: LSP; search 8gb/1tb/13in.
        let c = r
            .step(
                &c,
                &InputChoice::empty()
                    .with_tuple("laptopsearch", tuple!["8gb", "1tb", "13in"])
                    .with_tuple("button", tuple!["search"]),
            )
            .unwrap();
        assert_eq!(c.page, "LSP");

        // σ3: PIP; the search result p1 is offered (via prev_laptopsearch).
        let core = r.transition_core(&c).unwrap();
        assert_eq!(core.page, "PIP");
        let opts = r
            .entry_options(s.page("PIP").unwrap(), &core.state, &core.prev, &c.provided)
            .unwrap();
        assert!(opts["pickprod"].contains(&tuple!["p1", 999]));
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("pickprod", tuple!["p1", 999]),
            )
            .unwrap();
        assert_eq!(c.page, "PIP");
        assert!(c
            .state
            .contains("userchoice", &tuple!["8gb", "1tb", "13in"]));

        // σ4: PP; add to cart.
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["add to cart"]),
            )
            .unwrap();
        assert_eq!(c.page, "PP");
        assert!(c.state.contains("pick", &tuple!["p1", 999]));

        // σ5: CC; buy.
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["buy"]),
            )
            .unwrap();
        assert_eq!(c.page, "CC");
        assert!(c.state.contains("cart", &tuple!["p1", 999]));

        // σ6: UPP; pay the right amount and authorize.
        let c = r
            .step(
                &c,
                &InputChoice::empty()
                    .with_constant("card", "4242")
                    .with_tuple("pay", tuple![999])
                    .with_tuple("button", tuple!["authorize payment"]),
            )
            .unwrap();
        assert_eq!(c.page, "UPP");

        // σ7: COP; the conf action fired for alice at 999.
        let c = r.step(&c, &InputChoice::empty()).unwrap();
        assert_eq!(c.page, "COP");
        assert!(c.state.prop("paid"));
        assert!(c.state.prop("order_pending"));
        assert!(c.action.contains("conf", &tuple!["alice", 999]));
    }

    #[test]
    fn failed_login_goes_to_message_page() {
        let s = full_site();
        let db = catalog::tiny();
        let r = Runner::new(&s, &db);
        let c = r
            .initial(
                &InputChoice::empty()
                    .with_constant("name", "alice")
                    .with_constant("password", "nope")
                    .with_tuple("button", tuple!["login"]),
            )
            .unwrap();
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["back"]),
            )
            .unwrap();
        assert_eq!(c.page, "MP");
        assert!(c.state.contains("error", &tuple!["failed login"]));
        // back clears the error and returns home
        let c = r.step(&c, &InputChoice::empty()).unwrap();
        assert_eq!(c.page, "HP");
        assert_eq!(c.state.cardinality("error"), 0);
    }

    #[test]
    fn admin_login_reaches_admin_pages() {
        let s = full_site();
        let db = catalog::tiny();
        let r = Runner::new(&s, &db);
        let c = r
            .initial(
                &InputChoice::empty()
                    .with_constant("name", "Admin")
                    .with_constant("password", "root")
                    .with_tuple("button", tuple!["login"]),
            )
            .unwrap();
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["order"]),
            )
            .unwrap();
        assert_eq!(c.page, "AP");
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["view"]),
            )
            .unwrap();
        assert_eq!(c.page, "POP");
        let c = r
            .step(
                &c,
                &InputChoice::empty().with_tuple("button", tuple!["status"]),
            )
            .unwrap();
        assert_eq!(c.page, "VOP");
        let c = r.step(&c, &InputChoice::empty()).unwrap();
        assert_eq!(c.page, "OSP");
    }

    #[test]
    fn registration_path() {
        let s = full_site();
        let db = catalog::tiny();
        let r = Runner::new(&s, &db);
        let c = r
            .initial(
                &InputChoice::empty()
                    .with_constant("name", "bob")
                    .with_constant("password", "x")
                    .with_tuple("button", tuple!["register"]),
            )
            .unwrap();
        let c = r
            .step(
                &c,
                &InputChoice::empty()
                    .with_constant("new_name", "bob")
                    .with_constant("new_password", "pw")
                    .with_tuple("button", tuple!["register"]),
            )
            .unwrap();
        assert_eq!(c.page, "NP");
        let c = r.step(&c, &InputChoice::empty()).unwrap();
        assert_eq!(c.page, "RP");
        assert!(c.state.prop("registered"));
        assert!(c.state.prop("logged_in"));
    }

    #[test]
    fn empty_cart_clears_cart() {
        let s = full_site();
        let db = catalog::tiny();
        let r = Runner::new(&s, &db);
        // Shortcut: walk to CC via view cart and check empty-cart deletion
        // on a synthetic cart entry.
        let c0 = r
            .initial(
                &InputChoice::empty()
                    .with_constant("name", "alice")
                    .with_constant("password", "pw1")
                    .with_tuple("button", tuple!["login"]),
            )
            .unwrap();
        let mut c1 = r
            .step(
                &c0,
                &InputChoice::empty().with_tuple("button", tuple!["view cart"]),
            )
            .unwrap();
        assert_eq!(c1.page, "CP");
        c1.state.insert("cart", tuple!["p1", 999]);
        let c2 = r
            .step(
                &c1,
                &InputChoice::empty().with_tuple("button", tuple!["empty cart"]),
            )
            .unwrap();
        assert_eq!(c2.page, "CC");
        let c3 = r.step(&c2, &InputChoice::empty()).unwrap();
        assert_eq!(c3.page, "CP");
        assert_eq!(c3.state.cardinality("cart"), 0, "cart emptied");
    }
}
