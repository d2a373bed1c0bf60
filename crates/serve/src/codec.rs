//! Wire codec: verification requests, responses and outcomes ↔ JSON.
//!
//! The wire format (one JSON object per line, both directions):
//!
//! Request:
//! ```json
//! {"cmd":"verify","service":"checkout_core",
//!  "property":"forall p . G (!ship(p) | paid)",
//!  "mode":"ltl","node_limit":0,"threads":1,"deadline_us":0}
//! {"cmd":"stats"}
//! {"cmd":"drain","deadline_ms":5000}
//! ```
//!
//! Response:
//! ```json
//! {"ok":true,"fingerprint":"<32 hex>","cache_hit":false,
//!  "outcome":{"verdict":{"kind":"holds","explored":12},
//!             "stats":{"nodes_interned":12,...,"search_wall_us":1401}}}
//! {"ok":false,"error":"unknown service: nope"}
//! {"ok":false,"error":"draining: not accepting new jobs","kind":"draining"}
//! {"ok":false,"error":"overloaded: retry after 150 ms","kind":"retry_after",
//!  "retry_after_ms":150}
//! ```
//!
//! Stability rules:
//!
//! * `Duration` fields serialize as **integer microseconds**
//!   (`search_wall_us`) — never floats — so encoded outcomes are
//!   byte-stable across platforms;
//! * verdicts are kind-tagged objects (`holds` / `violated` /
//!   `limit_reached` / `cancelled`), with counterexample lassos as
//!   `stem` / `cycle` string arrays;
//! * object key order is fixed by the encoder, so encoding is
//!   deterministic — the cache replays stored bytes verbatim.

use std::time::Duration;

use wave_verifier::symbolic::{SearchStats, Verdict, VerifyOutcome};

use crate::json::Json;

/// What the engine should decide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// LTL-FO verification of a property (Theorem 3.5(ii)).
    Ltl,
    /// Error-page reachability (Theorem 3.5(i)); the request's property
    /// text is ignored.
    ErrorFree,
}

impl Mode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Ltl => "ltl",
            Mode::ErrorFree => "error_free",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "ltl" => Some(Mode::Ltl),
            "error_free" => Some(Mode::ErrorFree),
            _ => None,
        }
    }
}

/// A parsed `verify` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyRequest {
    /// Registry name of the service to verify (see `registry`).
    pub service: String,
    /// LTL-FO property text (parsed with `wave_logic::parser`); ignored
    /// for [`Mode::ErrorFree`].
    pub property: String,
    /// What to decide.
    pub mode: Mode,
    /// Node budget (`0` = engine default, see `SymbolicOptions`).
    pub node_limit: usize,
    /// Accepted and ignored: every search runs on one worker thread.
    /// Still decoded and encoded so older clients keep working, and
    /// excluded from the fingerprint.
    pub threads: usize,
    /// Per-job deadline in microseconds (`0` = none). Excluded from the
    /// fingerprint: it can only turn a run into `cancelled`, which is
    /// never cached.
    pub deadline_us: u64,
    /// Accepted and ignored: a node verifies every request it is sent,
    /// whoever owns the fingerprint (any node computes the same
    /// verdict). Still decoded and encoded so older clients and stored
    /// request lines keep working, and excluded from the fingerprint.
    pub check_owner: bool,
}

/// A request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run (or replay) a verification.
    Verify(VerifyRequest),
    /// Report server counters.
    Stats,
    /// Start a graceful drain: in-flight jobs finish (bounded by the
    /// deadline), every new submit is refused with kind `draining`.
    Drain {
        /// How long the server may wait for in-flight jobs, in
        /// milliseconds (`0` = don't wait, just flip the gate).
        deadline_ms: u64,
    },
    /// Install journal records shipped from another fleet node. Each
    /// line is a CRC-framed journal frame (see `cache::persist_line`);
    /// the receiver validates every frame and reports how many were
    /// applied, refreshed (already held verbatim) and dropped.
    Replicate {
        /// CRC-framed journal lines, newline-free.
        lines: Vec<String>,
    },
    /// Cheap liveness probe: replies with the node's shard, journal
    /// length and cache generation without touching the scheduler, so
    /// the heartbeat plane can probe under full load.
    Health,
}

/// Errors raised while decoding a line into a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

fn get_usize(obj: &Json, key: &str, default: usize) -> Result<usize, DecodeError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            let i = v
                .as_int()
                .ok_or_else(|| err(format!("{key} must be an integer")))?;
            usize::try_from(i).map_err(|_| err(format!("{key} must be non-negative")))
        }
    }
}

impl Request {
    /// Decodes one request line.
    pub fn decode(line: &str) -> Result<Request, DecodeError> {
        let v = Json::parse(line).map_err(|e| err(e.to_string()))?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing \"cmd\""))?;
        match cmd {
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "replicate" => {
                let lines = v
                    .get("lines")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err("missing \"lines\""))?
                    .iter()
                    .map(|j| {
                        j.as_str()
                            .map(String::from)
                            .ok_or_else(|| err("replicate: non-string line"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if lines.iter().any(|l| l.contains('\n')) {
                    return Err(err("replicate: lines must be newline-free"));
                }
                Ok(Request::Replicate { lines })
            }
            "drain" => {
                let deadline = v.get("deadline_ms").map_or(Ok(0i64), |d| {
                    d.as_int()
                        .ok_or_else(|| err("deadline_ms must be an integer"))
                })?;
                Ok(Request::Drain {
                    deadline_ms: u64::try_from(deadline)
                        .map_err(|_| err("deadline_ms must be non-negative"))?,
                })
            }
            "verify" => {
                let service = v
                    .get("service")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("missing \"service\""))?
                    .to_string();
                let mode = match v.get("mode").and_then(Json::as_str) {
                    None => Mode::Ltl,
                    Some(m) => Mode::parse(m).ok_or_else(|| err(format!("unknown mode: {m}")))?,
                };
                let property = v
                    .get("property")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                if property.is_empty() && mode == Mode::Ltl {
                    return Err(err("missing \"property\""));
                }
                let deadline = v.get("deadline_us").map_or(Ok(0i64), |d| {
                    d.as_int()
                        .ok_or_else(|| err("deadline_us must be an integer"))
                })?;
                let check_owner = match v.get("check_owner") {
                    None => false,
                    Some(b) => b
                        .as_bool()
                        .ok_or_else(|| err("check_owner must be a boolean"))?,
                };
                Ok(Request::Verify(VerifyRequest {
                    service,
                    property,
                    mode,
                    node_limit: get_usize(&v, "node_limit", 0)?,
                    threads: get_usize(&v, "threads", 1)?,
                    deadline_us: u64::try_from(deadline)
                        .map_err(|_| err("deadline_us must be non-negative"))?,
                    check_owner,
                }))
            }
            other => Err(err(format!("unknown cmd: {other}"))),
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Stats => Json::Obj(vec![("cmd".into(), Json::str("stats"))]).encode(),
            Request::Health => Json::Obj(vec![("cmd".into(), Json::str("health"))]).encode(),
            Request::Drain { deadline_ms } => Json::Obj(vec![
                ("cmd".into(), Json::str("drain")),
                ("deadline_ms".into(), Json::Int(*deadline_ms as i64)),
            ])
            .encode(),
            Request::Replicate { lines } => Json::Obj(vec![
                ("cmd".into(), Json::str("replicate")),
                (
                    "lines".into(),
                    Json::Arr(lines.iter().map(Json::str).collect()),
                ),
            ])
            .encode(),
            Request::Verify(r) => {
                let mut fields = vec![
                    ("cmd".into(), Json::str("verify")),
                    ("service".into(), Json::str(&r.service)),
                    ("property".into(), Json::str(&r.property)),
                    ("mode".into(), Json::str(r.mode.as_str())),
                    ("node_limit".into(), Json::Int(r.node_limit as i64)),
                    ("threads".into(), Json::Int(r.threads as i64)),
                    ("deadline_us".into(), Json::Int(r.deadline_us as i64)),
                ];
                // Emitted only when set, so requests that never set it
                // stay byte-identical to the pre-mesh wire.
                if r.check_owner {
                    fields.push(("check_owner".into(), Json::Bool(true)));
                }
                Json::Obj(fields).encode()
            }
        }
    }
}

fn duration_to_us(d: Duration) -> i64 {
    i64::try_from(d.as_micros()).unwrap_or(i64::MAX)
}

fn us_to_duration(us: i64) -> Duration {
    Duration::from_micros(us.max(0) as u64)
}

/// Encodes search counters (durations as integer microseconds).
pub fn stats_to_json(s: &SearchStats) -> Json {
    Json::Obj(vec![
        ("nodes_interned".into(), Json::Int(s.nodes_interned as i64)),
        ("dedup_hits".into(), Json::Int(s.dedup_hits as i64)),
        (
            "successors_memoized".into(),
            Json::Int(s.successors_memoized as i64),
        ),
        ("memo_hits".into(), Json::Int(s.memo_hits as i64)),
        ("peak_frontier".into(), Json::Int(s.peak_frontier as i64)),
        ("sliced_rules".into(), Json::Int(s.sliced_rules as i64)),
        (
            "sliced_relations".into(),
            Json::Int(s.sliced_relations as i64),
        ),
        (
            "search_wall_us".into(),
            Json::Int(duration_to_us(s.search_wall)),
        ),
        ("incremental".into(), Json::Bool(s.incremental)),
    ])
}

/// Decodes search counters.
pub fn stats_from_json(v: &Json) -> Result<SearchStats, DecodeError> {
    let int = |key: &str| -> Result<i64, DecodeError> {
        v.get(key)
            .and_then(Json::as_int)
            .ok_or_else(|| err(format!("stats: missing integer \"{key}\"")))
    };
    Ok(SearchStats {
        nodes_interned: int("nodes_interned")? as usize,
        dedup_hits: int("dedup_hits")? as u64,
        successors_memoized: int("successors_memoized")? as usize,
        memo_hits: int("memo_hits")? as u64,
        peak_frontier: int("peak_frontier")? as usize,
        sliced_rules: int("sliced_rules")? as usize,
        sliced_relations: int("sliced_relations")? as usize,
        search_wall: us_to_duration(int("search_wall_us")?),
        incremental: v
            .get("incremental")
            .and_then(Json::as_bool)
            .ok_or_else(|| err("stats: missing boolean \"incremental\""))?,
    })
}

/// Encodes a verdict as a kind-tagged object.
pub fn verdict_to_json(v: &Verdict) -> Json {
    match v {
        Verdict::Holds { explored } => Json::Obj(vec![
            ("kind".into(), Json::str("holds")),
            ("explored".into(), Json::Int(*explored as i64)),
        ]),
        Verdict::Violated { stem, cycle } => Json::Obj(vec![
            ("kind".into(), Json::str("violated")),
            (
                "stem".into(),
                Json::Arr(stem.iter().map(Json::str).collect()),
            ),
            (
                "cycle".into(),
                Json::Arr(cycle.iter().map(Json::str).collect()),
            ),
        ]),
        Verdict::LimitReached => Json::Obj(vec![("kind".into(), Json::str("limit_reached"))]),
        Verdict::Cancelled => Json::Obj(vec![("kind".into(), Json::str("cancelled"))]),
        Verdict::Poisoned => Json::Obj(vec![("kind".into(), Json::str("poisoned"))]),
    }
}

/// Decodes a verdict.
pub fn verdict_from_json(v: &Json) -> Result<Verdict, DecodeError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("verdict: missing \"kind\""))?;
    match kind {
        "holds" => {
            let explored = v
                .get("explored")
                .and_then(Json::as_int)
                .ok_or_else(|| err("verdict: missing \"explored\""))?;
            Ok(Verdict::Holds {
                explored: explored as usize,
            })
        }
        "violated" => {
            let strings = |key: &str| -> Result<Vec<String>, DecodeError> {
                v.get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err(format!("verdict: missing array \"{key}\"")))?
                    .iter()
                    .map(|j| {
                        j.as_str()
                            .map(String::from)
                            .ok_or_else(|| err(format!("verdict: non-string in \"{key}\"")))
                    })
                    .collect()
            };
            Ok(Verdict::Violated {
                stem: strings("stem")?,
                cycle: strings("cycle")?,
            })
        }
        "limit_reached" => Ok(Verdict::LimitReached),
        "cancelled" => Ok(Verdict::Cancelled),
        "poisoned" => Ok(Verdict::Poisoned),
        other => Err(err(format!("verdict: unknown kind {other}"))),
    }
}

/// Encodes a full outcome.
pub fn outcome_to_json(o: &VerifyOutcome) -> Json {
    Json::Obj(vec![
        ("verdict".into(), verdict_to_json(&o.verdict)),
        ("stats".into(), stats_to_json(&o.stats)),
    ])
}

/// Decodes a full outcome.
pub fn outcome_from_json(v: &Json) -> Result<VerifyOutcome, DecodeError> {
    Ok(VerifyOutcome {
        verdict: verdict_from_json(v.get("verdict").ok_or_else(|| err("missing verdict"))?)?,
        stats: stats_from_json(v.get("stats").ok_or_else(|| err("missing stats"))?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcomes() -> Vec<VerifyOutcome> {
        let stats = SearchStats {
            nodes_interned: 12,
            dedup_hits: 3,
            successors_memoized: 10,
            memo_hits: 7,
            peak_frontier: 4,
            sliced_rules: 2,
            sliced_relations: 1,
            search_wall: Duration::from_micros(987_654),
            incremental: true,
        };
        vec![
            VerifyOutcome {
                verdict: Verdict::Holds { explored: 12 },
                stats: stats.clone(),
            },
            VerifyOutcome {
                verdict: Verdict::Violated {
                    stem: vec!["HP".into(), "CP | pick(a)".into()],
                    cycle: vec!["COP \"weird\\chars\"".into()],
                },
                stats: stats.clone(),
            },
            VerifyOutcome {
                verdict: Verdict::LimitReached,
                stats: stats.clone(),
            },
            VerifyOutcome {
                verdict: Verdict::Cancelled,
                stats: stats.clone(),
            },
            VerifyOutcome {
                verdict: Verdict::Poisoned,
                stats,
            },
        ]
    }

    #[test]
    fn outcome_round_trips_by_equality() {
        // Durations above are whole microseconds, so the round trip is
        // exact — the property the satellite task pins down.
        for o in sample_outcomes() {
            let j = outcome_to_json(&o);
            let text = j.encode();
            let back = outcome_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, o, "round trip changed the outcome:\n{text}");
            // And re-encoding is byte-identical (cache guarantee).
            assert_eq!(outcome_to_json(&back).encode(), text);
        }
    }

    #[test]
    fn legacy_prefetch_stats_keys_decode_and_are_no_longer_written() {
        let o = &sample_outcomes()[0];
        let text = outcome_to_json(o).encode();
        assert!(!text.contains("prefetched"), "{text}");
        assert!(!text.contains("prefetch_hits"), "{text}");
        // An outcome line written before the two counters were removed
        // (journals, peers, cached replies) still decodes, to the same
        // stats as the current encoding.
        let legacy = text.replace(
            "\"peak_frontier\":4,",
            "\"peak_frontier\":4,\"prefetched\":0,\"prefetch_hits\":0,",
        );
        assert_ne!(legacy, text, "the legacy keys must actually be spliced in");
        let old = outcome_from_json(&Json::parse(&legacy).unwrap()).unwrap();
        let new = outcome_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(old.stats, new.stats);
        assert_eq!(old, *o);
    }

    #[test]
    fn sub_microsecond_wall_time_truncates_stably() {
        let o = VerifyOutcome {
            verdict: Verdict::Holds { explored: 1 },
            stats: SearchStats {
                search_wall: Duration::from_nanos(1999), // 1.999 µs → 1 µs
                ..SearchStats::default()
            },
        };
        let text = outcome_to_json(&o).encode();
        let back = outcome_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.stats.search_wall, Duration::from_micros(1));
        // Idempotent after the first truncation.
        assert_eq!(outcome_to_json(&back).encode(), text);
    }

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Stats,
            Request::Health,
            Request::Drain { deadline_ms: 2500 },
            Request::Verify(VerifyRequest {
                service: "checkout_core".into(),
                property: "forall p . G (!ship(p) | paid)".into(),
                mode: Mode::Ltl,
                node_limit: 0,
                threads: 2,
                deadline_us: 1000,
                check_owner: false,
            }),
            Request::Verify(VerifyRequest {
                service: "full_site".into(),
                property: String::new(),
                mode: Mode::ErrorFree,
                node_limit: 77,
                threads: 0,
                deadline_us: 0,
                check_owner: true,
            }),
            Request::Replicate { lines: Vec::new() },
            Request::Replicate {
                lines: vec![
                    "deadbeef {\"fingerprint\":\"00000000000000000000000000000001\",\
                     \"outcome\":{}}"
                        .into(),
                    "cafef00d {\"quote\\\"s\":1}".into(),
                ],
            },
        ];
        for r in reqs {
            let line = r.encode();
            assert_eq!(Request::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn request_defaults_and_errors() {
        let r =
            Request::decode(r#"{"cmd":"verify","service":"toggle","property":"G true"}"#).unwrap();
        match r {
            Request::Verify(v) => {
                assert_eq!(v.mode, Mode::Ltl);
                assert_eq!(v.node_limit, 0);
                assert_eq!(v.threads, 1);
                assert_eq!(v.deadline_us, 0);
                assert!(!v.check_owner, "absent check_owner must decode false");
            }
            other => panic!("{other:?}"),
        }
        // A non-boolean check_owner is a decode error, and the retired
        // membership command is unknown.
        assert!(Request::decode(
            r#"{"cmd":"verify","service":"t","property":"G true","check_owner":1}"#
        )
        .is_err());
        assert!(Request::decode(r#"{"cmd":"members"}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"verify","service":"t"}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"nope"}"#).is_err());
        assert!(Request::decode("not json").is_err());
        // replicate: lines must be an array of newline-free strings.
        assert!(Request::decode(r#"{"cmd":"replicate"}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"replicate","lines":[7]}"#).is_err());
        assert!(Request::decode("{\"cmd\":\"replicate\",\"lines\":[\"a\\nb\"]}").is_err());
        // error_free may omit the property.
        assert!(Request::decode(r#"{"cmd":"verify","service":"t","mode":"error_free"}"#).is_ok());
    }
}
