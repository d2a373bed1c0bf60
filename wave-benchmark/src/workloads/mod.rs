//! The four workloads. Each takes its inputs from the seed alone and
//! checks every answer it gets.

pub mod cold_checkout;
pub mod cold_corpus;
pub mod edit_session;
pub mod serve_zipf;

use wave_serve::codec::{outcome_from_json, verdict_to_json, Mode, VerifyRequest};
use wave_serve::engine::{SubmitError, SubmitResult};
use wave_serve::json::Json;
use wave_verifier::symbolic::VerifyOutcome;

use crate::pipeline::Class;

/// The Fig. 2 payment-safety property.
pub const FIG2: &str = "forall p . G (!ship(p) | paid)";

/// An LTL verify request for an in-process service.
pub fn ltl_request(service: &str, property: &str) -> VerifyRequest {
    VerifyRequest {
        service: service.into(),
        property: property.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    }
}

/// Decodes canonical outcome bytes.
pub fn decode(bytes: &[u8]) -> Result<VerifyOutcome, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "outcome is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("outcome JSON: {e}"))?;
    outcome_from_json(&json).map_err(|e| format!("outcome: {e}"))
}

/// The wire encoding of an outcome's verdict.
pub fn verdict_bytes(o: &VerifyOutcome) -> String {
    verdict_to_json(&o.verdict).encode()
}

/// The answer class of a successful submit.
pub fn class_of(r: &SubmitResult) -> Class {
    if r.cache_hit {
        Class::Hit
    } else if r.incremental {
        Class::Tier
    } else {
        Class::Cold
    }
}

/// Errors the engine rejects before accounting for the submission.
pub fn unreached(res: &Result<SubmitResult, SubmitError>) -> bool {
    matches!(
        res,
        Err(SubmitError::BadProperty(_) | SubmitError::UnknownService(_))
    )
}
