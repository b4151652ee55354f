//! Property tests for the served request documents: whatever a client
//! puts in a `/v1/simulate` or `/v1/optimize` body (`/v1/sweep` checks
//! its scalar fields with the same `SimQuery::from_json`), the
//! validators return `Ok` or a typed `Err(String)` (the 400 body) and
//! never panic, and every accepted query names a chip inside its
//! population of at most 100 chips.
//!
//! Bodies are built as JSON text and parsed with the server's own
//! parser, so the numbers include what it makes of the extremes:
//! `1e300` is finite, `1e400` parses to infinity.

use accordion_served::engine::optimize_request_from_json;
use accordion_served::SimQuery;
use accordion_telemetry::json::{self, Json};
use proptest::prelude::*;
use proptest::TestRng;

/// Every numeric field of the two documents, with the range an
/// in-range draw comes from and whether the field is an integer.
const FIELDS: [(&str, f64, f64, bool); 12] = [
    ("chips", 1.0, 100.0, true),
    ("chip", 0.0, 100.0, true),
    ("pop_seed", 0.0, 1e6, true),
    ("seed", 0.0, 1e6, true),
    ("size", 0.01, 100.0, false),
    ("vdd_mv", 300.0, 1200.0, false),
    ("dcs", 1.0, 1024.0, true),
    ("iterations", 1.0, 64.0, true),
    ("drop_target", 0.01, 0.99, false),
    ("population", 4.0, 128.0, true),
    ("generations", 1.0, 64.0, true),
    ("scout_steps", 2.0, 6.0, true),
];

/// Values at or past the edges of the fields' domains, or of the wrong
/// type.
const WILD: [&str; 12] = [
    "-3", "-0.5", "0", "0.5", "1e300", "1e400", "-1e400", "\"8\"", "\"\"", "true", "false", "null",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

/// An in-range value of a field, or `None` to leave it out.
fn in_range(rng: &mut TestRng, (_, lo, hi, integer): (&str, f64, f64, bool)) -> Option<String> {
    if rng.next_u64().is_multiple_of(3) {
        return None;
    }
    let x = lo + rng.next_f64() * (hi - lo);
    Some(if integer {
        format!("{}", x.round())
    } else {
        format!("{x}")
    })
}

/// A request body with `wild` fields (app, topo or numeric) replaced by
/// wild values and every other field in range or absent.
fn document(rng: &mut TestRng, wild: usize) -> String {
    let mut fields: Vec<(&str, Option<String>)> = vec![
        (
            "app",
            Some(format!(
                "\"{}\"",
                pick(rng, &["hotspot", "x264", "canneal"])
            )),
        ),
        (
            "topo",
            Some(format!("\"{}\"", pick(rng, &["small", "default"]))),
        ),
    ];
    for field in FIELDS {
        fields.push((field.0, in_range(rng, field)));
    }
    for _ in 0..wild {
        let k = (rng.next_u64() % fields.len() as u64) as usize;
        let value = match fields[k].0 {
            "app" | "topo" => pick(rng, &["\"nope\"", "7", "null", "[]", "{}"]),
            _ => pick(rng, &WILD),
        };
        fields[k].1 = Some(value.to_string());
    }
    let body: Vec<String> = fields
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| format!("\"{k}\": {v}")))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Asserts that an accepted query names a chip inside a population of
/// at most 100 chips.
fn assert_chip_in_population(body: &str, chip: usize, chips: usize) {
    assert!(
        chip < chips && chips <= 100,
        "{body}: chip {chip} of {chips}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary field values never panic either validator, and an
    /// accepted query always names a chip inside its population.
    #[test]
    fn request_documents_validate_without_panicking(seed in 0u64..1_000_000) {
        let mut rng = TestRng::deterministic(&format!("served-request-{seed}"));
        let wild = (rng.next_u64() % 4) as usize;
        let body = document(&mut rng, wild);
        let doc = json::parse(&body).expect("generated bodies are JSON");
        if let Ok(q) = SimQuery::from_json(&doc) {
            assert_chip_in_population(&body, q.chip, q.chips);
        }
        if let Ok(req) = optimize_request_from_json(&doc) {
            assert_chip_in_population(&body, req.chip, req.chips);
        }
    }

    /// With every field in range or absent, a document is accepted
    /// exactly when its chip lies inside its population.
    #[test]
    fn in_range_documents_are_accepted_iff_the_chip_exists(seed in 0u64..1_000_000) {
        let mut rng = TestRng::deterministic(&format!("served-clean-{seed}"));
        let body = document(&mut rng, 0);
        let doc = json::parse(&body).expect("generated bodies are JSON");
        let field = |key: &str, default: f64| doc.get(key).and_then(Json::as_f64).unwrap_or(default);
        let exists = field("chip", 0.0) < field("chips", 8.0);
        prop_assert_eq!(SimQuery::from_json(&doc).is_ok(), exists, "{}", body);
        prop_assert_eq!(optimize_request_from_json(&doc).is_ok(), exists, "{}", body);
    }
}

#[test]
fn extreme_numbers_are_typed_rejections() {
    for value in ["1e300", "1e400", "-1e400", "-1", "\"8\"", "true", "[]"] {
        for (key, ..) in FIELDS {
            let body = format!(r#"{{"app": "hotspot", "topo": "small", "{key}": {value}}}"#);
            let doc = json::parse(&body).expect("JSON");
            // A validator ignores the other route's fields and rejects
            // every extreme, the seeds' `1e300` included.
            let accepted = SimQuery::from_json(&doc).is_ok();
            let sim_only = matches!(
                key,
                "size" | "vdd_mv" | "dcs" | "iterations" | "drop_target"
            );
            let opt_only = matches!(key, "population" | "generations" | "scout_steps");
            assert_eq!(accepted, opt_only, "simulate {body}");
            let accepted = optimize_request_from_json(&doc).is_ok();
            assert_eq!(accepted, sim_only, "optimize {body}");
        }
    }
}

/// A seed is any integer a JSON number holds exactly: 2^53 is the
/// largest, and a larger one would alias its neighbours.
#[test]
fn seeds_stop_at_two_to_the_53() {
    for key in ["seed", "pop_seed"] {
        let body = |value: &str| {
            let text = format!(r#"{{"app": "hotspot", "topo": "small", "{key}": {value}}}"#);
            json::parse(&text).expect("JSON")
        };
        let top = body("9007199254740992");
        assert!(SimQuery::from_json(&top).is_ok(), "{key} 2^53");
        assert!(optimize_request_from_json(&top).is_ok(), "{key} 2^53");
        let past = body("9007199254740994");
        let message = format!("{key} must be at most 2^53 = 9007199254740992");
        assert_eq!(SimQuery::from_json(&past).err(), Some(message.clone()));
        assert_eq!(optimize_request_from_json(&past).err(), Some(message));
    }
}
