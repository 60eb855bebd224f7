//! The regression gate behind the `bench` binary and its committed
//! baseline, `BENCH_gates.json`.
//!
//! Each bench suite measures a few named cells and reports them in two
//! gated subtrees, plus a `context` subtree that is recorded but never
//! gated (wall time):
//!
//! * `exact` — simulated values, bit-deterministic per seed and
//!   host-independent. Numbers may differ from the baseline by at most
//!   [`FLOAT_TOLERANCE`] (absolute; it absorbs the shortest-roundtrip
//!   JSON formatting); everything else — strings, booleans, keys,
//!   sequence lengths — must match exactly. Drift means the simulator
//!   changed behaviour, not that the host got slower.
//! * `host` — events/s per cell, host-dependent. A cell fails when it
//!   falls more than [`HOST_TOLERANCE`] below its baseline.
//!
//! The baseline file holds one such section per suite:
//! `{"note": ..., "suites": {"<suite>": {"exact", "host", "context"}}}`.

use serde_json::Value;

/// Committed baseline file, read from and written to the working
/// directory.
pub const BASELINE_FILE: &str = "BENCH_gates.json";

/// Absolute slack for numbers in `exact` subtrees.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// Fraction of its baseline a `host` rate may lose before the gate
/// fails.
pub const HOST_TOLERANCE: f64 = 0.30;

const NOTE: &str = "exact: simulated and bit-deterministic, numbers gated to 1e-9 absolute, \
                    all else exactly; host: events/s per cell, host-dependent, gated at 30% \
                    below baseline; context: never gated";

/// One suite's fresh measurement, one entry per cell in the suite's
/// catalogue order.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Simulated values per cell, gated by [`FLOAT_TOLERANCE`].
    pub exact: Vec<Value>,
    /// Host events/s per cell (empty for suites with no host gate),
    /// gated by [`HOST_TOLERANCE`].
    pub host: Vec<f64>,
    /// Claims the suite checks on its own fresh numbers that did not
    /// hold; each one fails the run in either mode.
    pub failures: Vec<String>,
}

impl Measured {
    /// The suite's baseline section with cells named `cells`: `exact`,
    /// `host`, and `context` carrying the suite's wall time.
    pub fn section(&self, cells: &[&str], wall_s: f64) -> Value {
        let named = |values: Vec<Value>| {
            Value::Map(cells.iter().map(|c| c.to_string()).zip(values).collect())
        };
        serde_json::json!({
            "exact": named(self.exact.clone()),
            "host": named(self.host.iter().map(|&r| Value::F64(r)).collect()),
            "context": { "wall_s": wall_s },
        })
    }
}

/// Lowest `host` rate that still passes against `baseline`.
pub fn host_floor(baseline: f64) -> f64 {
    baseline * (1.0 - HOST_TOLERANCE)
}

/// Compares a fresh `section` of `suite` with its committed baseline
/// and returns one line per mismatch (empty when the gate passes).
/// `context` is never compared.
pub fn compare(suite: &str, baseline: Option<&Value>, section: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let Some(baseline) = baseline else {
        out.push(format!("{suite}: missing from {BASELINE_FILE}"));
        return out;
    };
    diff_exact(
        &format!("{suite}.exact"),
        subtree(baseline, "exact"),
        subtree(section, "exact"),
        &mut out,
    );
    check_host(
        &format!("{suite}.host"),
        subtree(baseline, "host"),
        subtree(section, "host"),
        &mut out,
    );
    out
}

/// `section[key]`, or an empty map when the section has no such key.
fn subtree<'a>(section: &'a Value, key: &str) -> &'a Value {
    static EMPTY: Value = Value::Map(Vec::new());
    section.get_field(key).unwrap_or(&EMPTY)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    v.as_map().unwrap_or(&[])
}

fn lookup<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Keys of `fresh` missing from `base` and keys of `base` missing from
/// `fresh`, one line each.
fn diff_keys(
    path: &str,
    base: &[(String, Value)],
    fresh: &[(String, Value)],
    out: &mut Vec<String>,
) {
    for (key, _) in base {
        if lookup(fresh, key).is_none() {
            out.push(format!("{path}.{key}: missing from fresh run"));
        }
    }
    for (key, _) in fresh {
        if lookup(base, key).is_none() {
            out.push(format!("{path}.{key}: not in baseline"));
        }
    }
}

fn diff_exact(path: &str, base: &Value, fresh: &Value, out: &mut Vec<String>) {
    match (base, fresh) {
        (Value::Map(b), Value::Map(f)) => {
            diff_keys(path, b, f, out);
            for (key, bv) in b {
                if let Some(fv) = lookup(f, key) {
                    diff_exact(&format!("{path}.{key}"), bv, fv, out);
                }
            }
        }
        (Value::Seq(b), Value::Seq(f)) => {
            if b.len() != f.len() {
                out.push(format!("{path}: length {} vs fresh {}", b.len(), f.len()));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                diff_exact(&format!("{path}[{i}]"), bv, fv, out);
            }
        }
        _ => {
            let mismatch = match (as_f64(base), as_f64(fresh)) {
                (Some(b), Some(f)) => (b - f).abs() > FLOAT_TOLERANCE,
                _ => base != fresh,
            };
            if mismatch {
                let json = |v| serde_json::to_string(v).unwrap_or_default();
                out.push(format!(
                    "{path}: baseline {} vs fresh {}",
                    json(base),
                    json(fresh)
                ));
            }
        }
    }
}

fn check_host(path: &str, base: &Value, fresh: &Value, out: &mut Vec<String>) {
    let (base, fresh) = (entries(base), entries(fresh));
    diff_keys(path, base, fresh, out);
    for (cell, rate) in fresh {
        let (Some(base_rate), Some(rate)) = (lookup(base, cell).and_then(as_f64), as_f64(rate))
        else {
            continue;
        };
        if rate < host_floor(base_rate) {
            out.push(format!(
                "{path}.{cell}: {rate:.0} events/s is more than {:.0}% below baseline {base_rate:.0}",
                HOST_TOLERANCE * 100.0
            ));
        }
    }
}

/// Reads and parses the baseline file at `path`.
///
/// # Errors
///
/// Filesystem and JSON errors, as `std::io::Error`.
pub fn load(path: &str) -> std::io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::other(format!("{path}: {e}")))
}

/// The `suites` entry of a parsed baseline file, by suite name.
pub fn suite<'a>(file: &'a Value, name: &str) -> Option<&'a Value> {
    file.get_field("suites")?.get_field(name)
}

/// A baseline file holding `file`'s sections with `fresh` ones put in
/// place (or added), ordered as `order`. Sections named in neither are
/// dropped.
pub fn merge(file: Option<&Value>, fresh: &[(&str, Value)], order: &[&str]) -> Value {
    let suites = order
        .iter()
        .filter_map(|&name| {
            let section = fresh
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s)
                .or_else(|| file.and_then(|f| suite(f, name)))?;
            Some((name.to_string(), section.clone()))
        })
        .collect();
    serde_json::json!({ "note": NOTE, "suites": Value::Map(suites) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn section(exact: Value, host: Value) -> Value {
        json!({ "exact": exact, "host": host, "context": { "wall_s": 1.0 } })
    }

    fn exact_only(exact: Value) -> Value {
        section(exact, json!({}))
    }

    fn gate(base: &Value, fresh: &Value) -> Vec<String> {
        compare("s", Some(base), fresh)
    }

    #[test]
    fn identical_sections_pass() {
        let s = section(
            json!({ "cell": { "n": 3u64, "x": 0.25, "label": "a", "seq": [1u64, 2u64] } }),
            json!({ "cell": 1.0e6 }),
        );
        assert_eq!(gate(&s, &s), Vec::<String>::new());
    }

    #[test]
    fn float_within_tolerance_passes_beyond_fails() {
        let base = exact_only(json!({ "cell": { "x": 0.0 } }));
        assert!(gate(&base, &exact_only(json!({ "cell": { "x": 1e-9 } }))).is_empty());
        assert!(gate(&base, &exact_only(json!({ "cell": { "x": -1e-9 } }))).is_empty());
        let off = gate(&base, &exact_only(json!({ "cell": { "x": 1.1e-9 } })));
        assert_eq!(off.len(), 1, "{off:?}");
        assert!(off[0].starts_with("s.exact.cell.x:"), "{off:?}");
        let base = exact_only(json!({ "cell": { "x": 14.044927 } }));
        assert_eq!(
            gate(&base, &exact_only(json!({ "cell": { "x": 14.044928 } }))).len(),
            1
        );
    }

    #[test]
    fn integer_and_string_mismatches_fail() {
        let base = exact_only(json!({ "cell": { "n": 15596u64, "label": "rr" } }));
        let fewer = exact_only(json!({ "cell": { "n": 15595u64, "label": "rr" } }));
        let renamed = exact_only(json!({ "cell": { "n": 15596u64, "label": "fifo" } }));
        let retyped = exact_only(json!({ "cell": { "n": "15596", "label": "rr" } }));
        assert_eq!(gate(&base, &fewer).len(), 1);
        assert_eq!(gate(&base, &renamed).len(), 1);
        assert_eq!(gate(&base, &retyped).len(), 1);
    }

    #[test]
    fn missing_or_extra_keys_fail_on_either_side() {
        let base = exact_only(json!({ "cell": { "a": 1u64, "b": 2u64 } }));
        let missing = gate(&base, &exact_only(json!({ "cell": { "a": 1u64 } })));
        assert_eq!(missing, vec!["s.exact.cell.b: missing from fresh run"]);
        let extra = gate(
            &base,
            &exact_only(json!({ "cell": { "a": 1u64, "b": 2u64, "c": 3u64 } })),
        );
        assert_eq!(extra, vec!["s.exact.cell.c: not in baseline"]);
    }

    #[test]
    fn sequence_length_mismatch_fails() {
        let base = exact_only(json!({ "cell": { "seq": [1u64, 2u64] } }));
        let fresh = exact_only(json!({ "cell": { "seq": [1u64, 2u64, 3u64] } }));
        assert_eq!(
            gate(&base, &fresh),
            vec!["s.exact.cell.seq: length 2 vs fresh 3"]
        );
    }

    #[test]
    fn host_rate_at_floor_passes_below_fails() {
        let base = section(json!({}), json!({ "cell": 1.0e7 }));
        let at = section(json!({}), json!({ "cell": host_floor(1.0e7) }));
        assert!(gate(&base, &at).is_empty());
        let below = section(
            json!({}),
            json!({ "cell": host_floor(1.0e7) * (1.0 - 1e-12) }),
        );
        let failures = gate(&base, &below);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("s.host.cell:"), "{failures:?}");
        // Faster than baseline never fails.
        assert!(gate(&base, &section(json!({}), json!({ "cell": 1.0e9 }))).is_empty());
    }

    #[test]
    fn cell_missing_from_baseline_fails() {
        let base = section(json!({ "a": { "n": 1u64 } }), json!({ "a": 1.0 }));
        let fresh = section(
            json!({ "a": { "n": 1u64 }, "b": { "n": 1u64 } }),
            json!({ "a": 1.0, "b": 1.0 }),
        );
        assert_eq!(
            gate(&base, &fresh),
            vec!["s.exact.b: not in baseline", "s.host.b: not in baseline"]
        );
        assert_eq!(
            compare("s", None, &fresh),
            vec![format!("s: missing from {BASELINE_FILE}")]
        );
    }

    #[test]
    fn context_is_never_gated() {
        let base = exact_only(json!({ "cell": { "n": 1u64 } }));
        let mut fresh = base.clone();
        if let Value::Map(entries) = &mut fresh {
            entries.retain(|(k, _)| k != "context");
            entries.push(("context".to_string(), json!({ "wall_s": 99.0 })));
        }
        assert!(gate(&base, &fresh).is_empty());
    }

    #[test]
    fn merge_replaces_only_fresh_sections() {
        let old = json!({ "suites": { "a": { "exact": { "x": 1u64 } }, "b": { "exact": { "y": 2u64 } } } });
        let merged = merge(
            Some(&old),
            &[("b", json!({ "exact": { "y": 3u64 } }))],
            &["a", "b"],
        );
        assert_eq!(suite(&merged, "a"), suite(&old, "a"));
        assert_eq!(
            suite(&merged, "b"),
            Some(&json!({ "exact": { "y": 3u64 } }))
        );
    }
}
