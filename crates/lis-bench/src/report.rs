//! The one report schema: `{"stable": …, "volatile": …}`.
//!
//! An artifact records what it measured as one JSON tree. [`to_json`]
//! moves every key that [`is_volatile`] names (wall-clock time, rates,
//! speedups, thread counts) out of it into `volatile`, a flat map from
//! the key's path in the tree (e.g. `rows[0].wall_ms`) to its value.
//! What stays is `stable`: censuses, checksums, counters and verdicts,
//! identical on every machine and at every thread count, so `--check`
//! compares it with the recorded baseline leaf for leaf ([`drift`]).

use serde::Value;

/// Whether `key` holds a volatile value. This one rule decides for
/// every artifact what `--check` may see change between runs.
pub fn is_volatile(key: &str) -> bool {
    matches!(
        key,
        "wall_ms" | "kcps" | "scenario_kcps" | "states_per_sec" | "threads"
    ) || ["_mcps", "_mlcps", "_wall_ms"]
        .iter()
        .any(|suffix| key.ends_with(suffix))
        || key.starts_with("speedup_")
}

/// `report` split into `{"stable": …, "volatile": …}`, as indented JSON
/// text with a final newline: the form of every `BENCH_*.json` file.
pub fn to_json(report: &Value) -> String {
    let mut volatile = Vec::new();
    let stable = strip(report, "", &mut volatile);
    let split = Value::Object(vec![
        ("stable".into(), stable),
        ("volatile".into(), Value::Object(volatile)),
    ]);
    serde_json::to_string_pretty(&split).expect("reports hold finite numbers only") + "\n"
}

/// `v` without its volatile keys, which are moved to `volatile` under
/// their paths (`path` is empty at the root).
fn strip(v: &Value, path: &str, volatile: &mut Vec<(String, Value)>) -> Value {
    match v {
        Value::Object(entries) => {
            let mut stable = Vec::new();
            for (key, x) in entries {
                let at = format!("{path}.{key}").trim_start_matches('.').to_owned();
                if is_volatile(key) {
                    volatile.push((at, x.clone()));
                } else {
                    stable.push((key.clone(), strip(x, &at, volatile)));
                }
            }
            Value::Object(stable)
        }
        Value::Array(items) => Value::Array(
            (items.iter().enumerate())
                .map(|(i, x)| strip(x, &format!("{path}[{i}]"), volatile))
                .collect(),
        ),
        _ => v.clone(),
    }
}

/// Compares the `stable` sections of two reports given as JSON text:
/// the `recorded` baseline and a `fresh` run. Object keys may come in
/// any order.
///
/// # Errors
///
/// Names the first recorded leaf that is missing or differs, else the
/// first fresh leaf that is not recorded, by its JSON path; or says why
/// a text has no `stable` section.
pub fn drift(recorded: &str, fresh: &str) -> Result<(), String> {
    let stable_leaves = |text: &str, which: &str| {
        let tree: Value = serde_json::from_str(text).map_err(|e| format!("{which}: {e}"))?;
        let stable = (tree.as_object().unwrap_or_default().iter())
            .find(|(key, _)| key == "stable")
            .ok_or_else(|| format!("the {which} report has no `stable` section"))?;
        let mut out = Vec::new();
        leaves(&stable.1, "stable".to_owned(), &mut out);
        Ok::<_, String>(out)
    };
    let want = stable_leaves(recorded, "recorded")?;
    let got = stable_leaves(fresh, "fresh")?;
    for (path, w) in &want {
        match got.iter().find(|(p, _)| p == path) {
            None => return Err(format!("`{path}` is recorded but missing")),
            Some((_, g)) if g != w => return Err(format!("`{path}` is {g}, recorded {w}")),
            Some(_) => {}
        }
    }
    match got.iter().find(|(p, _)| !want.iter().any(|(w, _)| w == p)) {
        Some((path, _)) => Err(format!("`{path}` is not recorded")),
        None => Ok(()),
    }
}

/// Every leaf of `v` below `path` as compact JSON text; an empty array
/// or object counts as a leaf.
fn leaves(v: &Value, path: String, out: &mut Vec<(String, String)>) {
    match v {
        Value::Object(entries) if !entries.is_empty() => {
            for (key, x) in entries {
                leaves(x, format!("{path}.{key}"), out);
            }
        }
        Value::Array(items) if !items.is_empty() => {
            for (i, x) in items.iter().enumerate() {
                leaves(x, format!("{path}[{i}]"), out);
            }
        }
        _ => out.push((path, serde_json::to_string(v).expect("leaves are finite"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small report in the unsplit shape an artifact produces.
    fn report(slices: u64, wall_ms: f64) -> Value {
        let row = |ip: &str| {
            Value::Object(vec![
                ("ip".into(), Value::Str(ip.into())),
                ("slices".into(), Value::UInt(slices)),
                ("wall_ms".into(), Value::Float(wall_ms)),
            ])
        };
        Value::Object(vec![
            ("flow_wall_ms".into(), Value::Float(wall_ms * 2.0)),
            ("rows".into(), Value::Array(vec![row("v"), row("rs")])),
            ("speedup_jit".into(), Value::Float(wall_ms / 3.0)),
        ])
    }

    /// `drift` between `report(24, 1.0)` and `fresh`.
    fn drift_from(fresh: &Value) -> Result<(), String> {
        drift(&to_json(&report(24, 1.0)), &to_json(fresh))
    }

    /// `report(24, 1.0)` with `edit` applied to its first row.
    fn with_first_row(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> Value {
        let mut fresh = report(24, 1.0);
        let Value::Object(top) = &mut fresh else {
            unreachable!()
        };
        let Value::Array(rows) = &mut top[1].1 else {
            unreachable!()
        };
        let Value::Object(row) = &mut rows[0] else {
            unreachable!()
        };
        edit(row);
        fresh
    }

    #[test]
    fn split_moves_volatile_keys_under_their_paths() {
        let text = to_json(&report(24, 1.5));
        let tree: Value = serde_json::from_str(&text).unwrap();
        let [(stable, s), (volatile, v)] = tree.as_object().unwrap() else {
            panic!("two sections expected: {text}")
        };
        assert_eq!((stable.as_str(), volatile.as_str()), ("stable", "volatile"));
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "flow_wall_ms",
                "rows[0].wall_ms",
                "rows[1].wall_ms",
                "speedup_jit"
            ]
        );
        assert!(!serde_json::to_string(s).unwrap().contains("wall_ms"));
    }

    #[test]
    fn volatile_differences_pass() {
        assert_eq!(drift_from(&report(24, 99.0)), Ok(()));
    }

    #[test]
    fn a_changed_leaf_fails_naming_its_path() {
        let err = drift_from(&report(25, 1.0)).unwrap_err();
        assert_eq!(err, "`stable.rows[0].slices` is 25, recorded 24");
    }

    #[test]
    fn a_missing_key_fails_naming_its_path() {
        let fresh = with_first_row(|row| row.retain(|(k, _)| k != "ip"));
        let err = drift_from(&fresh).unwrap_err();
        assert_eq!(err, "`stable.rows[0].ip` is recorded but missing");
    }

    #[test]
    fn an_extra_key_fails_naming_its_path() {
        let fresh = with_first_row(|row| row.push(("luts".into(), Value::UInt(3))));
        let err = drift_from(&fresh).unwrap_err();
        assert_eq!(err, "`stable.rows[0].luts` is not recorded");
    }

    #[test]
    fn a_changed_array_length_fails_naming_its_path() {
        let mut fresh = report(24, 1.0);
        let Value::Object(top) = &mut fresh else {
            unreachable!()
        };
        let Value::Array(rows) = &mut top[1].1 else {
            unreachable!()
        };
        rows.pop();
        let err = drift_from(&fresh).unwrap_err();
        assert_eq!(err, "`stable.rows[1].ip` is recorded but missing");
    }

    #[test]
    fn a_changed_kind_and_an_unsplit_baseline_are_named() {
        let fresh = with_first_row(|row| row[1].1 = Value::Array(vec![]));
        let err = drift_from(&fresh).unwrap_err();
        assert_eq!(err, "`stable.rows[0].slices` is [], recorded 24");
        let unsplit = serde_json::to_string(&report(24, 1.0)).unwrap();
        let err = drift(&unsplit, &to_json(&report(24, 1.0))).unwrap_err();
        assert_eq!(err, "the recorded report has no `stable` section");
    }

    /// Every committed baseline has the split shape: only `stable` and
    /// `volatile` at the top, no volatile key left in `stable`, and
    /// every `volatile` entry named by the rule.
    #[test]
    fn committed_baselines_follow_the_schema() {
        fn volatile_keys_in(v: &Value, found: &mut Vec<String>) {
            match v {
                Value::Object(entries) => {
                    for (key, x) in entries {
                        if is_volatile(key) {
                            found.push(key.clone());
                        }
                        volatile_keys_in(x, found);
                    }
                }
                Value::Array(items) => items.iter().for_each(|x| volatile_keys_in(x, found)),
                _ => {}
            }
        }
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files: Vec<_> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        files.sort();
        assert_eq!(files.len(), 7, "{files:?}");
        for name in files {
            let text = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
            let tree: Value = serde_json::from_str(&text).unwrap();
            let sections: Vec<&str> = tree
                .as_object()
                .unwrap_or_default()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(sections, ["stable", "volatile"], "{name}");
            let (stable, volatile) = (
                &tree.as_object().unwrap()[0].1,
                &tree.as_object().unwrap()[1].1,
            );
            let mut leaked = Vec::new();
            volatile_keys_in(stable, &mut leaked);
            assert!(
                leaked.is_empty(),
                "{name}: volatile keys in stable: {leaked:?}"
            );
            let entries = volatile
                .as_object()
                .unwrap_or_else(|| panic!("{name}: volatile is not an object"));
            assert!(!entries.is_empty(), "{name}: nothing volatile");
            for (path, _) in entries {
                let key = path.rsplit('.').next().unwrap();
                assert!(
                    is_volatile(key),
                    "{name}: `{path}` is not volatile by the rule"
                );
            }
        }
    }
}
