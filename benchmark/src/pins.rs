//! Pinned trajectories: per workload and seed, the exact best-fitness
//! bits and work counts the program produced when the pin was taken.
//!
//! A change that alters a trajectory then reads as a failure, not as a
//! speed-up. Pins cover the full preset only; `--write-pins` regenerates
//! them.

use std::collections::BTreeMap;

use serde_json::Value;

/// Flat `key → value` record of one run's deterministic outputs.
pub type Signature = BTreeMap<String, String>;

/// The pins shipped with the benchmark.
const PINS: &str = include_str!("../pins.json");

/// Hexadecimal bits of an `f64`, so a pin compares bit for bit.
pub fn bits(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}

/// All shipped pins: workload → seed → signature.
pub fn load() -> BTreeMap<String, BTreeMap<String, Signature>> {
    parse(PINS)
}

fn parse(text: &str) -> BTreeMap<String, BTreeMap<String, Signature>> {
    let value: Value = serde_json::from_str(text).expect("pins.json is valid JSON");
    let mut out = BTreeMap::new();
    if let Some(workloads) = value.get("workloads").and_then(Value::as_object) {
        for (workload, seeds) in workloads {
            let mut per_seed = BTreeMap::new();
            for (seed, sig) in seeds.as_object().into_iter().flatten() {
                let sig: Signature = sig
                    .as_object()
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_owned()))
                    .collect();
                per_seed.insert(seed.clone(), sig);
            }
            out.insert(workload.clone(), per_seed);
        }
    }
    out
}

/// The pin for `workload` at `seed`, if one was taken.
pub fn lookup(workload: &str, seed: u64) -> Option<Signature> {
    load().get(workload)?.get(&seed.to_string()).cloned()
}

/// Every observed value that differs from its pin or has none. Pinned
/// keys a shorter run did not reach are not compared.
pub fn compare(pin: &Signature, observed: &Signature) -> Vec<String> {
    observed
        .iter()
        .filter_map(|(key, got)| match pin.get(key) {
            Some(want) if want == got => None,
            Some(want) => Some(format!("pin mismatch on {key}: pinned {want}, got {got}")),
            None => Some(format!("observed key {key} has no pin")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_pins_parse() {
        let pins = load();
        for seeds in pins.values() {
            for sig in seeds.values() {
                assert!(!sig.is_empty());
            }
        }
    }

    #[test]
    fn compare_reports_each_difference() {
        let pin: Signature =
            [("a".to_owned(), "1".to_owned()), ("b".to_owned(), "2".to_owned())].into();
        let same = pin.clone();
        assert!(compare(&pin, &same).is_empty());
        let other: Signature =
            [("a".to_owned(), "9".to_owned()), ("c".to_owned(), "3".to_owned())].into();
        assert_eq!(compare(&pin, &other).len(), 2);
        let partial: Signature = [("a".to_owned(), "1".to_owned())].into();
        assert!(compare(&pin, &partial).is_empty());
        assert_eq!(bits(1.0), "0x3ff0000000000000");
    }
}
