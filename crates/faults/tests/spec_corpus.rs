//! The fault-spec grammars, pinned line by line.
//!
//! `tests/golden/fault_spec_corpus.txt` maps each spec string to what
//! its grammar makes of it: the canonical `Display` form of the parsed
//! spec, or the error text. Each line reads
//! ``<grammar> `<spec>` ok <display>`` or ``<grammar> `<spec>` error <message>``,
//! where `<grammar>` is `server` ([`FaultSpec`]) or `fleet`
//! ([`FleetFaultSpec`]). The corpus covers every key, the bounds of each
//! value kind, NaN and ±inf, malformed and duplicate pairs, every
//! `crash-at` form, and the empty and `none` specs.

use std::fmt::Display;
use std::path::PathBuf;

use aw_faults::{FaultSpec, FleetFaultSpec};

fn outcome(result: Result<impl Display, impl Display>) -> String {
    match result {
        Ok(spec) => format!("ok {spec}"),
        Err(e) => format!("error {e}"),
    }
}

#[test]
fn every_corpus_spec_parses_and_prints_as_pinned() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fault_spec_corpus.txt");
    let corpus = std::fs::read_to_string(&path).expect("corpus file");
    let mut keys_seen = (Vec::new(), Vec::new());
    for line in corpus.lines() {
        let (grammar, rest) = line.split_once(" `").expect("grammar, then a quoted spec");
        let (text, expected) = rest.split_once("` ").expect("a quoted spec, then its outcome");
        let (actual, seen) = match grammar {
            "server" => (outcome(FaultSpec::parse(text)), &mut keys_seen.0),
            "fleet" => (outcome(FleetFaultSpec::parse(text)), &mut keys_seen.1),
            other => panic!("unknown grammar '{other}' in `{line}`"),
        };
        assert_eq!(actual, expected, "{grammar} `{text}`");
        seen.extend(text.split(',').filter_map(|pair| pair.split_once('=')).map(|(k, _)| k.trim()));
    }
    for (keys, seen) in [(FaultSpec::KEYS, &keys_seen.0), (FleetFaultSpec::KEYS, &keys_seen.1)] {
        for key in keys {
            assert!(seen.contains(key), "the corpus never sets `{key}`");
        }
    }
}
