//! The trace schema is declared once, by `asi_sim::trace`'s `trace_events!`
//! table. These tests tie to it what must agree with it: the JSONL bytes
//! of every kind (a fixture the last hand-written codec wrote; six kinds
//! are in no golden run), docs/TRACE_FORMAT.md, and what the reader does
//! with input the writer did not produce.

use asi_core::{Algorithm, DiscoveryTrigger};
use asi_harness::report::{trace_record_from_json, trace_record_to_json};
use asi_harness::{json, trace_from_jsonl, trace_to_jsonl, Json};
use asi_sim::{FieldType, SimDuration, SimTime, TraceEvent, TraceKind, TraceRecord, TraceValue};
use proptest::prelude::*;
use std::collections::BTreeSet;

const FIXTURE: &str = include_str!("data/trace_one_of_each.jsonl");
const FORMAT_DOC: &str = include_str!("../../../docs/TRACE_FORMAT.md");

/// First integer a JSON number no longer holds exactly.
const INEXACT: u64 = 1 << 53;

fn tags() -> BTreeSet<&'static str> {
    TraceEvent::KINDS.iter().map(|kind| kind.tag).collect()
}

/// An in-range value for a field, picked by `raw`.
fn in_range(name: &str, ty: FieldType, raw: u64) -> Option<TraceValue> {
    let spellings = match name {
        "algorithm" => Algorithm::all().map(|a| a.name()).to_vec(),
        "trigger" => DiscoveryTrigger::all().map(|t| t.tag()).to_vec(),
        _ => Vec::new(),
    };
    Some(match ty {
        FieldType::Uint(bits) => TraceValue::Uint(raw % INEXACT.min(1 << bits.min(63))),
        FieldType::Bool => TraceValue::Bool(raw % 2 == 1),
        FieldType::Str => TraceValue::Str(spellings.get(raw as usize % spellings.len().max(1))?),
        FieldType::Duration => TraceValue::Duration(SimDuration::from_ps(raw % INEXACT)),
    })
}

/// A record of `kind` whose time and fields `raws` pick, all in range.
fn record(kind: &TraceKind, raws: &[u64]) -> TraceRecord {
    let mut raws = raws.iter().copied();
    let time = SimTime::from_ps(raws.next().unwrap() % INEXACT);
    let event = TraceEvent::from_fields(kind.tag, |name, ty| in_range(name, ty, raws.next()?));
    let event = event.expect("a string field needs its spellings in `in_range`");
    TraceRecord { time, event }
}

#[test]
fn parent_written_fixture_reserialises_byte_identically() {
    let records = trace_from_jsonl(FIXTURE).unwrap();
    assert_eq!(trace_to_jsonl(&records), FIXTURE);
    // One line per row of the table: a new row needs a fixture line.
    assert_eq!(records.len(), TraceEvent::KINDS.len());
    let in_fixture: BTreeSet<&str> = records.iter().map(|r| r.event.kind()).collect();
    assert_eq!(in_fixture, tags());
}

#[test]
fn generated_samples_round_trip() {
    // Every field near the top of its range and unlike its neighbours, so
    // a narrowed or swapped field shows.
    let mut raw = u64::MAX;
    let samples = TraceEvent::samples(|name, ty| {
        raw -= 1;
        in_range(name, ty, raw)
    });
    let time = SimTime::ZERO;
    let stamp = |event| TraceRecord { time, event };
    let records: Vec<TraceRecord> = samples.unwrap().into_iter().map(stamp).collect();
    assert_eq!(records.len(), TraceEvent::KINDS.len());
    let text = trace_to_jsonl(&records);
    assert_eq!(trace_from_jsonl(&text).unwrap(), records);
}

#[test]
fn format_doc_has_a_row_for_every_kind_naming_every_key() {
    let start = FORMAT_DOC.find("## Event kinds").unwrap();
    let end = FORMAT_DOC.find("## Consuming a trace").unwrap();
    let mut documented = BTreeSet::new();
    let rows = FORMAT_DOC[start..end].lines();
    // A table opens `| \`event\` | payload | fired when |`.
    for row in rows.filter(|l| l.starts_with("| `") && !l.starts_with("| `event` |")) {
        // `| \`tag\` | payload | fired when |`; a `\|` is text, not a cell edge.
        let row = row.replace("\\|", "/");
        let cells: Vec<&str> = row.split('|').collect();
        let tag = cells[1].trim().trim_matches('`');
        let kind = TraceEvent::KINDS.iter().find(|kind| kind.tag == tag);
        let kind = kind.unwrap_or_else(|| panic!("`{tag}` is documented but not in the table"));
        assert!(documented.insert(kind.tag), "`{tag}` is documented twice");
        let named: BTreeSet<&str> = cells[2].split('`').skip(1).step_by(2).collect();
        // The JSONL rule, restated: a `SimDuration` field `x` is keyed `x_ps`.
        let key = |&(name, ty): &(&str, _)| match ty {
            FieldType::Duration => format!("{name}_ps"),
            _ => name.to_string(),
        };
        let keys: Vec<String> = kind.fields.iter().map(key).collect();
        let keys: BTreeSet<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(named, keys, "payload cell of `{tag}`");
    }
    assert_eq!(documented, tags(), "kinds with a row in the doc");
}

/// What a field must not be read from, whatever its type — or, where one
/// fits it (a `true` for a flag, a 256 for a `u16`), must be read as
/// exactly that. `None` drops the key.
fn hostile() -> Vec<Option<Json>> {
    let too_wide = [8, 16, 32, 53].map(|bits| (1u64 << bits) as f64);
    let numbers = too_wide
        .into_iter()
        .chain([-1.0, 0.5, 1e300])
        .map(Json::from);
    let others = [Json::Null, true.into(), "7".into(), "Quantum".into()];
    numbers.chain(others).map(Some).chain([None]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any record with in-range fields survives the text and back.
    #[test]
    fn in_range_records_survive_the_text(
        kind in any::<prop::sample::Index>(),
        raws in proptest::collection::vec(any::<u64>(), 9),
    ) {
        let record = record(kind.get(TraceEvent::KINDS), &raws);
        let text = trace_record_to_json(&record).to_string_compact();
        let parsed = trace_record_from_json(&json::parse(&text).unwrap());
        prop_assert_eq!(parsed, Some(record));
    }

    /// A written object with some keys dropped or made hostile either
    /// does not parse or parses to a record that renders as that very
    /// object: the reader never panics, wraps, saturates or invents.
    #[test]
    fn tampered_objects_parse_faithfully_or_not_at_all(
        kind in any::<prop::sample::Index>(),
        raws in proptest::collection::vec(any::<u64>(), 9),
        picks in proptest::collection::vec(0usize..36, 6),
    ) {
        let Json::Obj(written) = trace_record_to_json(&record(kind.get(TraceEvent::KINDS), &raws))
        else { unreachable!() };
        let hostile = hostile();
        let tamper = |((key, value), pick): ((String, Json), &usize)| match hostile.get(*pick) {
            Some(swap) => Some((key, swap.clone()?)),
            None => Some((key, value)),
        };
        let obj = Json::Obj(written.into_iter().zip(&picks).filter_map(tamper).collect());
        if let Some(record) = trace_record_from_json(&obj) {
            prop_assert_eq!(trace_record_to_json(&record), obj);
        }
    }
}
