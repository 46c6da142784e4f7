//! Parity and totality of the ledger decoder: [`RunRecord::parse_line`]
//! reads records straight off the pull JSON reader, and must accept,
//! reject and decode exactly what the `Value`-tree walker it replaced did
//! (kept here as a test-only reference), except that a field named twice
//! in one object is now rejected. Ledger reads must also survive a tear
//! inside a multi-byte character and arbitrarily deep nesting, each costing
//! one skipped line.

use crate::{
    append_run, load_ledger, BenchReport, RequestTrace, RunRecord, LEDGER_SCHEMA, LEDGER_SCHEMA_MIN,
};
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_telemetry::TelemetrySink;
use benchpark_yamlite::{emit_json, parse_json, JsonReader, Token};
use proptest::test_runner::{ProptestConfig, Runner, TestCaseError, TestRng};

mod reference {
    use super::{LEDGER_SCHEMA, LEDGER_SCHEMA_MIN};
    use crate::{RequestTrace, RunRecord};
    use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
    use benchpark_yamlite::{parse_json, Map, Value};

    /// `RunRecord::parse_line` as it was before the pull-reader decoder:
    /// parse the whole line into a `Value` tree, then move fields out.
    pub fn parse_line(line: &str) -> Result<RunRecord, String> {
        let mut doc = into_map(parse_json(line)?);
        let schema = doc
            .remove("schema")
            .and_then(|v| v.as_int())
            .ok_or("record lacks `schema`")?;
        if !(LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA).contains(&schema) {
            return Err(format!("unknown ledger schema version {schema}"));
        }
        let mut results = Vec::new();
        for item in take_seq(&mut doc, "results").ok_or("record lacks `results`")? {
            results.push(result_from_value(item)?);
        }
        let mut fingerprints = Vec::new();
        for (experiment, fingerprint) in take_map(&mut doc, "fingerprints").unwrap_or_default() {
            let Value::Str(fingerprint) = fingerprint else {
                return Err("fingerprint must be a string".to_string());
            };
            fingerprints.push((experiment, fingerprint));
        }
        let mut counters = Vec::new();
        let mut observations = Vec::new();
        let mut telemetry = doc.remove("telemetry").map(into_map).unwrap_or_default();
        for (name, total) in take_map(&mut telemetry, "counters").unwrap_or_default() {
            let total = total.as_int().ok_or("counter total must be an integer")?;
            // a negative total is corruption, not data — reject the record
            // (the corrupt-line skip path handles it) rather than clamp it
            // into a valid-looking history
            if total < 0 {
                return Err(format!("counter `{name}` total {total} is negative"));
            }
            counters.push((name, total as u64));
        }
        for (name, mean) in take_map(&mut telemetry, "observations").unwrap_or_default() {
            let mean = mean.as_float().ok_or("observation mean must be numeric")?;
            observations.push((name, mean));
        }
        let mut request = None;
        if let Some(mut map) = take_map(&mut doc, "request") {
            let tenant = take_text(&mut map, "tenant", "request trace")?;
            let mut tick = |key: &str| -> Result<u64, String> {
                let value = map
                    .remove(key)
                    .and_then(|v| v.as_int())
                    .ok_or_else(|| format!("request trace lacks `{key}`"))?;
                if value < 0 {
                    return Err(format!("request trace `{key}` {value} is negative"));
                }
                Ok(value as u64)
            };
            request = Some(RequestTrace {
                tenant,
                request_id: tick("request_id")?,
                submit_tick: tick("submit_tick")?,
                queue_wait_ticks: tick("queue_wait_ticks")?,
                schedule_ticks: tick("schedule_ticks")?,
                execute_ticks: tick("execute_ticks")?,
                commit_ticks: tick("commit_ticks")?,
            });
        }
        let sequence = doc
            .remove("sequence")
            .and_then(|v| v.as_int())
            .ok_or("record lacks `sequence`")?;
        if sequence < 0 {
            return Err(format!("sequence {sequence} is negative"));
        }
        Ok(RunRecord {
            sequence: sequence as u64,
            system: take_text(&mut doc, "system", "record")?,
            benchmark: take_text(&mut doc, "benchmark", "record")?,
            variant: take_text(&mut doc, "variant", "record")?,
            manifest: take_text(&mut doc, "manifest", "record")?,
            results,
            fingerprints,
            counters,
            observations,
            request,
        })
    }

    /// The entries of a parsed JSON object; anything else has none, so every
    /// lookup in it reports the field as missing.
    fn into_map(value: Value) -> Map {
        match value {
            Value::Map(map) => map,
            _ => Map::new(),
        }
    }

    /// Moves a string field out of a parsed object, or names it as missing
    /// from `what`.
    fn take_text(map: &mut Map, key: &str, what: &str) -> Result<String, String> {
        match map.remove(key) {
            Some(Value::Str(text)) => Ok(text),
            _ => Err(format!("{what} lacks `{key}`")),
        }
    }

    /// Moves an array field out of a parsed object.
    fn take_seq(map: &mut Map, key: &str) -> Option<Vec<Value>> {
        match map.remove(key)? {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Moves an object field out of a parsed object.
    fn take_map(map: &mut Map, key: &str) -> Option<Map> {
        match map.remove(key)? {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// A two-element array, moved out.
    fn into_pair(value: Value) -> Option<[Value; 2]> {
        match value {
            Value::Seq(items) => items.try_into().ok(),
            _ => None,
        }
    }

    /// [`Value::scalar_string`] by value: a string moves out, other scalars
    /// render, and containers become empty.
    fn into_scalar_string(value: Value) -> String {
        match value {
            Value::Str(text) => text,
            other => other.scalar_string().unwrap_or_default(),
        }
    }

    fn result_from_value(value: Value) -> Result<ExperimentResult, String> {
        const RESULT: &str = "experiment result";
        let mut map = into_map(value);
        let status = match take_text(&mut map, "status", RESULT)?.as_str() {
            "Success" => ExperimentStatus::Success,
            "Failed" => ExperimentStatus::Failed,
            "JobError" => ExperimentStatus::JobError,
            other => return Err(format!("unknown experiment status `{other}`")),
        };
        let mut foms = Vec::new();
        for item in take_seq(&mut map, "foms").ok_or("experiment result lacks `foms`")? {
            let mut fom = into_map(item);
            let context = take_map(&mut fom, "context")
                .unwrap_or_default()
                .into_iter()
                .map(|(k, v)| (k, into_scalar_string(v)))
                .collect();
            foms.push(FomValue {
                name: take_text(&mut fom, "name", "fom")?,
                value: take_text(&mut fom, "value", "fom")?,
                units: take_text(&mut fom, "units", "fom")?,
                context,
            });
        }
        let mut criteria = Vec::new();
        for pair in take_seq(&mut map, "criteria").unwrap_or_default() {
            match into_pair(pair) {
                Some([Value::Str(name), Value::Bool(ok)]) => criteria.push((name, ok)),
                _ => return Err("criterion must be a [name, ok] pair".to_string()),
            }
        }
        let variables = take_map(&mut map, "variables")
            .unwrap_or_default()
            .into_iter()
            .map(|(k, v)| (k, into_scalar_string(v)))
            .collect();
        let mut profile = Vec::new();
        for pair in take_seq(&mut map, "profile").unwrap_or_default() {
            match into_pair(pair) {
                Some([Value::Str(name), seconds]) => profile.push((
                    name,
                    seconds
                        .as_float()
                        .ok_or("profile seconds must be numeric")?,
                )),
                _ => return Err("profile entry must be [name, seconds]".to_string()),
            }
        }
        Ok(ExperimentResult {
            experiment: take_text(&mut map, "experiment", RESULT)?,
            application: take_text(&mut map, "application", RESULT)?,
            workload: take_text(&mut map, "workload", RESULT)?,
            status,
            foms,
            criteria,
            variables,
            profile,
            // absent in schema-1 records: those were all freshly measured
            cached: map
                .remove("cached")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        })
    }

    /// `load_ledger` as it was: the file as one UTF-8 string, split into
    /// lines, each parsed by the reference walker.
    pub fn load(text: &str) -> (Vec<RunRecord>, usize) {
        let (mut runs, mut skipped) = (Vec::new(), 0);
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(line) {
                Ok(mut record) => {
                    record.sequence = runs.len() as u64 + 1;
                    runs.push(record);
                }
                Err(_) => skipped += 1,
            }
        }
        (runs, skipped)
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("benchpark-decode-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// Text the generators draw from: plain names, escapes, controls,
/// multi-byte and astral characters, and the empty string.
const WORDS: &[&str] = &[
    "cts1",
    "stream",
    "n_threads",
    "kernel_time",
    "MB/s",
    "",
    "café",
    "😀",
    "quote\"d",
    "back\\slash",
    "tab\there",
    "line\nbreak",
    "\u{1}ctl",
    "ünïcödé",
    "a b",
    "{n_nodes}",
];

fn generated_result(rng: &mut TestRng, i: u64) -> ExperimentResult {
    let statuses = [
        ExperimentStatus::Success,
        ExperimentStatus::Failed,
        ExperimentStatus::JobError,
    ];
    ExperimentResult {
        experiment: format!("exp_{i}"),
        application: pick(rng, WORDS).to_string(),
        workload: pick(rng, WORDS).to_string(),
        status: statuses[rng.below(3) as usize],
        foms: (0..rng.below(3))
            .map(|_| FomValue {
                name: pick(rng, WORDS).to_string(),
                value: format!("{}", rng.unit_f64() * 1e3),
                units: pick(rng, WORDS).to_string(),
                context: (0..rng.below(3))
                    .map(|_| (pick(rng, WORDS).to_string(), pick(rng, WORDS).to_string()))
                    .collect(),
            })
            .collect(),
        criteria: (0..rng.below(3))
            .map(|_| (pick(rng, WORDS).to_string(), rng.below(2) == 1))
            .collect(),
        variables: (0..rng.below(5))
            .map(|_| (pick(rng, WORDS).to_string(), pick(rng, WORDS).to_string()))
            .collect(),
        profile: (0..rng.below(3))
            .map(|_| {
                let seconds = [0.0, 1.5, 1e-300, 2.9e-8, rng.unit_f64()][rng.below(5) as usize];
                (pick(rng, WORDS).to_string(), seconds)
            })
            .collect(),
        cached: rng.below(2) == 1,
    }
}

/// A generated record, serialized as schema 1, 2 or 3: schema 1 drops the
/// fingerprints and the cached markers, schemas 1 and 2 carry no request
/// trace.
fn generated_line(rng: &mut TestRng) -> String {
    let schema =
        LEDGER_SCHEMA_MIN + rng.below((LEDGER_SCHEMA - LEDGER_SCHEMA_MIN + 1) as u64) as i64;
    let results: Vec<ExperimentResult> = (0..rng.below(4))
        .map(|i| generated_result(rng, i))
        .collect();
    let counter_totals = [0, 1, 42, i64::MAX as u64];
    let mut record = RunRecord {
        sequence: rng.below(1000),
        system: pick(rng, WORDS).to_string(),
        benchmark: pick(rng, WORDS).to_string(),
        variant: pick(rng, WORDS).to_string(),
        manifest: format!(
            "benchmark: {}\n  - {}\n",
            pick(rng, WORDS),
            pick(rng, WORDS)
        ),
        results,
        fingerprints: Vec::new(),
        counters: (0..rng.below(4))
            .map(|i| (format!("c.{i}"), counter_totals[rng.below(4) as usize]))
            .collect(),
        observations: (0..rng.below(3))
            .map(|i| {
                (
                    format!("o.{i}"),
                    [2.5, 0.0, 3.0, 1e300][rng.below(4) as usize],
                )
            })
            .collect(),
        request: None,
    };
    if schema >= 2 {
        record = record.with_fingerprints(
            (0..rng.below(3))
                .map(|i| (format!("exp_{i}"), format!("{:016x}", rng.next_u64())))
                .collect(),
        );
    }
    if schema == 3 && rng.below(2) == 1 {
        record = record.with_request(RequestTrace {
            tenant: pick(rng, WORDS).to_string(),
            request_id: rng.below(100),
            submit_tick: rng.below(100),
            queue_wait_ticks: 0,
            schedule_ticks: rng.below(3),
            execute_ticks: i64::MAX as u64,
            commit_ticks: 1,
        });
    }
    let line =
        record
            .to_json_line()
            .replacen("{\"schema\":3,", &format!("{{\"schema\":{schema},"), 1);
    if schema == 1 {
        line.replace("\"cached\":false,", "")
            .replace("\"cached\":true,", "")
            .replacen("\"fingerprints\":{},", "", 1)
    } else {
        line
    }
}

/// Values a mutation swaps in: each JSON type, `i64` edges, `+1`-style
/// and other odd number lexemes, escapes and surrogate pairs.
const VALUES: &[&str] = &[
    "1",
    "-1",
    "0",
    "+1",
    "1.5",
    "-0",
    "1e3",
    "1E+2",
    ".5",
    "01",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "1e999",
    "\"s\"",
    "\"caf\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud83d\"",
    "\"\\q\"",
    "true",
    "false",
    "null",
    "{}",
    "[]",
    "[\"a\",true]",
    "[\"a\",1.5]",
    "[\"a\",1,2]",
    "{\"a\":[1]}",
    "nul",
    "--1",
    "1.2.3",
];

/// Keys a mutation inserts: fields of every object a record holds (a
/// duplicate where the object already has one, an unknown key elsewhere)
/// and keys no schema defines.
const KEYS: &[&str] = &[
    "schema",
    "sequence",
    "system",
    "benchmark",
    "variant",
    "manifest",
    "request",
    "results",
    "fingerprints",
    "telemetry",
    "counters",
    "observations",
    "experiment",
    "application",
    "workload",
    "status",
    "cached",
    "foms",
    "criteria",
    "variables",
    "profile",
    "name",
    "value",
    "units",
    "context",
    "tenant",
    "request_id",
    "commit_ticks",
    "exp_0",
    "c.0",
    "zz",
    "n_threads",
    "caf\\u00e9",
];

/// Fragments spliced in anywhere: structure, escapes, whitespace, garbage.
const SPLICES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    " ",
    "\t",
    "\r",
    "\n",
    "é",
    "😀",
    "\u{0}",
    "x",
    ",\"zz\":1",
    "]]",
    "}}",
];

fn boundaries(line: &str) -> Vec<usize> {
    line.char_indices()
        .map(|(i, _)| i)
        .chain([line.len()])
        .collect()
}

fn random_boundary(rng: &mut TestRng, line: &str) -> usize {
    let cuts = boundaries(line);
    cuts[rng.below(cuts.len() as u64) as usize]
}

/// Byte offsets where `needle` occurs in `line`.
fn occurrences(line: &str, needle: &str) -> Vec<usize> {
    line.match_indices(needle).map(|(i, _)| i).collect()
}

/// One seeded mutation of a well-formed line: a truncation, a byte flip,
/// a splice, an inserted key (duplicate or unknown), a swapped value, a
/// whitespace insertion, or trailing garbage.
fn mutate(rng: &mut TestRng, line: &str) -> String {
    let at = random_boundary(rng, line);
    match rng.below(8) {
        0 => line[..at].to_string(),
        1 => {
            let flipped = (b' ' + rng.below(95) as u8) as char;
            let next = boundaries(line).into_iter().find(|&b| b > at).unwrap_or(at);
            format!("{}{flipped}{}", &line[..at], &line[next..])
        }
        2 => format!("{}{}{}", &line[..at], pick(rng, SPLICES), &line[at..]),
        3 | 4 => {
            // a key right after some object's `{`
            let opens = occurrences(line, "{");
            if opens.is_empty() {
                return format!("{line}{}", pick(rng, SPLICES));
            }
            let open = opens[rng.below(opens.len() as u64) as usize] + 1;
            let (key, value) = (pick(rng, KEYS), pick(rng, VALUES));
            let comma = if line[open..].starts_with('}') {
                ""
            } else {
                ","
            };
            format!("{}\"{key}\":{value}{comma}{}", &line[..open], &line[open..])
        }
        5 => {
            // swap the value after some `":` for another, up to the next
            // separator (strings holding one get cut: a syntax fault too)
            let colons = occurrences(line, "\":");
            if colons.is_empty() {
                return line[..at].to_string();
            }
            let start = colons[rng.below(colons.len() as u64) as usize] + 2;
            let end = line[start..]
                .find([',', '}', ']'])
                .map_or(line.len(), |i| start + i);
            format!("{}{}{}", &line[..start], pick(rng, VALUES), &line[end..])
        }
        6 => {
            let ws = [" ", "\t", "\r", "\n", "  \r\n "][rng.below(5) as usize];
            let separators: Vec<usize> = line
                .match_indices([',', ':', '{', '}', '[', ']'])
                .map(|(i, _)| i + 1)
                .collect();
            let at = separators
                .get(rng.below(separators.len().max(1) as u64) as usize)
                .copied()
                .unwrap_or(0);
            format!("{}{ws}{}", &line[..at], &line[at..])
        }
        _ => format!("{line}{}", pick(rng, SPLICES)),
    }
}

/// True when some object in `line` names a key twice (the one fault on
/// which the decoder and the reference walker may disagree).
fn repeats_a_key(line: &str) -> bool {
    let mut reader = JsonReader::new(line);
    let mut open: Vec<Option<Vec<String>>> = Vec::new();
    loop {
        match reader.next_token() {
            Ok(Token::ObjectStart) => open.push(Some(Vec::new())),
            Ok(Token::ArrayStart) => open.push(None),
            Ok(Token::ObjectEnd | Token::ArrayEnd) => {
                open.pop();
            }
            Ok(Token::Key(key)) => {
                let keys = open
                    .last_mut()
                    .and_then(|k| k.as_mut())
                    .expect("keys are in objects");
                if keys.iter().any(|k| *k == key) {
                    return true;
                }
                keys.push(key.into_owned());
            }
            Ok(_) => {}
            Err(_) => return false,
        }
        if open.is_empty() {
            return false;
        }
    }
}

/// The decoder against the reference walker on one line: the same
/// outcome, and on success the same record (its `Debug` text and its
/// re-emitted line). The only allowed difference is a field named twice
/// in one object, which the decoder rejects.
fn assert_parity(line: &str) -> Result<bool, TestCaseError> {
    let got = RunRecord::parse_line(line);
    let want = reference::parse_line(line);
    match (&got, &want) {
        (Ok(got), Ok(want)) => {
            if format!("{got:?}") != format!("{want:?}")
                || got.to_json_line() != want.to_json_line()
            {
                return Err(TestCaseError::fail(format!("records differ on {line:?}")));
            }
        }
        (Err(_), Err(_)) => {}
        (Err(_), Ok(_)) if repeats_a_key(line) => {
            // the walker kept the last value of each repeated key; with the
            // repeats gone, the two must agree again
            let deduplicated = emit_json(&parse_json(line).expect("the walker parsed it"));
            if !assert_parity(&deduplicated)? {
                return Err(TestCaseError::fail(format!(
                    "{line:?}: deduplicated, rejected"
                )));
            }
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "{line:?}: decoder {:?}, reference {:?}",
                got.as_ref().err(),
                want.as_ref().err()
            )))
        }
    }
    Ok(got.is_ok())
}

#[test]
fn parse_line_matches_the_value_walker_reference() {
    let (mut accepted, mut rejected) = (0, 0);
    Runner::new(ProptestConfig::with_cases(1500)).run(|rng| {
        let line = generated_line(rng);
        if !assert_parity(&line)? {
            return Err(TestCaseError::fail(format!(
                "generated line rejected: {line}"
            )));
        }
        for _ in 0..4 {
            let mut mutated = mutate(rng, &line);
            if rng.below(4) == 0 {
                mutated = mutate(rng, &mutated);
            }
            if assert_parity(&mutated)? {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        Ok(())
    });
    // mutations land on both sides, so both outcomes are compared
    assert!(
        accepted > 800 && rejected > 800,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Whole files: the loaded runs (re-stamped), the skipped count, and the
/// sequence `append_run` stamps next all match the reference over files
/// mixing generated lines, their mutations, blank lines and CRLF endings.
#[test]
fn load_ledger_matches_the_reference_loader() {
    let dir = temp_dir("load-parity");
    let path = dir.join("ledger.jsonl");
    Runner::new(ProptestConfig::with_cases(150)).run(|rng| {
        let mut text = String::new();
        for _ in 0..rng.below(8) {
            let line = generated_line(rng);
            let line = match rng.below(3) {
                0 => mutate(rng, &line),
                _ => line,
            };
            // lines the two sides judge differently are the duplicate-key
            // rule, covered line by line above
            if RunRecord::parse_line(&line).is_ok() != reference::parse_line(&line).is_ok() {
                continue;
            }
            text.push_str(&line);
            text.push_str(["\n", "\r\n", "\n\n", "\n \t\n"][rng.below(4) as usize]);
        }
        std::fs::write(&path, &text).unwrap();
        let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
        let (runs, skipped) = reference::load(&text);
        let render = |runs: &[RunRecord]| -> Vec<(String, String)> {
            runs.iter()
                .map(|r| (format!("{r:?}"), r.to_json_line()))
                .collect()
        };
        if render(&load.runs) != render(&runs) || load.skipped != skipped {
            return Err(TestCaseError::fail(format!("loads differ on {text:?}")));
        }
        let mut next = record_with_text("next");
        let stamped = append_run(&path, &mut next).unwrap();
        if stamped != runs.len() as u64 + 1 {
            return Err(TestCaseError::fail(format!(
                "append stamped {stamped} on {text:?}"
            )));
        }
        Ok(())
    });
}

/// The duplicate-key rule: a field named twice within one object of a
/// record rejects the line, naming the key and the byte of its second
/// occurrence. Keys no schema defines are never compared.
#[test]
fn parse_line_rejects_a_field_named_twice() {
    let line = record_with_text("x").to_json_line();
    for (needle, doubled, key) in [
        ("{\"schema\":3,", "{\"schema\":3,\"schema\":3,", "schema"),
        (
            "\"status\":\"Success\",",
            "\"status\":\"Success\",\"status\":\"Success\",",
            "status",
        ),
        (
            "\"units\":\"s\"",
            "\"units\":\"s\",\"units\":\"s\"",
            "units",
        ),
        ("\"counters\":{}", "\"counters\":{\"c\":1,\"c\":2}", "c"),
        ("\"variables\":{", "\"variables\":{\"note\":\"a\",", "note"),
    ] {
        assert!(line.contains(needle), "fixture drifted: {needle}");
        let doubled_line = line.replacen(needle, doubled, 1);
        let second = doubled_line
            .match_indices(&format!("\"{key}\":"))
            .nth(1)
            .unwrap()
            .0;
        assert_eq!(
            RunRecord::parse_line(&doubled_line).unwrap_err(),
            format!("duplicate key `{key}` at byte {second}"),
            "{doubled}"
        );
        // the walker took the last value
        assert!(reference::parse_line(&doubled_line).is_ok());
    }
    let unknown = line.replacen("{\"schema\":3,", "{\"zz\":1,\"zz\":2,\"schema\":3,", 1);
    assert!(RunRecord::parse_line(&unknown).is_ok());
}

/// A record with multi-byte text (2-, 3- and 4-byte characters) in its
/// strings.
fn record_with_text(note: &str) -> RunRecord {
    let result = ExperimentResult {
        experiment: "exp_1".to_string(),
        application: "saxpy".to_string(),
        workload: "problem".to_string(),
        status: ExperimentStatus::Success,
        foms: vec![FomValue {
            name: "kernel_time".to_string(),
            value: "0.25".to_string(),
            units: "s".to_string(),
            context: Default::default(),
        }],
        criteria: vec![("pass".to_string(), true)],
        variables: [("note".to_string(), format!("{note} café € 😀"))].into(),
        profile: vec![("main".to_string(), 0.5)],
        cached: false,
    };
    RunRecord::from_run("cts1", "saxpy", "openmp", "manifest", &[result], None)
}

/// A tear anywhere in a record — inside a multi-byte character included —
/// costs exactly that line: the load returns the committed prefix plus
/// one skipped line, and the next append stamps the prefix + 1 and keeps
/// the torn bytes in their own line.
#[test]
fn a_tear_inside_a_multibyte_character_costs_one_line() {
    let dir = temp_dir("utf8-tear");
    let path = dir.join("ledger.jsonl");
    let mut committed = String::new();
    for note in ["first", "second"] {
        committed.push_str(&record_with_text(note).to_json_line());
        committed.push('\n');
    }
    let third = record_with_text("café").to_json_line();
    assert!(
        third.len() > third.chars().count(),
        "the record holds multi-byte text"
    );
    let mut tears_inside_characters = 0;
    for cut in 1..third.len() {
        let mut bytes = committed.clone().into_bytes();
        bytes.extend_from_slice(&third.as_bytes()[..cut]);
        std::fs::write(&path, &bytes).unwrap();
        if !third.is_char_boundary(cut) {
            tears_inside_characters += 1;
        }

        let sink = TelemetrySink::recording();
        let load = load_ledger(&path, &sink).unwrap();
        assert_eq!(load.runs.len(), 2, "cut at byte {cut}");
        assert_eq!(load.skipped, 1, "cut at byte {cut}");
        assert_eq!(sink.report().unwrap().counter("obs.ledger.skipped"), 1);

        let mut next = record_with_text("next");
        assert_eq!(
            append_run(&path, &mut next).unwrap(),
            3,
            "cut at byte {cut}"
        );
        let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
        assert_eq!((load.runs.len(), load.skipped), (3, 1), "cut at byte {cut}");
        assert_eq!(load.runs[2].to_json_line(), next.to_json_line());
    }
    assert!(tears_inside_characters >= 6, "{tears_inside_characters}");
}

/// One line nested 200,000 levels deep is one skipped line, not a stack
/// overflow, for the loader and for `append_run`'s count; the BENCH and
/// status parsers, built on `parse_json`, refuse it with an error.
#[test]
fn a_deeply_nested_line_is_one_skipped_line() {
    let dir = temp_dir("deep");
    let path = dir.join("ledger.jsonl");
    let deep = "[".repeat(200_000);
    let good = record_with_text("good").to_json_line();
    std::fs::write(
        &path,
        format!(
            "{good}\n{deep}\n{{\"a\":{}\n{good}\n",
            "{\"a\":".repeat(200_000)
        ),
    )
    .unwrap();
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!((load.runs.len(), load.skipped), (2, 2));
    assert_eq!(append_run(&path, &mut record_with_text("next")).unwrap(), 3);
    assert!(RunRecord::parse_line(&deep)
        .unwrap_err()
        .starts_with("nesting deeper than"));
    assert!(benchpark_yamlite::parse_json(&deep).is_err());
    assert!(BenchReport::parse(&deep).is_err());
}
