//! The durable run ledger: one self-contained JSONL record per pipeline
//! invocation (paper §3.3, Figure 6 — the *persistent* metrics database the
//! continuous-benchmarking loop ends in).
//!
//! Every `benchpark trace … --export` appends one line to the ledger; later
//! invocations of `benchpark history` / `benchpark regress` replay those
//! lines through [`crate::regression`], so baselines span real prior
//! process lifetimes instead of one in-memory session.
//!
//! Design constraints, in order:
//!
//! * **Self-contained** — each line carries the run's provenance (system,
//!   benchmark/variant, the exact experiment manifest), every experiment
//!   result with FOMs, and a telemetry summary. A collaborator can append
//!   their lines to yours and the history still makes sense.
//! * **Deterministic** — records are emitted through
//!   [`benchpark_yamlite::emit_json`] with fixed field order, and the
//!   telemetry summary excludes *volatile* metrics (wall-clock or
//!   worker-count dependent, see
//!   [`benchpark_telemetry::TelemetryReport::volatile_observations`]), so a
//!   `--jobs 1` and a `--jobs 8` run of the same pipeline append
//!   byte-identical records.
//! * **Corruption-tolerant** — a truncated or garbled line (the process
//!   died mid-append, a careless merge) is skipped and counted under the
//!   `obs.ledger.skipped` telemetry counter; the surrounding history stays
//!   loadable. That holds for a tear inside a multi-byte character (lines
//!   are split as bytes, and one that is not UTF-8 is corrupt), for a line
//!   nested deeper than [`benchpark_yamlite::MAX_JSON_DEPTH`], and for a
//!   record that names a field twice in one object.
//! * **Versioned** — each record carries `schema`; records with an
//!   unrecognized version are skipped like corrupt lines rather than
//!   misread. This build writes schema 3 (which adds the optional
//!   [`RequestTrace`] block the serve daemon stamps: tenant, request id,
//!   and per-stage virtual-tick durations) and still reads schema 2
//!   (per-experiment content-addressed fingerprints, see
//!   [`crate::fingerprint`], and a `cached` provenance marker per result)
//!   and schema-1 lines. An older record simply carries no fingerprints
//!   and/or no request trace — it can never satisfy a fingerprint lookup
//!   and reports absent stage timings, but stays fully usable for
//!   `history`/`regress`.

use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_telemetry::{TelemetryReport, TelemetrySink};
use benchpark_yamlite::{emit_json, JsonReader, Map, Token, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The ledger schema version this build writes.
pub const LEDGER_SCHEMA: i64 = 3;

/// The oldest schema version this build still reads. Records outside
/// `LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA` are skipped as unknown.
pub const LEDGER_SCHEMA_MIN: i64 = 1;

/// The request-scoped trace the serve daemon stamps onto a record at
/// commit (schema 3): who asked, and how long each service stage took in
/// the daemon's virtual clock. All tick values are deterministic functions
/// of the submission sequence — identical at any worker count. Absent on
/// one-shot (`benchpark trace`) records and on schema-1/2 history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// The submitting tenant.
    pub tenant: String,
    /// Global intake sequence number (1-based).
    pub request_id: u64,
    /// Daemon virtual-clock tick at admission.
    pub submit_tick: u64,
    /// Ticks spent queued between admission and the DRR pick.
    pub queue_wait_ticks: u64,
    /// Dispatch offset within the picked batch (pick-order position).
    pub schedule_ticks: u64,
    /// Virtual execution time: the summed stable virtual-seconds of the
    /// run's simulated phases (cluster drains), rounded to ticks.
    pub execute_ticks: u64,
    /// Position in the batch's serialized commit sequence (1-based).
    pub commit_ticks: u64,
}

/// One pipeline invocation, as persisted in the ledger.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Monotonic position in the ledger, assigned by [`append_run`]
    /// (1-based; 0 until appended).
    pub sequence: u64,
    /// System profile the run executed on.
    pub system: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Experiment variant (programming model).
    pub variant: String,
    /// The exact experiment manifest, for functional reproduction.
    pub manifest: String,
    /// Every experiment result of the run.
    pub results: Vec<ExperimentResult>,
    /// Content-addressed fingerprint per experiment (experiment name →
    /// canonical hex, sorted by name; empty for replayed schema-1 records).
    /// This is what lets a later run recognize "nothing changed" and splice
    /// this record's FOMs instead of re-executing.
    pub fingerprints: Vec<(String, String)>,
    /// Telemetry counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Means of *stable* observation streams, sorted by name (volatile
    /// streams are excluded by construction).
    pub observations: Vec<(String, f64)>,
    /// The serve daemon's request trace (schema 3); `None` for one-shot
    /// runs and for records replayed from schema-1/2 history.
    pub request: Option<RequestTrace>,
}

impl RunRecord {
    /// Builds a record from one run's outputs. The telemetry summary keeps
    /// counters and stable observation means only.
    pub fn from_run(
        system: &str,
        benchmark: &str,
        variant: &str,
        manifest: &str,
        results: &[ExperimentResult],
        report: Option<&TelemetryReport>,
    ) -> RunRecord {
        let mut counters = Vec::new();
        let mut observations = Vec::new();
        if let Some(report) = report {
            for (name, total) in report.sorted_counters() {
                counters.push((name.to_string(), total));
            }
            for (name, stats) in report.sorted_observations() {
                if !report.is_volatile_observation(name) {
                    observations.push((name.to_string(), stats.mean()));
                }
            }
        }
        RunRecord {
            sequence: 0,
            system: system.to_string(),
            benchmark: benchmark.to_string(),
            variant: variant.to_string(),
            manifest: manifest.to_string(),
            results: results.to_vec(),
            fingerprints: Vec::new(),
            counters,
            observations,
            request: None,
        }
    }

    /// Attaches per-experiment fingerprints (experiment name → canonical
    /// hex); pairs are sorted by experiment name for deterministic
    /// serialization.
    pub fn with_fingerprints(mut self, mut fingerprints: Vec<(String, String)>) -> RunRecord {
        fingerprints.sort();
        self.fingerprints = fingerprints;
        self
    }

    /// Attaches the serve daemon's request trace (schema 3).
    pub fn with_request(mut self, request: RequestTrace) -> RunRecord {
        self.request = Some(request);
        self
    }

    /// Serializes the record as one JSON line (no trailing newline). Field
    /// order is fixed, so equal records serialize byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut root = Map::new();
        root.insert("schema", Value::Int(LEDGER_SCHEMA));
        root.insert("sequence", Value::Int(self.sequence as i64));
        root.insert("system", Value::str(self.system.clone()));
        root.insert("benchmark", Value::str(self.benchmark.clone()));
        root.insert("variant", Value::str(self.variant.clone()));
        root.insert("manifest", Value::str(self.manifest.clone()));
        if let Some(trace) = &self.request {
            let mut request = Map::new();
            request.insert("tenant", Value::str(trace.tenant.clone()));
            request.insert("request_id", Value::Int(trace.request_id as i64));
            request.insert("submit_tick", Value::Int(trace.submit_tick as i64));
            request.insert(
                "queue_wait_ticks",
                Value::Int(trace.queue_wait_ticks as i64),
            );
            request.insert("schedule_ticks", Value::Int(trace.schedule_ticks as i64));
            request.insert("execute_ticks", Value::Int(trace.execute_ticks as i64));
            request.insert("commit_ticks", Value::Int(trace.commit_ticks as i64));
            root.insert("request", Value::Map(request));
        }
        root.insert(
            "results",
            Value::Seq(self.results.iter().map(result_to_value).collect()),
        );
        let mut fingerprints = Map::new();
        for (experiment, fingerprint) in &self.fingerprints {
            fingerprints.insert(experiment, Value::str(fingerprint.clone()));
        }
        root.insert("fingerprints", Value::Map(fingerprints));
        let mut telemetry = Map::new();
        let mut counters = Map::new();
        for (name, total) in &self.counters {
            counters.insert(name, Value::Int(*total as i64));
        }
        telemetry.insert("counters", Value::Map(counters));
        let mut observations = Map::new();
        for (name, mean) in &self.observations {
            observations.insert(name, Value::Float(*mean));
        }
        telemetry.insert("observations", Value::Map(observations));
        root.insert("telemetry", Value::Map(telemetry));
        emit_json(&Value::Map(root))
    }

    /// Parses one ledger line. Fails on malformed JSON, a missing required
    /// field, a malformed field value, a field named twice in one object,
    /// or an unknown schema version.
    ///
    /// The record is decoded straight from the line's tokens in file order:
    /// no document tree is built, and each string is copied once, into the
    /// record. Keys the schema does not define are skipped once their
    /// values are checked for syntax.
    pub fn parse_line(line: &str) -> Result<RunRecord, String> {
        let mut r = JsonReader::new(line);
        let first = r.next_token()?;
        if first != Token::ObjectStart {
            // a line that is not an object lacks every field, the schema first
            r.skip(&first)?;
            r.finish()?;
            return Err("record lacks `schema`".to_string());
        }
        let mut has_schema = false;
        let (mut sequence, mut results) = (None, None);
        let (mut system, mut benchmark, mut variant, mut manifest) = (None, None, None, None);
        let mut fingerprints = Vec::new();
        let (mut counters, mut observations) = (Vec::new(), Vec::new());
        let mut request = None;
        let mut seen = 0;
        while let Some(key) = next_field(&mut r, RECORD_FIELDS, &mut seen)? {
            match key {
                "schema" => {
                    let version = int(r.next_token()?).ok_or("record lacks `schema`")?;
                    if !(LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA).contains(&version) {
                        return Err(format!("unknown ledger schema version {version}"));
                    }
                    has_schema = true;
                }
                "sequence" => {
                    let value = int(r.next_token()?).ok_or("record lacks `sequence`")?;
                    if value < 0 {
                        return Err(format!("sequence {value} is negative"));
                    }
                    sequence = Some(value as u64);
                }
                "system" => system = Some(text(&mut r, "record lacks `system`")?),
                "benchmark" => benchmark = Some(text(&mut r, "record lacks `benchmark`")?),
                "variant" => variant = Some(text(&mut r, "record lacks `variant`")?),
                "manifest" => manifest = Some(text(&mut r, "record lacks `manifest`")?),
                "request" => request = read_request(&mut r)?,
                "results" => {
                    if r.next_token()? != Token::ArrayStart {
                        return Err("record lacks `results`".to_string());
                    }
                    let mut items = Vec::new();
                    while let Some(first) = element(&mut r)? {
                        items.push(read_result(&mut r, first)?);
                    }
                    results = Some(items);
                }
                "fingerprints" => {
                    fingerprints = entries(&mut r, |_, _, value| match value {
                        Token::Str(fingerprint) => Ok(fingerprint.into_owned()),
                        _ => Err("fingerprint must be a string".to_string()),
                    })?;
                }
                "telemetry" => read_telemetry(&mut r, &mut counters, &mut observations)?,
                _ => unreachable!("every name in RECORD_FIELDS has an arm"),
            }
        }
        r.finish()?;
        if !has_schema {
            return Err("record lacks `schema`".to_string());
        }
        // missing fields are named in the order the ledger always used
        Ok(RunRecord {
            results: results.ok_or("record lacks `results`")?,
            sequence: sequence.ok_or("record lacks `sequence`")?,
            system: system.ok_or("record lacks `system`")?,
            benchmark: benchmark.ok_or("record lacks `benchmark`")?,
            variant: variant.ok_or("record lacks `variant`")?,
            manifest: manifest.ok_or("record lacks `manifest`")?,
            fingerprints,
            counters,
            observations,
            request,
        })
    }

    /// Total for a named counter in this record's telemetry summary.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or(0)
    }

    /// How many of this record's experiments did not succeed.
    pub fn failed_experiments(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status != ExperimentStatus::Success)
            .count()
    }
}

fn result_to_value(result: &ExperimentResult) -> Value {
    let mut rec = Map::new();
    rec.insert("experiment", Value::str(result.experiment.clone()));
    rec.insert("application", Value::str(result.application.clone()));
    rec.insert("workload", Value::str(result.workload.clone()));
    rec.insert("status", Value::str(format!("{:?}", result.status)));
    rec.insert("cached", Value::Bool(result.cached));
    let mut foms = Vec::new();
    for f in &result.foms {
        let mut fom = Map::new();
        fom.insert("name", Value::str(f.name.clone()));
        fom.insert("value", Value::str(f.value.clone()));
        fom.insert("units", Value::str(f.units.clone()));
        if !f.context.is_empty() {
            let mut context = Map::new();
            for (k, v) in &f.context {
                context.insert(k, Value::str(v.clone()));
            }
            fom.insert("context", Value::Map(context));
        }
        foms.push(Value::Map(fom));
    }
    rec.insert("foms", Value::Seq(foms));
    rec.insert(
        "criteria",
        Value::Seq(
            result
                .criteria
                .iter()
                .map(|(name, ok)| Value::Seq(vec![Value::str(name.clone()), Value::Bool(*ok)]))
                .collect(),
        ),
    );
    let mut variables = Map::new();
    for (k, v) in &result.variables {
        variables.insert(k, Value::str(v.clone()));
    }
    rec.insert("variables", Value::Map(variables));
    // profiles come from virtual-time execution, so they are deterministic
    // and safe to persist
    rec.insert(
        "profile",
        Value::Seq(
            result
                .profile
                .iter()
                .map(|(name, seconds)| {
                    Value::Seq(vec![Value::str(name.clone()), Value::Float(*seconds)])
                })
                .collect(),
        ),
    );
    Value::Map(rec)
}

// The record decoder's field lists: the keys each object of a record
// defines. Other keys are skipped; one of these named twice in the same
// object rejects the line.
const RECORD_FIELDS: &[&str] = &[
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
];
const REQUEST_FIELDS: &[&str] = &[
    "tenant",
    "request_id",
    "submit_tick",
    "queue_wait_ticks",
    "schedule_ticks",
    "execute_ticks",
    "commit_ticks",
];
const RESULT_FIELDS: &[&str] = &[
    "experiment",
    "application",
    "workload",
    "status",
    "cached",
    "foms",
    "criteria",
    "variables",
    "profile",
];
const FOM_FIELDS: &[&str] = &["name", "value", "units", "context"];
const TELEMETRY_FIELDS: &[&str] = &["counters", "observations"];

/// The next key of the object being read that `fields` lists, with the
/// reader before its value; `None` at the object's end. The values of
/// other keys are skipped. `seen` holds one bit per entry of `fields`, so a
/// field named twice is an error at its second key.
fn next_field(
    r: &mut JsonReader<'_>,
    fields: &[&'static str],
    seen: &mut u32,
) -> Result<Option<&'static str>, String> {
    while let Token::Key(key) = r.next_token()? {
        match fields.iter().position(|field| *field == key) {
            Some(i) if *seen & (1 << i) != 0 => {
                return Err(format!("duplicate key `{key}` at byte {}", r.offset()))
            }
            Some(i) => {
                *seen |= 1 << i;
                return Ok(Some(fields[i]));
            }
            None => {
                let value = r.next_token()?;
                r.skip(&value)?;
            }
        }
    }
    Ok(None)
}

/// The first token of the next element of the array being read, or `None`
/// at its end.
fn element<'a>(r: &mut JsonReader<'a>) -> Result<Option<Token<'a>>, String> {
    match r.next_token()? {
        Token::ArrayEnd => Ok(None),
        token => Ok(Some(token)),
    }
}

/// Reads a name-keyed object (fingerprints, counters, observations,
/// variables, a FOM's context) into `(name, value)` pairs in file order,
/// decoding each value from its first token with `value`. A field that is
/// not an object is skipped and reads as empty, as if absent. A name
/// repeated within the object is an error.
fn entries<'a, T>(
    r: &mut JsonReader<'a>,
    mut value: impl FnMut(&mut JsonReader<'a>, &str, Token<'a>) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    let mut pairs: Vec<(String, T)> = Vec::new();
    let first = r.next_token()?;
    if first != Token::ObjectStart {
        r.skip(&first)?;
        return Ok(pairs);
    }
    // the ledger writes these objects sorted by name: while they stay
    // sorted, a name above the last one is new without a scan
    let mut sorted = true;
    while let Token::Key(name) = r.next_token()? {
        let repeated = match pairs.last() {
            Some((last, _)) if !(sorted && **last < *name) => {
                sorted = false;
                pairs.iter().any(|(seen, _)| **seen == *name)
            }
            _ => false,
        };
        if repeated {
            return Err(format!("duplicate key `{name}` at byte {}", r.offset()));
        }
        let token = r.next_token()?;
        let decoded = value(r, &name, token)?;
        pairs.push((name.into_owned(), decoded));
    }
    Ok(pairs)
}

/// Reads a string field, or fails with `missing` when the value is
/// anything else.
fn text(r: &mut JsonReader<'_>, missing: &str) -> Result<String, String> {
    match r.next_token()? {
        Token::Str(text) => Ok(text.into_owned()),
        _ => Err(missing.to_string()),
    }
}

fn int(token: Token<'_>) -> Option<i64> {
    match token {
        Token::Int(i) => Some(i),
        _ => None,
    }
}

/// A float, or an integer read as one.
fn float(token: Token<'_>) -> Option<f64> {
    match token {
        Token::Float(f) => Some(f),
        Token::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// A value as [`Value::scalar_string`] renders it: a string verbatim,
/// another scalar in its canonical text, and a container (skipped) as
/// empty.
fn scalar_text<'a>(r: &mut JsonReader<'a>, token: Token<'a>) -> Result<String, String> {
    Ok(match token {
        Token::Str(text) => text.into_owned(),
        Token::ObjectStart | Token::ArrayStart => {
            r.skip(&token)?;
            String::new()
        }
        scalar => scalar
            .into_scalar()
            .and_then(|value| value.scalar_string())
            .unwrap_or_default(),
    })
}

/// Reads a value that must be a two-element array; each element is its
/// first token (a container element is skipped). Anything else fails
/// with `shape`.
fn pair<'a>(
    r: &mut JsonReader<'a>,
    first: Token<'a>,
    shape: &str,
) -> Result<(Token<'a>, Token<'a>), String> {
    if first != Token::ArrayStart {
        return Err(shape.to_string());
    }
    let member = |r: &mut JsonReader<'a>| -> Result<Token<'a>, String> {
        let token = element(r)?.ok_or_else(|| shape.to_string())?;
        r.skip(&token)?;
        Ok(token)
    };
    let (a, b) = (member(r)?, member(r)?);
    if element(r)?.is_some() {
        return Err(shape.to_string());
    }
    Ok((a, b))
}

fn read_telemetry(
    r: &mut JsonReader<'_>,
    counters: &mut Vec<(String, u64)>,
    observations: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let first = r.next_token()?;
    if first != Token::ObjectStart {
        return r.skip(&first);
    }
    let mut seen = 0;
    while let Some(key) = next_field(r, TELEMETRY_FIELDS, &mut seen)? {
        match key {
            "counters" => {
                *counters = entries(r, |_, name, total| {
                    let total = int(total).ok_or("counter total must be an integer")?;
                    // a negative total is corruption, not data — reject the
                    // record (the corrupt-line skip path handles it) rather
                    // than clamp it into a valid-looking history
                    if total < 0 {
                        return Err(format!("counter `{name}` total {total} is negative"));
                    }
                    Ok(total as u64)
                })?;
            }
            "observations" => {
                *observations = entries(r, |_, _, mean| {
                    float(mean).ok_or_else(|| "observation mean must be numeric".to_string())
                })?;
            }
            _ => unreachable!("every name in TELEMETRY_FIELDS has an arm"),
        }
    }
    Ok(())
}

/// Reads the `request` field: `None` when it is not an object.
fn read_request(r: &mut JsonReader<'_>) -> Result<Option<RequestTrace>, String> {
    let first = r.next_token()?;
    if first != Token::ObjectStart {
        r.skip(&first)?;
        return Ok(None);
    }
    let mut tenant = None;
    let (mut request_id, mut submit_tick, mut queue_wait_ticks) = (None, None, None);
    let (mut schedule_ticks, mut execute_ticks, mut commit_ticks) = (None, None, None);
    let mut seen = 0;
    while let Some(key) = next_field(r, REQUEST_FIELDS, &mut seen)? {
        let slot = match key {
            "tenant" => {
                tenant = Some(text(r, "request trace lacks `tenant`")?);
                continue;
            }
            "request_id" => &mut request_id,
            "submit_tick" => &mut submit_tick,
            "queue_wait_ticks" => &mut queue_wait_ticks,
            "schedule_ticks" => &mut schedule_ticks,
            "execute_ticks" => &mut execute_ticks,
            "commit_ticks" => &mut commit_ticks,
            _ => unreachable!("every name in REQUEST_FIELDS has an arm"),
        };
        let value = int(r.next_token()?).ok_or_else(|| format!("request trace lacks `{key}`"))?;
        if value < 0 {
            return Err(format!("request trace `{key}` {value} is negative"));
        }
        *slot = Some(value as u64);
    }
    let tick =
        |value: Option<u64>, key: &str| value.ok_or_else(|| format!("request trace lacks `{key}`"));
    Ok(Some(RequestTrace {
        tenant: tenant.ok_or("request trace lacks `tenant`")?,
        request_id: tick(request_id, "request_id")?,
        submit_tick: tick(submit_tick, "submit_tick")?,
        queue_wait_ticks: tick(queue_wait_ticks, "queue_wait_ticks")?,
        schedule_ticks: tick(schedule_ticks, "schedule_ticks")?,
        execute_ticks: tick(execute_ticks, "execute_ticks")?,
        commit_ticks: tick(commit_ticks, "commit_ticks")?,
    }))
}

/// Reads one element of `results`, whose first token is `first`.
fn read_result<'a>(r: &mut JsonReader<'a>, first: Token<'a>) -> Result<ExperimentResult, String> {
    if first != Token::ObjectStart {
        return Err("experiment result lacks `status`".to_string());
    }
    let (mut experiment, mut application, mut workload) = (None, None, None);
    let (mut status, mut foms) = (None, None);
    let mut cached = false;
    let mut criteria = Vec::new();
    let mut variables = BTreeMap::new();
    let mut profile = Vec::new();
    let mut seen = 0;
    while let Some(key) = next_field(r, RESULT_FIELDS, &mut seen)? {
        match key {
            "experiment" => experiment = Some(text(r, "experiment result lacks `experiment`")?),
            "application" => application = Some(text(r, "experiment result lacks `application`")?),
            "workload" => workload = Some(text(r, "experiment result lacks `workload`")?),
            "status" => {
                status = Some(
                    match text(r, "experiment result lacks `status`")?.as_str() {
                        "Success" => ExperimentStatus::Success,
                        "Failed" => ExperimentStatus::Failed,
                        "JobError" => ExperimentStatus::JobError,
                        other => return Err(format!("unknown experiment status `{other}`")),
                    },
                )
            }
            // absent in schema-1 records: those were all freshly measured
            "cached" => {
                let token = r.next_token()?;
                r.skip(&token)?;
                cached = token == Token::Bool(true);
            }
            "foms" => {
                if r.next_token()? != Token::ArrayStart {
                    return Err("experiment result lacks `foms`".to_string());
                }
                let mut items = Vec::new();
                while let Some(first) = element(r)? {
                    items.push(read_fom(r, first)?);
                }
                foms = Some(items);
            }
            "criteria" => {
                let first = r.next_token()?;
                if first != Token::ArrayStart {
                    r.skip(&first)?;
                    continue;
                }
                const CRITERION: &str = "criterion must be a [name, ok] pair";
                while let Some(first) = element(r)? {
                    match pair(r, first, CRITERION)? {
                        (Token::Str(name), Token::Bool(ok)) => {
                            criteria.push((name.into_owned(), ok))
                        }
                        _ => return Err(CRITERION.to_string()),
                    }
                }
            }
            "variables" => {
                // one bulk build from the pairs costs less than inserting
                // them one by one
                variables = entries(r, |r, _, value| scalar_text(r, value))?
                    .into_iter()
                    .collect();
            }
            "profile" => {
                let first = r.next_token()?;
                if first != Token::ArrayStart {
                    r.skip(&first)?;
                    continue;
                }
                const ENTRY: &str = "profile entry must be [name, seconds]";
                while let Some(first) = element(r)? {
                    match pair(r, first, ENTRY)? {
                        (Token::Str(name), seconds) => profile.push((
                            name.into_owned(),
                            float(seconds).ok_or("profile seconds must be numeric")?,
                        )),
                        _ => return Err(ENTRY.to_string()),
                    }
                }
            }
            _ => unreachable!("every name in RESULT_FIELDS has an arm"),
        }
    }
    // missing fields are named in the order the ledger always used
    Ok(ExperimentResult {
        status: status.ok_or("experiment result lacks `status`")?,
        foms: foms.ok_or("experiment result lacks `foms`")?,
        experiment: experiment.ok_or("experiment result lacks `experiment`")?,
        application: application.ok_or("experiment result lacks `application`")?,
        workload: workload.ok_or("experiment result lacks `workload`")?,
        criteria,
        variables,
        profile,
        cached,
    })
}

/// Reads one FOM, whose first token is `first`.
fn read_fom<'a>(r: &mut JsonReader<'a>, first: Token<'a>) -> Result<FomValue, String> {
    if first != Token::ObjectStart {
        return Err("fom lacks `name`".to_string());
    }
    let (mut name, mut value, mut units) = (None, None, None);
    let mut context = BTreeMap::new();
    let mut seen = 0;
    while let Some(key) = next_field(r, FOM_FIELDS, &mut seen)? {
        match key {
            "name" => name = Some(text(r, "fom lacks `name`")?),
            "value" => value = Some(text(r, "fom lacks `value`")?),
            "units" => units = Some(text(r, "fom lacks `units`")?),
            "context" => {
                context = entries(r, |r, _, value| scalar_text(r, value))?
                    .into_iter()
                    .collect();
            }
            _ => unreachable!("every name in FOM_FIELDS has an arm"),
        }
    }
    Ok(FomValue {
        name: name.ok_or("fom lacks `name`")?,
        value: value.ok_or("fom lacks `value`")?,
        units: units.ok_or("fom lacks `units`")?,
        context,
    })
}

/// Appends one record to the ledger at `path`, creating the file if needed.
/// The record's `sequence` is stamped from the ledger's current count of
/// *valid* records — the same criterion [`load_ledger`] re-stamps by — so
/// persisted and replayed sequence numbers agree even when corrupt or
/// unknown-schema lines sit in the file (a count of raw lines would
/// diverge as soon as one line is garbled). The file is streamed line by
/// line rather than slurped, so a growing ledger never costs a
/// whole-history allocation per append. Returns the stamped sequence.
///
/// Crash safety: the record is serialized into a single buffer, written
/// with one `write_all`, and `fsync`ed before this function returns — a
/// caller (like the serve daemon's fingerprint index) never observes an
/// append that is not durable. If the file's last byte is not a newline —
/// the tail of a torn append from a process killed mid-write — a newline
/// is emitted first, so the torn fragment stays contained in its own line
/// (skipped and counted by [`load_ledger`]) instead of corrupting this
/// record too.
pub fn append_run(path: &Path, record: &mut RunRecord) -> Result<u64, String> {
    use std::io::{BufRead as _, Write as _};
    let (existing, ends_with_newline) = match std::fs::File::open(path) {
        Ok(file) => {
            let mut reader = std::io::BufReader::new(file);
            let mut line = Vec::new();
            let mut valid = 0u64;
            let mut newline_terminated = true;
            loop {
                line.clear();
                let read = reader
                    .read_until(b'\n', &mut line)
                    .map_err(|e| format!("cannot read ledger `{}`: {e}", path.display()))?;
                if read == 0 {
                    break;
                }
                newline_terminated = line.ends_with(b"\n");
                let raw = line.strip_suffix(b"\n").unwrap_or(&line);
                if matches!(decode_line(raw), Some(Ok(_))) {
                    valid += 1;
                }
            }
            (valid, newline_terminated)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, true),
        Err(e) => return Err(format!("cannot read ledger `{}`: {e}", path.display())),
    };
    record.sequence = existing + 1;
    let mut payload = String::new();
    if !ends_with_newline {
        payload.push('\n');
    }
    payload.push_str(&record.to_json_line());
    payload.push('\n');
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open ledger `{}`: {e}", path.display()))?;
    file.write_all(payload.as_bytes())
        .map_err(|e| format!("cannot append to ledger `{}`: {e}", path.display()))?;
    file.sync_all()
        .map_err(|e| format!("cannot sync ledger `{}`: {e}", path.display()))?;
    Ok(record.sequence)
}

/// What [`load_ledger`] found.
#[derive(Debug, Clone, Default)]
pub struct LedgerLoad {
    /// Valid records, in file order, re-stamped with 1-based sequences.
    pub runs: Vec<RunRecord>,
    /// Corrupt or unknown-schema lines that were skipped.
    pub skipped: usize,
}

impl LedgerLoad {
    /// The loaded runs, borrowed. Kept only for perfbench, which times this
    /// call as its `core.to_database_ms` layer; everything else queries
    /// `&self.runs` directly. It returns a `Cow` rather than a slice because
    /// perfbench passes the result on as `&db`, which clippy rejects as a
    /// needless borrow of a slice.
    pub fn to_database(&self) -> std::borrow::Cow<'_, [RunRecord]> {
        std::borrow::Cow::Borrowed(&self.runs)
    }
}

/// Loads a ledger, skipping corrupt lines. Each skipped line increments the
/// `obs.ledger.skipped` counter on `sink` (and is tallied in the returned
/// [`LedgerLoad::skipped`]). Loaded runs are re-stamped with consecutive
/// 1-based sequences in file order, so histories assembled from several
/// processes (or with holes from skipped lines) stay monotonic.
pub fn load_ledger(path: &Path, sink: &TelemetrySink) -> Result<LedgerLoad, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read ledger `{}`: {e}", path.display()))?;
    let mut load = LedgerLoad::default();
    for raw in bytes.split(|&b| b == b'\n') {
        match decode_line(raw) {
            None => {}
            Some(Ok(mut record)) => {
                record.sequence = load.runs.len() as u64 + 1;
                load.runs.push(record);
            }
            Some(Err(_)) => {
                load.skipped += 1;
                sink.incr("obs.ledger.skipped", 1);
            }
        }
    }
    Ok(load)
}

/// Decodes one raw ledger line (its `\n` removed): `None` for a blank
/// line, else the record or why the line is corrupt. A line that is not
/// UTF-8 — a tear inside a multi-byte character — is corrupt like any
/// other, so one bad byte never costs the rest of the file. [`load_ledger`]
/// and [`append_run`] both judge lines here, so they agree on which count.
fn decode_line(raw: &[u8]) -> Option<Result<RunRecord, String>> {
    match std::str::from_utf8(raw) {
        Ok(line) if line.trim().is_empty() => None,
        Ok(line) => Some(RunRecord::parse_line(line)),
        Err(e) => Some(Err(format!("line is not UTF-8: {e}"))),
    }
}

/// The shard file for one `(tenant, system)` pair under a sharded-ledger
/// root: `<root>/<tenant>/<system>.jsonl`. This is the multi-tenant layout
/// the `benchpark serve` daemon appends to — one schema-2 JSONL ledger per
/// tenant/system, so tenants never contend on (or corrupt) each other's
/// history, while [`ShardedLedger::load`] still presents the union.
pub fn shard_path(root: &Path, tenant: &str, system: &str) -> std::path::PathBuf {
    root.join(tenant).join(format!("{system}.jsonl"))
}

/// One discovered shard of a sharded ledger.
#[derive(Debug, Clone)]
pub struct LedgerShard {
    /// Tenant the shard belongs to (the directory name).
    pub tenant: String,
    /// System the shard records (the file stem).
    pub system: String,
    /// The shard file.
    pub path: std::path::PathBuf,
    /// Valid records loaded from this shard.
    pub runs: usize,
    /// Corrupt or unknown-schema lines skipped in this shard.
    pub skipped: usize,
}

/// A merge-on-query view over a directory of per-tenant/system ledger
/// shards (`<root>/<tenant>/<system>.jsonl`).
///
/// Shards are discovered in sorted `(tenant, system)` order and their
/// records concatenated in file order, then re-stamped with consecutive
/// global sequences — so the merged view is a deterministic function of
/// shard *contents*, independent of the interleaving in which concurrent
/// tenants appended. `history`, `regress`, and `fingerprints` run
/// unchanged over [`ShardedLedger::merged`]; per-tenant fingerprint
/// caches (the serve daemon's read path) come from
/// [`ShardedLedger::tenant_view`].
#[derive(Debug, Clone, Default)]
pub struct ShardedLedger {
    /// Every discovered shard, sorted by `(tenant, system)`.
    pub shards: Vec<LedgerShard>,
    /// All shard records merged in shard order, re-stamped 1-based.
    pub merged: LedgerLoad,
    /// Tenant of `merged.runs[i]`, index-parallel with the merged runs.
    pub tenants: Vec<String>,
}

impl ShardedLedger {
    /// Discovers and loads every `<tenant>/<system>.jsonl` shard under
    /// `root`. Non-directories at the top level and non-`.jsonl` files
    /// inside tenant directories are ignored; corrupt lines are skipped
    /// and counted exactly as [`load_ledger`] counts them. An empty or
    /// missing root yields an empty view, not an error — a daemon's first
    /// boot has no history yet.
    pub fn load(root: &Path, sink: &TelemetrySink) -> Result<ShardedLedger, String> {
        let mut sharded = ShardedLedger::default();
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(sharded),
            Err(e) => return Err(format!("cannot read shard root `{}`: {e}", root.display())),
        };
        let mut tenant_dirs: Vec<std::path::PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        tenant_dirs.sort();
        for tenant_dir in tenant_dirs {
            let tenant = tenant_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let mut shard_files: Vec<std::path::PathBuf> = std::fs::read_dir(&tenant_dir)
                .map_err(|e| format!("cannot read shard dir `{}`: {e}", tenant_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
                .collect();
            shard_files.sort();
            for path in shard_files {
                let system = path
                    .file_stem()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string();
                let load = load_ledger(&path, sink)?;
                sharded.shards.push(LedgerShard {
                    tenant: tenant.clone(),
                    system,
                    path,
                    runs: load.runs.len(),
                    skipped: load.skipped,
                });
                sharded.merged.skipped += load.skipped;
                for mut run in load.runs {
                    run.sequence = sharded.merged.runs.len() as u64 + 1;
                    sharded.merged.runs.push(run);
                    sharded.tenants.push(tenant.clone());
                }
            }
        }
        Ok(sharded)
    }

    /// The merged view restricted to one tenant's shards, re-stamped with
    /// consecutive 1-based sequences — the ledger a fingerprint lookup for
    /// that tenant's submissions resolves against (tenant isolation: a
    /// tenant's cache hits come only from its own measurements).
    pub fn tenant_view(&self, tenant: &str) -> LedgerLoad {
        let mut load = LedgerLoad::default();
        for shard in self.shards.iter().filter(|s| s.tenant == tenant) {
            load.skipped += shard.skipped;
        }
        for (run, run_tenant) in self.merged.runs.iter().zip(&self.tenants) {
            if run_tenant == tenant {
                let mut run = run.clone();
                run.sequence = load.runs.len() as u64 + 1;
                load.runs.push(run);
            }
        }
        load
    }

    /// Tenant names with at least one shard, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.shards.iter().map(|s| s.tenant.as_str()).collect();
        names.dedup();
        names
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.merged.runs.len()
    }

    /// True when no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.merged.runs.is_empty()
    }
}
