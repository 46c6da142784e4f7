//! Parity of [`crate::parse_json`] over the pull reader with the
//! recursive-descent parser it replaced, kept here as a test-only
//! reference: the same values, and the same error texts with the same byte
//! offsets, on seeded documents and their mutations.

use crate::{emit_json, parse_json, JsonReader, Map, Token, Value, MAX_JSON_DEPTH};
use proptest::test_runner::{ProptestConfig, Runner, TestCaseError, TestRng};

mod reference {
    use crate::{Map, Value};

    /// The recursive-descent parser `parse_json` used before it was rebuilt on
    /// the pull reader, kept verbatim as the parity reference.
    pub fn parse_json(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(text, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while let Some(&b) = bytes.get(*pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                *pos += 1;
            } else {
                break;
            }
        }
    }

    fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => parse_object(text, bytes, pos),
            Some(b'[') => parse_array(text, bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(text, bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(text, bytes, pos),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        keyword: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(keyword.as_bytes()) {
            *pos += keyword.len();
            Ok(value)
        } else {
            Err(format!("invalid token at byte {pos}", pos = *pos))
        }
    }

    fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits_from = *pos;
        let mut is_float = false;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'0'..=b'9' => *pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        if *pos == digits_from {
            return Err(format!("invalid number at byte {start}"));
        }
        let lexeme = &text[start..*pos];
        if !is_float {
            if let Ok(i) = lexeme.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        lexeme
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number `{lexeme}` at byte {start}"))
    }

    fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
        *pos += 1;
        let start = *pos;
        // Fast path: a bytewise scan to the closing quote. Every byte that can
        // end the scan (`"`, `\`, controls) is ASCII, and UTF-8 continuation
        // bytes are ≥ 0x80, so the scan never needs to decode scalars. Most
        // ledger/trace strings carry no escapes, so this copies the whole
        // string in one exactly-sized allocation.
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'"' => {
                    let plain = &text[start..*pos];
                    *pos += 1;
                    return Ok(plain.to_string());
                }
                b'\\' => return parse_string_escaped(text, bytes, pos, start),
                _ if b < 0x20 => return Err("bare control character in string".to_string()),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    /// Slow path of [`parse_string`]: `*pos` sits on the first backslash, the
    /// escape-free prefix spans `start..*pos`. Decodes escapes one by one but
    /// still copies each plain run between them with a single `push_str`.
    fn parse_string_escaped(
        text: &str,
        bytes: &[u8],
        pos: &mut usize,
        start: usize,
    ) -> Result<String, String> {
        let mut out = String::with_capacity((*pos - start) + 16);
        out.push_str(&text[start..*pos]);
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let Some(&esc) = bytes.get(*pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = text
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            *pos += 4;
                            // Surrogate pairs: JSON escapes astral characters as
                            // two \uXXXX units; lone surrogates are rejected.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if text.get(*pos..*pos + 2) != Some("\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                *pos += 2;
                                let hex2 = text
                                    .get(*pos..*pos + 4)
                                    .ok_or("truncated \\u escape".to_string())?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| format!("bad \\u escape `{hex2}`"))?;
                                *pos += 4;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(c).ok_or("invalid \\u code point".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ if b < 0x20 => return Err("bare control character in string".to_string()),
                _ => {
                    // copy the whole escape-free run in one push_str
                    let run = *pos;
                    while let Some(&b) = bytes.get(*pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        *pos += 1;
                    }
                    out.push_str(&text[run..*pos]);
                }
            }
        }
    }

    fn parse_object(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume '{'
        let mut map = Map::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Map(map));
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected string key at byte {pos}", pos = *pos));
            }
            let key = parse_string(text, bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(format!("expected `:` at byte {pos}", pos = *pos));
            }
            *pos += 1;
            skip_ws(bytes, pos);
            let value = parse_value(text, bytes, pos)?;
            map.insert(key, value);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Map(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
            }
        }
    }

    fn parse_array(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume '['
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            skip_ws(bytes, pos);
            items.push(parse_value(text, bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
            }
        }
    }
}

/// A random document: scalars at the leaves (including `i64` edges,
/// escapes and astral characters), maps and sequences above, at most
/// `depth` levels.
fn document(rng: &mut TestRng, depth: u32) -> Value {
    let pick = rng.below(if depth == 0 { 6 } else { 8 });
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => {
            Value::Int([0, 1, -1, i64::MAX, i64::MIN, rng.next_u64() as i64][rng.below(6) as usize])
        }
        3 => Value::Float([0.5, -2.25, 1e300, 3.0, rng.unit_f64() * 1e6][rng.below(5) as usize]),
        4 | 5 => Value::str(text(rng)),
        6 => Value::Seq(
            (0..rng.below(4))
                .map(|_| document(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut map = Map::new();
            for _ in 0..rng.below(5) {
                map.insert(text(rng), document(rng, depth - 1));
            }
            Value::Map(map)
        }
    }
}

fn text(rng: &mut TestRng) -> String {
    const PARTS: &[&str] = &[
        "a", "schema", "café", "😀", "\"", "\\", "\n", "\t", "\u{1}", "/", "x y", "é",
    ];
    (0..rng.below(4))
        .map(|_| PARTS[rng.below(PARTS.len() as u64) as usize])
        .collect()
}

/// Fragments a mutation splices in: structure, escapes and surrogate
/// halves, number edges and `+1`-style lexemes, keywords, whitespace and
/// garbage.
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
    "\\ude00",
    "\\ud83d\\ude00",
    "\\u00e9",
    "\\x",
    "\\u12",
    "+1",
    "-",
    "--1",
    "1.2.3",
    ".5",
    "1e",
    "1e999",
    "-0",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "true",
    "nul",
    "fals",
    "null",
    " ",
    "\t",
    "\r\n",
    "\u{0}",
    "\u{7f}",
    "é",
    "😀",
    "\"k\":1",
    "x",
    "{\"a\":1,\"a\":2}",
];

/// One seeded mutation of `doc`: a truncation, a splice, a deletion, a
/// repeated slice, or trailing garbage, each at a character boundary.
fn mutate(rng: &mut TestRng, doc: &str) -> String {
    let cuts: Vec<usize> = doc
        .char_indices()
        .map(|(i, _)| i)
        .chain([doc.len()])
        .collect();
    let at = cuts[rng.below(cuts.len() as u64) as usize];
    let to = cuts[rng.below(cuts.len() as u64) as usize].max(at);
    let splice = SPLICES[rng.below(SPLICES.len() as u64) as usize];
    match rng.below(6) {
        0 => doc[..at].to_string(),
        1 => format!("{}{splice}{}", &doc[..at], &doc[at..]),
        2 => format!("{}{splice}{}", &doc[..at], &doc[to..]),
        3 => format!("{}{}", &doc[..at], &doc[to..]),
        4 => format!("{}{}{}", &doc[..to], &doc[at..to], &doc[to..]),
        _ => format!("{doc}{splice}"),
    }
}

fn assert_parity(input: &str) -> Result<(), TestCaseError> {
    let got = parse_json(input);
    let want = reference::parse_json(input);
    if got != want {
        return Err(TestCaseError::fail(format!(
            "{input:?}: reader {got:?}, reference {want:?}"
        )));
    }
    Ok(())
}

#[test]
fn parse_json_matches_the_recursive_descent_reference() {
    let (mut oks, mut errs) = (0, 0);
    Runner::new(ProptestConfig::with_cases(3000)).run(|rng| {
        let doc = emit_json(&document(rng, 4));
        assert_parity(&doc)?;
        for _ in 0..rng.below(3) + 1 {
            let mutated = mutate(rng, &doc);
            match reference::parse_json(&mutated) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
            assert_parity(&mutated)?;
        }
        Ok(())
    });
    // the mutations reach both outcomes, so both sides are compared
    assert!(oks > 500 && errs > 500, "{oks} ok, {errs} err");
}

#[test]
fn parse_json_matches_the_reference_on_hand_picked_faults() {
    for input in [
        "",
        " ",
        "{",
        "[",
        "{}",
        "[]",
        "[1,]",
        "{\"a\":}",
        "{a: 1}",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "[1 2]",
        "tru",
        "nul",
        "+1",
        "-",
        "--1",
        "-0",
        "01",
        "1.",
        ".5",
        "1e5",
        "1E+2",
        "e5",
        "1.2.3",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "\"\\u00\"",
        "\"\\u00é\"",
        "\"\\ud83d\"",
        "\"\\ud83dx\"",
        "\"\\ud83d\\u0041\"",
        "\"\\udc00\"",
        "\"\\q\"",
        "\"a\u{1}\"",
        "\"\\",
        "\"abc",
        "{\"a\":1} x",
        "[1] ]",
        "{\"a\":1,\"a\":[2]}",
        " \r\n\t{ \"a\" : [ 1 , 2 ] } \n",
    ] {
        assert_parity(input).unwrap();
    }
}

/// Depth is bounded: the reader refuses the container that crosses
/// [`MAX_JSON_DEPTH`] at its own byte, however deep the input goes, and
/// a document exactly at the bound still parses.
#[test]
fn nesting_is_bounded_at_the_crossing_byte() {
    let at_bound = format!(
        "{}{}",
        "[".repeat(MAX_JSON_DEPTH),
        "]".repeat(MAX_JSON_DEPTH)
    );
    assert!(parse_json(&at_bound).is_ok());
    let crossing = format!("nesting deeper than {MAX_JSON_DEPTH} at byte {MAX_JSON_DEPTH}");
    let deep = "[".repeat(200_000);
    assert_eq!(parse_json(&deep).unwrap_err(), crossing);
    assert_eq!(
        parse_json(&"{\"a\":".repeat(200_000)).unwrap_err(),
        format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
            5 * MAX_JSON_DEPTH
        )
    );
    let mut reader = JsonReader::new(&deep);
    let first = reader.next_token().unwrap();
    assert_eq!(reader.skip(&first).unwrap_err(), crossing);
}

/// The reader's tokens: offsets at each token's first byte, escape-free
/// strings borrowed from the document, escaped ones decoded.
#[test]
fn reader_yields_tokens_with_offsets() {
    let text = r#" {"a": [1, -2.5e0, "x\ny", true, null], "b": {}} "#;
    let mut reader = JsonReader::new(text);
    let mut seen = Vec::new();
    while seen.len() < 13 {
        let token = reader.next_token().unwrap();
        seen.push((reader.offset(), token));
    }
    reader.finish().unwrap();
    assert_eq!(
        seen,
        [
            (1, Token::ObjectStart),
            (2, Token::Key("a".into())),
            (7, Token::ArrayStart),
            (8, Token::Int(1)),
            (11, Token::Float(-2.5)),
            (19, Token::Str("x\ny".into())),
            (27, Token::Bool(true)),
            (33, Token::Null),
            (37, Token::ArrayEnd),
            (40, Token::Key("b".into())),
            (45, Token::ObjectStart),
            (46, Token::ObjectEnd),
            (47, Token::ObjectEnd),
        ]
    );
    let mut reader = JsonReader::new(r#"["plain", "esc\"aped"]"#);
    reader.next_token().unwrap();
    assert!(matches!(
        reader.next_token().unwrap(),
        Token::Str(std::borrow::Cow::Borrowed("plain"))
    ));
    assert!(matches!(
        reader.next_token().unwrap(),
        Token::Str(std::borrow::Cow::Owned(_))
    ));
}

/// The word-at-a-time scan stops exactly where a bytewise scan would: at
/// the first quote, backslash or control byte, whatever its position in
/// an eight-byte word and whatever bytes surround it.
#[test]
fn plain_run_stops_at_the_first_byte_a_string_cannot_hold() {
    let fillers: [&[u8]; 3] = [b"a", "é".as_bytes(), b"\x7f"];
    for filler in fillers {
        for len in 0..20 {
            let plain: Vec<u8> = filler.iter().copied().cycle().take(len).collect();
            assert_eq!(crate::json::plain_run(&plain), len);
            for at in 0..=len {
                for stop in [b'"', b'\\', 0x00, 0x1f, b'\n'] {
                    let mut bytes = plain.clone();
                    bytes.insert(at, stop);
                    bytes.extend_from_slice(b"\"\\");
                    assert_eq!(crate::json::plain_run(&bytes), at, "{bytes:?}");
                }
            }
        }
    }
}
