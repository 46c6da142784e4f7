//! JSON emission and parsing over the same [`Value`] document model the
//! YAML side uses.
//!
//! The observability layer (trace exports, the durable run ledger) speaks
//! JSON because that is what Perfetto, `jq`, and collaborators' tooling
//! open — and the build environment has no serde, so this is the same
//! hand-rolled, dependency-free style as the YAML parser next door.
//!
//! Parsing has one lexer, the pull reader [`JsonReader`], and two
//! consumers: [`parse_json`] builds a [`Value`] tree from its tokens, and
//! the run ledger decodes records from them directly, without a tree.
//!
//! Emission is *deterministic*: [`Map`] preserves insertion order, floats
//! render through one canonical formatter, and no whitespace depends on
//! content. Two structurally equal values always emit byte-identical text —
//! the property the run ledger and the `--jobs 1` vs `--jobs 8` export
//! identity checks rely on.

use crate::value::{Map, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Emits `value` as a single-line (compact) JSON document.
///
/// * `Null` → `null`, `Bool` → `true`/`false`, `Int` → decimal.
/// * `Float` → shortest round-trip decimal; non-finite floats become `null`
///   (JSON has no NaN/Infinity).
/// * `Str` → quoted with `"`, `\`, control characters escaped.
/// * `Seq` → `[a,b,…]`, `Map` → `{"k":v,…}` in insertion order.
pub fn emit_json(value: &Value) -> String {
    let mut out = String::new();
    emit_into(value, &mut out);
    out
}

fn emit_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => out.push_str(&json_number(*f)),
        Value::Str(s) => json_string_into(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_into(item, out);
            }
            out.push(']');
        }
        Value::Map(map) => {
            out.push('{');
            for (i, (key, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string_into(key, out);
                out.push(':');
                emit_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Canonical JSON rendering of a float: shortest text that round-trips *as a
/// float* (integral values keep a `.0` so they reparse as `Float`, not
/// `Int`), `null` for non-finite values.
pub fn json_number(f: f64) -> String {
    if f.is_finite() {
        crate::value::format_float(f)
    } else {
        "null".to_string()
    }
}

/// Escapes `s` as a JSON string literal (including the surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_string_into(s, &mut out);
    out
}

/// Escapes `s` directly into `out`, copying maximal escape-free runs in one
/// `push_str` each instead of pushing char by char. The scan is bytewise:
/// every byte needing an escape is ASCII, and UTF-8 continuation bytes are
/// ≥ 0x80, so a multi-byte scalar can never be split by the run boundary.
fn json_string_into(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[run..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            i += 1;
            run = i;
        } else {
            i += 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document into a [`Value`].
///
/// One consumer of [`JsonReader`]: objects become [`Value::Map`]
/// (insertion order preserved, a repeated key keeps its first position and
/// takes the last value), arrays [`Value::Seq`], numbers [`Value::Int`]
/// when integral and in `i64` range else [`Value::Float`]. Every syntax
/// error the reader reports — trailing garbage, trailing commas, unquoted
/// keys, bare control characters, nesting past [`MAX_JSON_DEPTH`] — is an
/// error here, so corrupt input fails instead of half-loading. The tree is
/// built with an explicit stack, so no input can exhaust the call stack.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut reader = JsonReader::new(text);
    // the open containers, each with the key it will be stored under
    let mut open: Vec<(Value, Option<String>)> = Vec::new();
    let mut key: Option<String> = None;
    loop {
        let value = match reader.next_token()? {
            Token::ObjectStart => {
                open.push((Value::Map(Map::new()), key.take()));
                continue;
            }
            Token::ArrayStart => {
                open.push((Value::Seq(Vec::new()), key.take()));
                continue;
            }
            Token::Key(name) => {
                key = Some(name.into_owned());
                continue;
            }
            Token::ObjectEnd | Token::ArrayEnd => {
                let (value, its_key) = open.pop().expect("the reader balances containers");
                key = its_key;
                value
            }
            scalar => scalar.into_scalar().expect("every other token is a scalar"),
        };
        match open.last_mut() {
            None => {
                reader.finish()?;
                return Ok(value);
            }
            Some((Value::Map(map), _)) => {
                map.insert(key.take().expect("the reader yields a key first"), value)
            }
            Some((Value::Seq(items), _)) => items.push(value),
            Some(_) => unreachable!("only maps and sequences are pushed"),
        }
    }
}

/// The deepest container nesting [`JsonReader`] accepts. Far above any
/// document this program writes (a ledger record nests 6 levels), and low
/// enough that a recursive consumer of the token stream stays far from the
/// stack's end.
pub const MAX_JSON_DEPTH: usize = 128;

/// One token of a JSON document, as [`JsonReader::next_token`] yields it.
/// Strings without escapes borrow from the document.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`
    ObjectStart,
    /// `}`
    ObjectEnd,
    /// `[`
    ArrayStart,
    /// `]`
    ArrayEnd,
    /// An object key (the reader has consumed its `:` too); the key's value
    /// follows as the next token.
    Key(Cow<'a, str>),
    /// A string value.
    Str(Cow<'a, str>),
    /// A number without `.`, `e`, `E`, `+` or `-` after its first byte that
    /// fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Token<'_> {
    /// The [`Value`] a scalar token denotes; `None` for structural tokens
    /// and keys.
    pub fn into_scalar(self) -> Option<Value> {
        Some(match self {
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Int(i) => Value::Int(i),
            Token::Float(f) => Value::Float(f),
            Token::Bool(b) => Value::Bool(b),
            Token::Null => Value::Null,
            Token::ObjectStart
            | Token::ObjectEnd
            | Token::ArrayStart
            | Token::ArrayEnd
            | Token::Key(_) => return None,
        })
    }
}

/// What the reader expects at its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: the document's root, or the value after a key.
    Value,
    /// Just after `[`: an element or `]`.
    FirstElement,
    /// Just after `{`: a key or `}`.
    FirstKey,
    /// After a complete value: `,` and the next key or element, or the
    /// enclosing container's close.
    Separator,
}

/// A pull reader over one JSON document: each call to
/// [`JsonReader::next_token`] lexes exactly one token, checks it against
/// the grammar, and records where it starts ([`JsonReader::offset`]).
///
/// The reader is single-pass and linear in the document, allocates only
/// for strings with escapes, and never looks past the text it was given.
/// Its errors are byte-exact: the same text and offset for the same fault,
/// whichever consumer drives it. Nesting deeper than [`MAX_JSON_DEPTH`] is
/// an error at the byte that crosses the bound.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Where the last token returned starts.
    at: usize,
    /// Open containers, innermost last: bit `d` is set when the container
    /// at depth `d` is an object.
    objects: u128,
    depth: usize,
    expect: Expect,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned before the document's root value.
    pub fn new(text: &'a str) -> JsonReader<'a> {
        JsonReader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            at: 0,
            objects: 0,
            depth: 0,
            expect: Expect::Value,
        }
    }

    /// Byte offset at which the last token [`JsonReader::next_token`]
    /// returned starts.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Lexes the next token. Inside an object the reader yields only
    /// [`Token::Key`] (followed by that key's value) and
    /// [`Token::ObjectEnd`]; inside an array only values and
    /// [`Token::ArrayEnd`]. Once the root value is complete, call
    /// [`JsonReader::finish`] instead.
    pub fn next_token(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        self.at = self.pos;
        let next = self.bytes.get(self.pos).copied();
        match self.expect {
            Expect::Value => self.value(),
            Expect::FirstElement if next == Some(b']') => Ok(self.close(Token::ArrayEnd)),
            Expect::FirstElement => self.value(),
            Expect::FirstKey if next == Some(b'}') => Ok(self.close(Token::ObjectEnd)),
            Expect::FirstKey => self.key(),
            Expect::Separator if self.depth == 0 => {
                // the root is complete: only `finish` may follow
                self.finish()?;
                Err("unexpected end of input".to_string())
            }
            Expect::Separator => {
                let in_object = (self.objects >> (self.depth - 1)) & 1 == 1;
                match (next, in_object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.at = self.pos;
                        if in_object {
                            self.key()
                        } else {
                            self.value()
                        }
                    }
                    (Some(b'}'), true) => Ok(self.close(Token::ObjectEnd)),
                    (Some(b']'), false) => Ok(self.close(Token::ArrayEnd)),
                    (_, true) => Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    (_, false) => Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }
    }

    /// Consumes the rest of the value whose first token was `first`:
    /// nothing for a scalar, everything up to the matching close for a
    /// container. Iterative, so a deep value costs no stack.
    pub fn skip(&mut self, first: &Token<'a>) -> Result<(), String> {
        if matches!(first, Token::ObjectStart | Token::ArrayStart) {
            let depth = self.depth;
            while self.depth >= depth {
                self.next_token()?;
            }
        }
        Ok(())
    }

    /// Checks that only whitespace follows the root value.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn value(&mut self) -> Result<Token<'a>, String> {
        let token = match self.bytes.get(self.pos) {
            None => return Err("unexpected end of input".to_string()),
            Some(b'{') => return self.open(true),
            Some(b'[') => return self.open(false),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.keyword("true", Token::Bool(true))?,
            Some(b'f') => self.keyword("false", Token::Bool(false))?,
            Some(b'n') => self.keyword("null", Token::Null)?,
            Some(_) => self.number()?,
        };
        self.expect = Expect::Separator;
        Ok(token)
    }

    fn key(&mut self) -> Result<Token<'a>, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {}", self.pos));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.bytes.get(self.pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", self.pos));
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Token::Key(key))
    }

    fn open(&mut self, object: bool) -> Result<Token<'a>, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            ));
        }
        if object {
            self.objects |= 1 << self.depth;
        } else {
            self.objects &= !(1 << self.depth);
        }
        self.depth += 1;
        self.pos += 1;
        Ok(if object {
            self.expect = Expect::FirstKey;
            Token::ObjectStart
        } else {
            self.expect = Expect::FirstElement;
            Token::ArrayStart
        })
    }

    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.expect = Expect::Separator;
        token
    }

    fn keyword(&mut self, keyword: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(token)
        } else {
            Err(format!("invalid token at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Token<'a>, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.pos == digits_from {
            return Err(format!("invalid number at byte {start}"));
        }
        let lexeme = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = lexeme.parse::<i64>() {
                return Ok(Token::Int(i));
            }
        }
        lexeme
            .parse::<f64>()
            .map(Token::Float)
            .map_err(|_| format!("invalid number `{lexeme}` at byte {start}"))
    }

    // Forced inline, like `plain_run`: as a call, the string scan made
    // `parse_json` over the reader a tenth slower than the recursive
    // descent it replaced.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        debug_assert_eq!(self.bytes.get(self.pos), Some(&b'"'));
        self.pos += 1;
        let start = self.pos;
        // Fast path: scan to the first byte a string cannot hold plainly.
        // Most ledger/trace strings carry no escapes, so they end at a quote
        // and are borrowed from the document.
        self.pos += plain_run(&self.bytes[start..]);
        match self.bytes.get(self.pos) {
            Some(b'"') => {
                let plain = &self.text[start..self.pos];
                self.pos += 1;
                Ok(Cow::Borrowed(plain))
            }
            Some(b'\\') => self.string_escaped(start).map(Cow::Owned),
            Some(_) => Err("bare control character in string".to_string()),
            None => Err("unterminated string".to_string()),
        }
    }

    /// Slow path of [`JsonReader::string`]: the reader sits on the first
    /// backslash, the escape-free prefix spans `start..pos`. Decodes escapes
    /// one by one but still copies each plain run between them with a
    /// single `push_str`.
    fn string_escaped(&mut self, start: usize) -> Result<String, String> {
        let (text, bytes) = (self.text, self.bytes);
        let pos = &mut self.pos;
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
                            // Surrogate pairs: JSON escapes astral characters
                            // as two \uXXXX units; lone surrogates are
                            // rejected.
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
                    *pos += plain_run(&bytes[run..]);
                    out.push_str(&text[run..*pos]);
                }
            }
        }
    }
}

/// Length of the prefix of `bytes` a JSON string holds as is: up to the
/// first `"`, `\` or control byte. Every byte that ends the run is ASCII
/// and UTF-8 continuation bytes are ≥ 0x80, so a run never ends inside a
/// multi-byte character.
///
/// Eight bytes are tested per step with the word-at-a-time zero-byte test:
/// `(v - 0x01…) & !v & 0x80…` flags each zero byte of `v` and, through the
/// borrow, possibly bytes above a flagged one, but never a byte below the
/// lowest zero byte — so the lowest flag, in little-endian order, is exact.
#[inline(always)]
pub(crate) fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let mut run = 0;
    while let Some(chunk) = bytes.get(run..run + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let quote = word ^ (ONES * u64::from(b'"'));
        let backslash = word ^ (ONES * u64::from(b'\\'));
        let flags = (quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash
            | word.wrapping_sub(ONES * 0x20) & !word)
            & HIGHS;
        if flags != 0 {
            return run + flags.trailing_zeros() as usize / 8;
        }
        run += 8;
    }
    run + bytes[run..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len() - run)
}
