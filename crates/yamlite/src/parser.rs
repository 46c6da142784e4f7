//! Indentation-based recursive-descent parser for the YAML subset.
//!
//! The parser builds a [`SpannedValue`] tree natively — every node and every
//! mapping key records the 1-based `line:col` where it begins — and
//! [`parse`] is simply [`parse_spanned`] with the spans stripped.

use crate::error::{ParseError, Result};
use crate::json::MAX_JSON_DEPTH;
use crate::span::{Span, SpannedMap, SpannedNode, SpannedValue};
use crate::value::Value;

/// Parses a YAML document into a [`Value`].
///
/// An empty document (or one containing only comments) parses to
/// [`Value::Null`].
pub fn parse(input: &str) -> Result<Value> {
    parse_spanned(input).map(SpannedValue::into_value)
}

/// Parses a YAML document into a [`SpannedValue`] carrying source positions.
///
/// An empty document (or one containing only comments) parses to a null node
/// with a default span. Collections nested deeper than [`MAX_JSON_DEPTH`],
/// block and flow levels counted together, are an error at the line of the
/// collection that crosses the bound.
pub fn parse_spanned(input: &str) -> Result<SpannedValue> {
    let lines = preprocess(input)?;
    if lines.is_empty() {
        return Ok(SpannedValue::detached(SpannedNode::Null));
    }
    // A document whose single line is neither a sequence item nor a mapping
    // entry is a bare scalar (or flow collection) document.
    if lines.len() == 1
        && !is_seq_item(lines[0].text)
        && split_key(lines[0].text, lines[0].no, lines[0].indent + 1).is_err()
    {
        return parse_scalar_or_flow(lines[0].text, lines[0].no, lines[0].indent + 1, 0);
    }
    let mut pos = 0;
    let value = parse_block(&lines, &mut pos, lines[0].indent, 0)?;
    if pos < lines.len() {
        return Err(ParseError::new(
            lines[pos].no,
            format!(
                "trailing content with unexpected indentation: {:?}",
                lines[pos].text
            ),
        ));
    }
    Ok(value)
}

/// One significant (non-blank, non-comment) line of input, borrowed from the
/// source text — preprocessing a document allocates only the `Vec`, never a
/// `String` per line.
#[derive(Debug)]
struct Line<'a> {
    /// 1-based source line number.
    no: usize,
    /// Number of leading spaces.
    indent: usize,
    /// Content with indentation and trailing comment removed.
    text: &'a str,
}

/// An inline mapping value: its text (borrowed from the source line) plus
/// the 1-based column it starts at.
struct Inline<'a> {
    text: &'a str,
    col: usize,
}

/// Strips comments/blank lines and records indentation.
fn preprocess(input: &str) -> Result<Vec<Line<'_>>> {
    let mut out = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let indent = raw.len() - raw.trim_start_matches(' ').len();
        if raw[indent..].starts_with('\t') {
            return Err(ParseError::new(no, "tabs are not allowed in indentation"));
        }
        let stripped = strip_comment(&raw[indent..]);
        let text = stripped.trim_end();
        if text.is_empty() {
            continue;
        }
        if text == "---" && out.is_empty() {
            continue; // tolerate a leading document marker
        }
        out.push(Line { no, indent, text });
    }
    Ok(out)
}

/// Removes a trailing `# comment`. A `#` begins a comment only when it is the
/// first character or preceded by whitespace, and only outside quotes.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => {
                // skip escaped quotes inside double-quoted strings
                if in_double && i > 0 && bytes[i - 1] == b'\\' {
                } else {
                    in_double = !in_double;
                }
            }
            b'#' if !in_single && !in_double && (i == 0 || bytes[i - 1].is_ascii_whitespace()) => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// The depth inside one more collection opened at line `no`: the parser's
/// recursions go one frame per level, so this bound keeps them far from the
/// stack's end whatever the input.
fn nest(depth: usize, no: usize) -> Result<usize> {
    if depth == MAX_JSON_DEPTH {
        return Err(ParseError::new(
            no,
            format!("nesting deeper than {MAX_JSON_DEPTH}"),
        ));
    }
    Ok(depth + 1)
}

/// Parses the block starting at `pos`, whose lines are indented `indent`.
/// `depth` counts the collections around it, here and in every parser below.
fn parse_block(
    lines: &[Line<'_>],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<SpannedValue> {
    let line = &lines[*pos];
    if line.indent != indent {
        return Err(ParseError::new(
            line.no,
            format!("expected indentation {indent}, found {}", line.indent),
        ));
    }
    if is_seq_item(line.text) {
        parse_sequence(lines, pos, indent, depth)
    } else {
        parse_mapping(lines, pos, indent, None, depth)
    }
}

fn is_seq_item(text: &str) -> bool {
    text == "-" || text.starts_with("- ")
}

/// An already-extracted first entry for a mapping that begins inline inside a
/// sequence item (e.g. `- key: value`).
struct FirstEntry<'a> {
    key: String,
    key_span: Span,
    inline: Option<Inline<'a>>,
    no: usize,
}

/// Parses a block mapping at `indent`. If `first` is given, it is an
/// already-extracted first entry (used for mappings that begin inline inside a
/// sequence item, e.g. `- key: value`).
fn parse_mapping(
    lines: &[Line<'_>],
    pos: &mut usize,
    indent: usize,
    first: Option<FirstEntry<'_>>,
    depth: usize,
) -> Result<SpannedValue> {
    let mut map = SpannedMap::new();
    let mut map_span = Span::new(lines.get(*pos).map(|l| l.no).unwrap_or(0), indent + 1);
    let depth = nest(depth, first.as_ref().map_or(map_span.line, |e| e.no))?;

    if let Some(entry) = first {
        map_span = entry.key_span;
        let value = mapping_value(
            lines,
            pos,
            indent,
            entry.inline,
            entry.no,
            entry.key_span,
            depth,
        )?;
        map.insert(entry.key, entry.key_span, value);
    }

    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent || is_seq_item(line.text) {
            break;
        }
        let no = line.no;
        let (key, key_span, inline) = split_key(line.text, no, line.indent + 1)?;
        *pos += 1;
        let value = mapping_value(lines, pos, indent, inline, no, key_span, depth)?;
        if map.contains_key(&key) {
            return Err(ParseError::new(
                no,
                format!("duplicate mapping key {key:?}"),
            ));
        }
        if map.is_empty() {
            map_span = key_span;
        }
        map.insert(key, key_span, value);
    }
    Ok(SpannedValue {
        span: map_span,
        node: SpannedNode::Map(map),
    })
}

/// Parses the value of a mapping entry whose key line has been consumed.
fn mapping_value(
    lines: &[Line<'_>],
    pos: &mut usize,
    key_indent: usize,
    inline: Option<Inline<'_>>,
    no: usize,
    key_span: Span,
    depth: usize,
) -> Result<SpannedValue> {
    if let Some(inline) = inline {
        return parse_scalar_or_flow(inline.text, no, inline.col, depth);
    }
    // No inline value: the value is a nested block (deeper indent), a sequence
    // at the same indent as the key (YAML permits this), or null.
    if *pos < lines.len() {
        let next = &lines[*pos];
        if next.indent > key_indent {
            return parse_block(lines, pos, next.indent, depth);
        }
        if next.indent == key_indent && is_seq_item(next.text) {
            return parse_sequence(lines, pos, key_indent, depth);
        }
    }
    Ok(SpannedValue {
        span: key_span,
        node: SpannedNode::Null,
    })
}

/// Parses a block sequence at `indent`.
fn parse_sequence(
    lines: &[Line<'_>],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<SpannedValue> {
    let mut items = Vec::new();
    let seq_span = Span::new(lines[*pos].no, indent + 1);
    let depth = nest(depth, seq_span.line)?;
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent || !is_seq_item(line.text) {
            break;
        }
        let no = line.no;
        let content = if line.text == "-" {
            ""
        } else {
            &line.text[2..]
        };
        let content = content.trim_start();
        // Column where the item's own content begins; an inline mapping that
        // starts on the `- ` line continues at this indentation.
        let item_indent = line.indent + (line.text.len() - content.len());
        let item_col = item_indent + 1;
        *pos += 1;

        if content.is_empty() {
            // `-` alone: nested block on following deeper-indented lines.
            if *pos < lines.len() && lines[*pos].indent > indent {
                items.push(parse_block(lines, pos, lines[*pos].indent, depth)?);
            } else {
                items.push(SpannedValue {
                    span: Span::new(no, indent + 1),
                    node: SpannedNode::Null,
                });
            }
        } else if content.starts_with(['[', '{']) {
            // flow collections are values, never `key: value` entries
            items.push(parse_scalar_or_flow(content, no, item_col, depth)?);
        } else if let Ok((key, key_span, inline)) = split_key(content, no, item_col) {
            // `- key: …` starts a mapping whose entries align at item_indent.
            items.push(parse_mapping(
                lines,
                pos,
                item_indent,
                Some(FirstEntry {
                    key,
                    key_span,
                    inline,
                    no,
                }),
                depth,
            )?);
        } else {
            items.push(parse_scalar_or_flow(content, no, item_col, depth)?);
        }
    }
    Ok(SpannedValue {
        span: seq_span,
        node: SpannedNode::Seq(items),
    })
}

/// Splits a mapping line into `(key, key_span, inline_value)`. `base_col` is
/// the 1-based column of `text`'s first byte in the source line. Fails if the
/// line does not contain a top-level `": "` (or trailing `:`).
fn split_key<'a>(
    text: &'a str,
    no: usize,
    base_col: usize,
) -> Result<(String, Span, Option<Inline<'a>>)> {
    let bytes = text.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    // Flow-collection nesting depth: a `:` inside `[...]`/`{...}` belongs to
    // the flow collection, not to this line's `key: value` split. This is what
    // lets a whole-document flow mapping (`{a: 1, b: 2}`) parse as one value.
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth = depth.saturating_sub(1),
            b':' if !in_single && !in_double && depth == 0 => {
                let at_end = i + 1 == bytes.len();
                if at_end || bytes[i + 1] == b' ' {
                    let raw_key = text[..i].trim();
                    if raw_key.is_empty() {
                        return Err(ParseError::new(no, "empty mapping key"));
                    }
                    let key = unquote(raw_key, no)?;
                    let key_span = Span::new(no, base_col);
                    let rest = if at_end { "" } else { &text[i + 2..] };
                    let lead = rest.len() - rest.trim_start().len();
                    let rest = rest.trim();
                    let inline = if rest.is_empty() {
                        None
                    } else {
                        Some(Inline {
                            text: rest,
                            col: base_col + i + 2 + lead,
                        })
                    };
                    return Ok((key, key_span, inline));
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err(ParseError::new(
        no,
        format!("expected `key: value`, found {text:?}"),
    ))
}

/// Parses an inline value: flow sequence, flow mapping, quoted or plain scalar.
/// `col` is the 1-based column of `text`'s first byte in the source line.
fn parse_scalar_or_flow(text: &str, no: usize, col: usize, depth: usize) -> Result<SpannedValue> {
    let lead = text.len() - text.trim_start().len();
    let col = col + lead;
    let text = text.trim();
    let span = Span::new(no, col);
    if text.starts_with('[') {
        let depth = nest(depth, no)?;
        let inner = flow_body(text, '[', ']', no)?;
        let mut items = Vec::new();
        for (offset, part) in split_flow(inner) {
            if part.trim().is_empty() {
                continue;
            }
            // inner starts one byte after the `[`
            items.push(parse_scalar_or_flow(part, no, col + 1 + offset, depth)?);
        }
        return Ok(SpannedValue {
            span,
            node: SpannedNode::Seq(items),
        });
    }
    if text.starts_with('{') {
        let depth = nest(depth, no)?;
        let inner = flow_body(text, '{', '}', no)?;
        let mut map = SpannedMap::new();
        for (offset, part) in split_flow(inner) {
            let lead = part.len() - part.trim_start().len();
            let part_col = col + 1 + offset + lead;
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, key_span, inline) =
                split_key(part, no, part_col).or_else(|_| flow_entry_key(part, no, part_col))?;
            if map.contains_key(&key) {
                return Err(ParseError::new(
                    no,
                    format!("duplicate mapping key {key:?} in flow mapping"),
                ));
            }
            let value = match inline {
                Some(inline) => parse_scalar_or_flow(inline.text, no, inline.col, depth)?,
                None => SpannedValue {
                    span: key_span,
                    node: SpannedNode::Null,
                },
            };
            map.insert(key, key_span, value);
        }
        return Ok(SpannedValue {
            span,
            node: SpannedNode::Map(map),
        });
    }
    scalar(text, no, col)
}

/// `key:value` (no space) is allowed inside flow mappings. `base_col` is the
/// 1-based column of `part`'s first byte.
fn flow_entry_key<'a>(
    part: &'a str,
    no: usize,
    base_col: usize,
) -> Result<(String, Span, Option<Inline<'a>>)> {
    if let Some(idx) = part.find(':') {
        let key = unquote(part[..idx].trim(), no)?;
        let rest = &part[idx + 1..];
        let lead = rest.len() - rest.trim_start().len();
        let rest = rest.trim();
        let inline = if rest.is_empty() {
            None
        } else {
            Some(Inline {
                text: rest,
                col: base_col + idx + 1 + lead,
            })
        };
        Ok((key, Span::new(no, base_col), inline))
    } else {
        Err(ParseError::new(
            no,
            format!("expected `key: value` in flow mapping, found {part:?}"),
        ))
    }
}

/// Validates matching flow delimiters and returns the interior text.
fn flow_body(text: &str, open: char, close: char, no: usize) -> Result<&str> {
    if !text.ends_with(close) {
        return Err(ParseError::new(
            no,
            format!(
                "flow collection starting with `{open}` must close with `{close}` on the same line"
            ),
        ));
    }
    Ok(&text[open.len_utf8()..text.len() - close.len_utf8()])
}

/// Splits flow-collection contents on top-level commas, returning each part
/// with its byte offset within `inner`.
fn split_flow(inner: &str) -> Vec<(usize, &str)> {
    let bytes = inner.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_single = false;
    let mut in_double = false;
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth = depth.saturating_sub(1),
            b',' if depth == 0 && !in_single && !in_double => {
                parts.push((start, &inner[start..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push((start, &inner[start..]));
    parts
}

/// Parses a scalar, inferring null/bool/int/float for plain (unquoted) text.
fn scalar(text: &str, no: usize, col: usize) -> Result<SpannedValue> {
    let node = if text.starts_with('\'') || text.starts_with('"') {
        SpannedNode::Str(unquote(text, no)?)
    } else {
        match infer_plain(text) {
            Value::Null => SpannedNode::Null,
            Value::Bool(b) => SpannedNode::Bool(b),
            Value::Int(i) => SpannedNode::Int(i),
            Value::Float(f) => SpannedNode::Float(f),
            Value::Str(s) => SpannedNode::Str(s),
            Value::Seq(_) | Value::Map(_) => unreachable!("plain scalars are never collections"),
        }
    };
    Ok(SpannedValue {
        span: Span::new(no, col),
        node,
    })
}

/// Plain-scalar tag inference.
pub(crate) fn infer_plain(text: &str) -> Value {
    match text {
        "" | "~" | "null" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    if looks_like_int(text) {
        if let Ok(i) = text.parse::<i64>() {
            return Value::Int(i);
        }
    }
    if looks_like_float(text) {
        if let Ok(f) = text.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(text.to_string())
}

fn looks_like_int(text: &str) -> bool {
    let t = text.strip_prefix(['+', '-']).unwrap_or(text);
    !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())
}

fn looks_like_float(text: &str) -> bool {
    let t = text.strip_prefix(['+', '-']).unwrap_or(text);
    // Require a digit and one of . / e / E; rules out versions like `2.3.7`
    // (which fail f64 parsing) and words like `e`.
    t.bytes().any(|b| b.is_ascii_digit())
        && t.bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
}

/// Removes surrounding quotes and processes escapes. Unquoted text is returned
/// verbatim.
fn unquote(text: &str, no: usize) -> Result<String> {
    if let Some(body) = text.strip_prefix('\'') {
        let body = body
            .strip_suffix('\'')
            .ok_or_else(|| ParseError::new(no, "unterminated single-quoted scalar"))?;
        return Ok(body.replace("''", "'"));
    }
    if let Some(body) = text.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| ParseError::new(no, "unterminated double-quoted scalar"))?;
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('0') => out.push('\0'),
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some(other) => {
                        return Err(ParseError::new(no, format!("unknown escape `\\{other}`")))
                    }
                    None => return Err(ParseError::new(no, "trailing backslash in scalar")),
                }
            } else {
                out.push(c);
            }
        }
        return Ok(out);
    }
    Ok(text.to_string())
}
