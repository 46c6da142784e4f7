//! Source spans and the span-carrying document model.
//!
//! [`crate::parse_spanned`] returns a [`SpannedValue`] tree in which every
//! node — and every mapping key — remembers the 1-based line/column where it
//! appeared in the source text. Consumers that do not care about positions use
//! [`crate::parse`], which is the same parse with the spans stripped.

use crate::value::{format_float, Map, Value};

/// A 1-based source position (`line:col`) of a parsed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (byte offset within the line, plus one).
    pub col: usize,
}

impl Span {
    /// Creates a span at `line:col`.
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parsed YAML value plus the source position it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedValue {
    /// Where the value begins in the source.
    pub span: Span,
    /// The value itself.
    pub node: SpannedNode,
}

/// The span-carrying counterpart of [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpannedNode {
    /// `null`, `~`, or an empty value position.
    Null,
    /// `true` / `false` plain scalars.
    Bool(bool),
    /// Plain scalars that parse as integers.
    Int(i64),
    /// Plain scalars that parse as floats (but not integers).
    Float(f64),
    /// Everything else, including all quoted scalars.
    Str(String),
    /// Block or flow sequences.
    Seq(Vec<SpannedValue>),
    /// Block or flow mappings.
    Map(SpannedMap),
}

/// One `key: value` pair of a [`SpannedMap`], with the key's own span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedEntry {
    /// The mapping key.
    pub key: String,
    /// Where the key appears in the source.
    pub key_span: Span,
    /// The entry's value.
    pub value: SpannedValue,
}

/// An order-preserving mapping that keeps a span for every key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpannedMap {
    entries: Vec<SpannedEntry>,
}

impl SpannedMap {
    /// Creates an empty map.
    pub fn new() -> SpannedMap {
        SpannedMap::default()
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry (the parser guarantees key uniqueness).
    pub fn insert(&mut self, key: impl Into<String>, key_span: Span, value: SpannedValue) {
        self.entries.push(SpannedEntry {
            key: key.into(),
            key_span,
            value,
        });
    }

    /// Looks up a key's value.
    pub fn get(&self, key: &str) -> Option<&SpannedValue> {
        self.entry(key).map(|e| &e.value)
    }

    /// Looks up a key's full entry (including the key span).
    pub fn entry(&self, key: &str) -> Option<&SpannedEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entry(key).is_some()
    }

    /// Iterates over entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &SpannedEntry> {
        self.entries.iter()
    }
}

impl SpannedValue {
    /// A spanned value with no useful position (used by synthetic documents).
    pub fn detached(node: SpannedNode) -> SpannedValue {
        SpannedValue {
            span: Span::default(),
            node,
        }
    }

    /// Returns the string content for string scalars.
    pub fn as_str(&self) -> Option<&str> {
        match &self.node {
            SpannedNode::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders any scalar as a string (`null` becomes an empty string).
    /// Sequences and mappings return `None`.
    pub fn scalar_string(&self) -> Option<String> {
        match &self.node {
            SpannedNode::Null => Some(String::new()),
            SpannedNode::Bool(b) => Some(b.to_string()),
            SpannedNode::Int(i) => Some(i.to_string()),
            SpannedNode::Float(f) => Some(format_float(*f)),
            SpannedNode::Str(s) => Some(s.clone()),
            SpannedNode::Seq(_) | SpannedNode::Map(_) => None,
        }
    }

    /// Returns the boolean for bool scalars.
    pub fn as_bool(&self) -> Option<bool> {
        match &self.node {
            SpannedNode::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer for int scalars.
    pub fn as_int(&self) -> Option<i64> {
        match &self.node {
            SpannedNode::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the element list for sequences.
    pub fn as_seq(&self) -> Option<&[SpannedValue]> {
        match &self.node {
            SpannedNode::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the map for mappings.
    pub fn as_map(&self) -> Option<&SpannedMap> {
        match &self.node {
            SpannedNode::Map(m) => Some(m),
            _ => None,
        }
    }

    /// True for null nodes.
    pub fn is_null(&self) -> bool {
        matches!(self.node, SpannedNode::Null)
    }

    /// Map lookup shorthand; `None` for non-maps.
    pub fn get(&self, key: &str) -> Option<&SpannedValue> {
        self.as_map()?.get(key)
    }

    /// Walks a chain of mapping keys.
    pub fn get_path(&self, path: &[&str]) -> Option<&SpannedValue> {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// Treats the value as a list of strings with the span of each element: a
    /// sequence of scalars yields its scalar renderings, a single scalar
    /// yields a one-element list. Mapping elements yield `None`.
    pub fn string_list(&self) -> Option<Vec<(String, Span)>> {
        match &self.node {
            SpannedNode::Seq(items) => items
                .iter()
                .map(|v| v.scalar_string().map(|s| (s, v.span)))
                .collect(),
            _ => Some(vec![(self.scalar_string()?, self.span)]),
        }
    }

    /// Strips the spans, producing the plain [`Value`] tree.
    pub fn into_value(self) -> Value {
        match self.node {
            SpannedNode::Null => Value::Null,
            SpannedNode::Bool(b) => Value::Bool(b),
            SpannedNode::Int(i) => Value::Int(i),
            SpannedNode::Float(f) => Value::Float(f),
            SpannedNode::Str(s) => Value::Str(s),
            SpannedNode::Seq(items) => {
                Value::Seq(items.into_iter().map(SpannedValue::into_value).collect())
            }
            SpannedNode::Map(map) => {
                let mut out = Map::new();
                for entry in map.entries {
                    out.insert(entry.key, entry.value.into_value());
                }
                Value::Map(out)
            }
        }
    }
}
