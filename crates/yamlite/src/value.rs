//! The in-memory document model.

use std::fmt;

/// An order-preserving mapping from string keys to values.
///
/// YAML mappings in configuration files are semantically ordered (e.g. config
/// scope precedence, experiment declaration order), so we keep insertion order
/// rather than using a hash map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key, returning the first matching value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Inserts or replaces `key`, preserving the position of an existing key.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.get_mut(&key) {
            *slot = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Deep-merges `other` into `self`: nested maps merge recursively, any
    /// other kind of value in `other` replaces the existing value. This is the
    /// semantic Spack uses when layering configuration scopes.
    pub fn merge_from(&mut self, other: &Map) {
        for (k, v) in other.iter() {
            match (self.get_mut(k), v) {
                (Some(Value::Map(dst)), Value::Map(src)) => dst.merge_from(src),
                (Some(slot), _) => *slot = v.clone(),
                (None, _) => self.entries.push((k.clone(), v.clone())),
            }
        }
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    /// Moves the `(key, value)` pairs out in insertion order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A parsed YAML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
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
    Seq(Vec<Value>),
    /// Block or flow mappings.
    Map(Map),
}

impl Value {
    /// Returns the string content for string scalars.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders any scalar as a string (`null` becomes an empty string).
    /// Sequences and mappings return `None`.
    pub fn scalar_string(&self) -> Option<String> {
        match self {
            Value::Null => Some(String::new()),
            Value::Bool(b) => Some(b.to_string()),
            Value::Int(i) => Some(i.to_string()),
            Value::Float(f) => Some(format_float(*f)),
            Value::Str(s) => Some(s.clone()),
            Value::Seq(_) | Value::Map(_) => None,
        }
    }

    /// Returns the boolean for bool scalars.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer for int scalars.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float for float *or* int scalars.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the element list for sequences.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the map for mappings.
    pub fn as_map(&self) -> Option<&Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable map access.
    pub fn as_map_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Map lookup shorthand; `None` for non-maps.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?.get(key)
    }

    /// Walks a chain of mapping keys: `doc.get_path(&["ramble", "variables"])`.
    pub fn get_path(&self, path: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Treats the value as a list of strings: a sequence of scalars yields its
    /// scalar renderings, a single scalar yields a one-element list.
    /// Mapping elements yield `None`.
    pub fn string_list(&self) -> Option<Vec<String>> {
        match self {
            Value::Seq(items) => items.iter().map(|v| v.scalar_string()).collect(),
            other => Some(vec![other.scalar_string()?]),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::emit(self))
    }
}

/// Formats a float so that it round-trips through the scalar parser as a float
/// (always keeps a decimal point or exponent).
pub(crate) fn format_float(f: f64) -> String {
    if f.is_finite() && f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}
