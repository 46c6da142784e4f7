//! Unit, golden, and property tests for the YAML subset.

use crate::{emit, parse, Map, Value, MAX_JSON_DEPTH};

fn s(v: &str) -> Value {
    Value::str(v)
}

#[test]
fn empty_document_is_null() {
    assert_eq!(parse("").unwrap(), Value::Null);
    assert_eq!(parse("\n\n# only comments\n").unwrap(), Value::Null);
}

#[test]
fn scalar_inference() {
    let doc = parse("a: 3\nb: 3.5\nc: true\nd: null\ne: hello\nf: '3'\ng: 2.3.7\n").unwrap();
    assert_eq!(doc.get("a").unwrap().as_int(), Some(3));
    assert_eq!(doc.get("b").unwrap().as_float(), Some(3.5));
    assert_eq!(doc.get("c").unwrap().as_bool(), Some(true));
    assert!(doc.get("d").unwrap().is_null());
    assert_eq!(doc.get("e").unwrap().as_str(), Some("hello"));
    // quoted numbers stay strings; versions with two dots stay strings
    assert_eq!(doc.get("f").unwrap().as_str(), Some("3"));
    assert_eq!(doc.get("g").unwrap().as_str(), Some("2.3.7"));
}

#[test]
fn negative_and_signed_numbers() {
    let doc = parse("a: -7\nb: +4\nc: -0.5\n").unwrap();
    assert_eq!(doc.get("a").unwrap().as_int(), Some(-7));
    assert_eq!(doc.get("b").unwrap().as_int(), Some(4));
    assert_eq!(doc.get("c").unwrap().as_float(), Some(-0.5));
}

#[test]
fn nested_mappings() {
    let doc = parse("a:\n  b:\n    c: 1\n  d: 2\n").unwrap();
    assert_eq!(doc.get_path(&["a", "b", "c"]).unwrap().as_int(), Some(1));
    assert_eq!(doc.get_path(&["a", "d"]).unwrap().as_int(), Some(2));
}

#[test]
fn block_sequences() {
    let doc = parse("list:\n  - one\n  - two\n").unwrap();
    let seq = doc.get("list").unwrap().as_seq().unwrap();
    assert_eq!(seq, &[s("one"), s("two")]);
}

#[test]
fn sequence_at_key_indent() {
    // YAML permits sequence items at the same indentation as the parent key.
    let doc = parse("list:\n- one\n- two\nafter: 3\n").unwrap();
    let seq = doc.get("list").unwrap().as_seq().unwrap();
    assert_eq!(seq.len(), 2);
    assert_eq!(doc.get("after").unwrap().as_int(), Some(3));
}

#[test]
fn flow_sequences() {
    let doc = parse("a: ['8', '4']\nb: [1, 2, 3]\nc: []\n").unwrap();
    assert_eq!(doc.get("a").unwrap().as_seq().unwrap(), &[s("8"), s("4")]);
    assert_eq!(
        doc.get("b").unwrap().as_seq().unwrap(),
        &[Value::Int(1), Value::Int(2), Value::Int(3)]
    );
    assert!(doc.get("c").unwrap().as_seq().unwrap().is_empty());
}

#[test]
fn nested_flow() {
    let doc = parse("a: [[1, 2], ['x', 'y']]\n").unwrap();
    let outer = doc.get("a").unwrap().as_seq().unwrap();
    assert_eq!(outer[0].as_seq().unwrap()[1].as_int(), Some(2));
    assert_eq!(outer[1].as_seq().unwrap()[0].as_str(), Some("x"));
}

#[test]
fn flow_mapping() {
    let doc = parse("m: {a: 1, b: 'two'}\n").unwrap();
    assert_eq!(doc.get_path(&["m", "a"]).unwrap().as_int(), Some(1));
    assert_eq!(doc.get_path(&["m", "b"]).unwrap().as_str(), Some("two"));
}

#[test]
fn seq_of_maps_inline_first_key() {
    let doc = parse(
        "externals:\n- spec: mkl@2022.1.0\n  prefix: /opt/mkl\n- spec: mvapich2@2.3.7\n  prefix: /opt/mvapich2\n",
    )
    .unwrap();
    let seq = doc.get("externals").unwrap().as_seq().unwrap();
    assert_eq!(seq.len(), 2);
    assert_eq!(seq[0].get("spec").unwrap().as_str(), Some("mkl@2022.1.0"));
    assert_eq!(
        seq[1].get("prefix").unwrap().as_str(),
        Some("/opt/mvapich2")
    );
}

#[test]
fn seq_item_with_nested_seq_value() {
    // The `matrices` construct from Figure 10.
    let text = "matrices:\n- size_threads:\n  - n\n  - n_threads\n";
    let doc = parse(text).unwrap();
    let matrices = doc.get("matrices").unwrap().as_seq().unwrap();
    let m0 = matrices[0].as_map().unwrap();
    let vars = m0.get("size_threads").unwrap().as_seq().unwrap();
    assert_eq!(vars, &[s("n"), s("n_threads")]);
}

#[test]
fn comments_are_stripped() {
    let doc = parse("a: 1 # trailing\n# full line\nb: 'with # inside'\n").unwrap();
    assert_eq!(doc.get("a").unwrap().as_int(), Some(1));
    assert_eq!(doc.get("b").unwrap().as_str(), Some("with # inside"));
}

#[test]
fn quoting_and_escapes() {
    let doc = parse("a: 'it''s'\nb: \"tab\\there\"\n").unwrap();
    assert_eq!(doc.get("a").unwrap().as_str(), Some("it's"));
    assert_eq!(doc.get("b").unwrap().as_str(), Some("tab\there"));
}

#[test]
fn keys_with_braces() {
    // Ramble experiment-name templates use `{var}` inside mapping keys.
    let doc =
        parse("saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:\n  variables:\n    n: 1\n").unwrap();
    let map = doc.as_map().unwrap();
    assert_eq!(
        map.keys().next().unwrap(),
        "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}"
    );
}

#[test]
fn null_values_for_bare_keys() {
    let doc = parse("a:\nb: 1\n").unwrap();
    assert!(doc.get("a").unwrap().is_null());
    assert_eq!(doc.get("b").unwrap().as_int(), Some(1));
}

#[test]
fn duplicate_keys_rejected() {
    let err = parse("a: 1\na: 2\n").unwrap_err();
    assert!(err.message.contains("duplicate"));
    assert_eq!(err.line, 2);
}

#[test]
fn tabs_rejected() {
    assert!(parse("a:\n\tb: 1\n").is_err());
}

#[test]
fn unterminated_quote_rejected() {
    assert!(parse("a: 'oops\n").is_err());
}

#[test]
fn unclosed_flow_rejected() {
    assert!(parse("a: [1, 2\n").is_err());
}

#[test]
fn bad_indent_rejected() {
    assert!(parse("a: 1\n   b: 2\n").is_err());
}

#[test]
fn map_merge_semantics() {
    let mut base =
        parse("packages:\n  mpi:\n    buildable: true\n  blas:\n    version: 1\n").unwrap();
    let over =
        parse("packages:\n  mpi:\n    buildable: false\n  lapack:\n    version: 2\n").unwrap();
    base.as_map_mut()
        .unwrap()
        .merge_from(over.as_map().unwrap());
    assert_eq!(
        base.get_path(&["packages", "mpi", "buildable"])
            .unwrap()
            .as_bool(),
        Some(false)
    );
    assert_eq!(
        base.get_path(&["packages", "blas", "version"])
            .unwrap()
            .as_int(),
        Some(1)
    );
    assert_eq!(
        base.get_path(&["packages", "lapack", "version"])
            .unwrap()
            .as_int(),
        Some(2)
    );
}

#[test]
fn string_list_helper() {
    let doc = parse("a: [x, y]\nb: single\n").unwrap();
    assert_eq!(
        doc.get("a").unwrap().string_list().unwrap(),
        vec!["x".to_string(), "y".to_string()]
    );
    assert_eq!(
        doc.get("b").unwrap().string_list().unwrap(),
        vec!["single".to_string()]
    );
}

// ---------------------------------------------------------------------------
// Golden tests: the exact configuration texts from the paper's figures.
// ---------------------------------------------------------------------------

/// Figure 3: a simple Spack environment manifest.
#[test]
fn golden_fig3_spack_manifest() {
    let text =
        "spack:\n  specs: [amg2023+caliper]\n  concretizer:\n    unify: true\n  view: true\n";
    let doc = parse(text).unwrap();
    assert_eq!(
        doc.get_path(&["spack", "specs"]).unwrap().as_seq().unwrap()[0].as_str(),
        Some("amg2023+caliper")
    );
    assert_eq!(
        doc.get_path(&["spack", "concretizer", "unify"])
            .unwrap()
            .as_bool(),
        Some(true)
    );
    assert_eq!(
        doc.get_path(&["spack", "view"]).unwrap().as_bool(),
        Some(true)
    );
}

/// Figure 4: system packages.yaml with externals.
#[test]
fn golden_fig4_packages_externals() {
    let text = r#"packages:
  blas:
    externals:
    - spec: intel-oneapi-mkl@2022.1.0
      prefix: /path/to/intel-oneapi-mkl
    buildable: false
  mpi:
    externals:
    - spec: mvapich2@2.3.7-gcc12.1.1-magic
      prefix: /path/to/mvapich2
    buildable: false
"#;
    let doc = parse(text).unwrap();
    let blas = doc.get_path(&["packages", "blas"]).unwrap();
    assert_eq!(blas.get("buildable").unwrap().as_bool(), Some(false));
    let ext = blas.get("externals").unwrap().as_seq().unwrap();
    assert_eq!(
        ext[0].get("spec").unwrap().as_str(),
        Some("intel-oneapi-mkl@2022.1.0")
    );
    let mpi_ext = doc
        .get_path(&["packages", "mpi", "externals"])
        .unwrap()
        .as_seq()
        .unwrap();
    assert_eq!(
        mpi_ext[0].get("spec").unwrap().as_str(),
        Some("mvapich2@2.3.7-gcc12.1.1-magic")
    );
}

/// Figure 9: Ramble spack section (compiler / package definitions).
#[test]
fn golden_fig9_ramble_spack_section() {
    let text = r#"spack:
  packages:
    default-compiler:
      spack_spec: gcc@12.1.1
    default-mpi:
      spack_spec: mvapich2@2.3.7-gcc12.1.1
    gcc1211:
      spack_spec: gcc@12.1.1
    lapack:
      spack_spec: intel-oneapi-mkl@2022.1.0
    mpi-compilers:
      spack_spec: mvapich2@2.3.7-compilers
"#;
    let doc = parse(text).unwrap();
    let pkgs = doc
        .get_path(&["spack", "packages"])
        .unwrap()
        .as_map()
        .unwrap();
    assert_eq!(pkgs.len(), 5);
    assert_eq!(
        pkgs.get("default-mpi")
            .unwrap()
            .get("spack_spec")
            .unwrap()
            .as_str(),
        Some("mvapich2@2.3.7-gcc12.1.1")
    );
}

/// Figure 10: the full ramble.yaml (experiments + matrices).
#[test]
fn golden_fig10_ramble_yaml() {
    let text = r#"ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  config:
    deprecated: true
    spack_flags:
      install: '--add --keep-stage'
      concretize: '-U -f'
  applications:
    saxpy:
      workloads:
        problem:
          env_vars:
            set:
              OMP_NUM_THREADS: '{n_threads}'
          variables:
            n_ranks: '8'
            batch_time: '120'
          experiments:
            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:
              variables:
                processes_per_node: ['8', '4']
                n_nodes: ['1', '2']
                n_threads: ['2', '4']
                n: ['512', '1024']
              matrices:
              - size_threads:
                - n
                - n_threads
  spack:
    packages:
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp ^cmake@3.23.1
        compiler: default-compiler
    environments:
      saxpy:
        packages:
        - default-mpi
        - saxpy
"#;
    let doc = parse(text).unwrap();
    let workload = doc
        .get_path(&["ramble", "applications", "saxpy", "workloads", "problem"])
        .unwrap();
    assert_eq!(
        workload
            .get_path(&["env_vars", "set", "OMP_NUM_THREADS"])
            .unwrap()
            .as_str(),
        Some("{n_threads}")
    );
    let exp = workload
        .get_path(&["experiments", "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}"])
        .unwrap();
    assert_eq!(
        exp.get_path(&["variables", "n"])
            .unwrap()
            .string_list()
            .unwrap(),
        vec!["512", "1024"]
    );
    let matrices = exp.get("matrices").unwrap().as_seq().unwrap();
    let m0 = matrices[0]
        .get("size_threads")
        .unwrap()
        .string_list()
        .unwrap();
    assert_eq!(m0, vec!["n", "n_threads"]);
    assert_eq!(
        doc.get_path(&["ramble", "spack", "packages", "saxpy", "spack_spec"])
            .unwrap()
            .as_str(),
        Some("saxpy@1.0.0 +openmp ^cmake@3.23.1")
    );
    let env_pkgs = doc
        .get_path(&["ramble", "spack", "environments", "saxpy", "packages"])
        .unwrap()
        .string_list()
        .unwrap();
    assert_eq!(env_pkgs, vec!["default-mpi", "saxpy"]);
}

/// Figure 12: variables.yaml with scheduler and launcher commands.
#[test]
fn golden_fig12_variables_yaml() {
    let text = r#"variables:
  mpi_command: 'srun -N {n_nodes} -n {n_ranks}'
  batch_submit: 'sbatch {execute_experiment}'
  batch_nodes: '#SBATCH -N {n_nodes}'
  batch_ranks: '#SBATCH -n {n_ranks}'
  batch_timeout: '#SBATCH -t {batch_time}:00'
  compilers: [gcc1211, intel202160classic]
"#;
    let doc = parse(text).unwrap();
    let vars = doc.get("variables").unwrap();
    assert_eq!(
        vars.get("mpi_command").unwrap().as_str(),
        Some("srun -N {n_nodes} -n {n_ranks}")
    );
    // `#SBATCH` lines are quoted so they are not comments.
    assert_eq!(
        vars.get("batch_nodes").unwrap().as_str(),
        Some("#SBATCH -N {n_nodes}")
    );
    assert_eq!(
        vars.get("compilers").unwrap().string_list().unwrap(),
        vec!["gcc1211", "intel202160classic"]
    );
}

// ---------------------------------------------------------------------------
// Span tests: parse_spanned records 1-based line/col for nodes and keys.
// ---------------------------------------------------------------------------

#[test]
fn spans_for_nested_mappings() {
    let text = "a:\n  b:\n    c: 1\n  d: two\n";
    let doc = crate::parse_spanned(text).unwrap();
    let root = doc.as_map().unwrap();
    let a = root.entry("a").unwrap();
    assert_eq!(a.key_span, crate::Span::new(1, 1));
    let b = a.value.as_map().unwrap().entry("b").unwrap();
    assert_eq!(b.key_span, crate::Span::new(2, 3));
    let c = b.value.as_map().unwrap().entry("c").unwrap();
    assert_eq!(c.key_span, crate::Span::new(3, 5));
    // inline scalar value: column of the value text, not the key
    assert_eq!(c.value.span, crate::Span::new(3, 8));
    assert_eq!(c.value.as_int(), Some(1));
    let d = a.value.as_map().unwrap().entry("d").unwrap();
    assert_eq!(d.key_span, crate::Span::new(4, 3));
    assert_eq!(d.value.span, crate::Span::new(4, 6));
}

#[test]
fn spans_for_block_sequences() {
    let text = "list:\n  - one\n  - two\n";
    let doc = crate::parse_spanned(text).unwrap();
    let list = doc.get("list").unwrap();
    // the sequence starts at its first `- ` line
    assert_eq!(list.span, crate::Span::new(2, 3));
    let items = list.as_seq().unwrap();
    assert_eq!(items[0].span, crate::Span::new(2, 5));
    assert_eq!(items[1].span, crate::Span::new(3, 5));
}

#[test]
fn spans_for_seq_of_maps() {
    let text = "externals:\n- spec: mkl@2022.1.0\n  prefix: /opt/mkl\n";
    let doc = crate::parse_spanned(text).unwrap();
    let items = doc.get("externals").unwrap().as_seq().unwrap();
    let first = items[0].as_map().unwrap();
    let spec = first.entry("spec").unwrap();
    assert_eq!(spec.key_span, crate::Span::new(2, 3));
    assert_eq!(spec.value.span, crate::Span::new(2, 9));
    let prefix = first.entry("prefix").unwrap();
    assert_eq!(prefix.key_span, crate::Span::new(3, 3));
    assert_eq!(prefix.value.span, crate::Span::new(3, 11));
}

#[test]
fn spans_for_flow_collections() {
    let text = "a: ['8', '44']\nm: {x: 1, yy: 2}\n";
    let doc = crate::parse_spanned(text).unwrap();
    let a = doc.get("a").unwrap();
    assert_eq!(a.span, crate::Span::new(1, 4));
    let items = a.as_seq().unwrap();
    assert_eq!(items[0].span, crate::Span::new(1, 5));
    assert_eq!(items[1].span, crate::Span::new(1, 10));
    let m = doc.as_map().unwrap().entry("m").unwrap();
    assert_eq!(m.key_span, crate::Span::new(2, 1));
    let inner = m.value.as_map().unwrap();
    assert_eq!(inner.entry("x").unwrap().key_span, crate::Span::new(2, 5));
    assert_eq!(inner.entry("x").unwrap().value.span, crate::Span::new(2, 8));
    assert_eq!(inner.entry("yy").unwrap().key_span, crate::Span::new(2, 11));
    assert_eq!(
        inner.entry("yy").unwrap().value.span,
        crate::Span::new(2, 15)
    );
}

#[test]
fn spans_survive_string_list() {
    let text = "needs:\n  - build\n  - test\n";
    let doc = crate::parse_spanned(text).unwrap();
    let pairs = doc.get("needs").unwrap().string_list().unwrap();
    assert_eq!(pairs[0], ("build".to_string(), crate::Span::new(2, 5)));
    assert_eq!(pairs[1], ("test".to_string(), crate::Span::new(3, 5)));
}

#[test]
fn spanned_parse_matches_plain_parse() {
    let text = "a:\n  b: [1, {c: 2}]\n  d:\n  - x\n  - y: 3\n";
    let spanned = crate::parse_spanned(text).unwrap();
    assert_eq!(spanned.into_value(), parse(text).unwrap());
}

#[test]
fn duplicate_flow_mapping_keys_rejected() {
    let err = parse("m: {a: 1, a: 2}\n").unwrap_err();
    assert!(err.message.contains("duplicate"), "{}", err.message);
    assert_eq!(err.line, 1);
}

// ---------------------------------------------------------------------------
// Nesting bound: at most MAX_JSON_DEPTH collections, block and flow alike.
// ---------------------------------------------------------------------------

fn flow_nest(levels: usize) -> String {
    format!("{}{}", "[".repeat(levels), "]".repeat(levels))
}

fn block_nest(levels: usize) -> String {
    (0..levels)
        .map(|i| format!("{:indent$}k{i}:\n", "", indent = 2 * i))
        .collect()
}

/// Before the bound, the 200,000-level input overflowed the stack of a
/// test thread.
#[test]
fn flow_nesting_is_bounded() {
    let doc = parse(&flow_nest(MAX_JSON_DEPTH)).unwrap();
    let mut node = &doc;
    for _ in 1..MAX_JSON_DEPTH {
        node = &node.as_seq().unwrap()[0];
    }
    assert_eq!(node, &Value::Seq(vec![]));
    let err = parse(&flow_nest(200_000)).unwrap_err();
    assert_eq!(err.line, 1);
    assert_eq!(err.message, format!("nesting deeper than {MAX_JSON_DEPTH}"));
    let err = parse(&format!("a:\n  b: {}\n", flow_nest(200_000))).unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn block_nesting_is_bounded() {
    assert!(parse(&block_nest(MAX_JSON_DEPTH)).is_ok());
    let err = parse(&block_nest(MAX_JSON_DEPTH + 1)).unwrap_err();
    assert_eq!(err.line, MAX_JSON_DEPTH + 1);
    assert_eq!(err.message, format!("nesting deeper than {MAX_JSON_DEPTH}"));
    // a block level and the flow levels inside it count together
    let mixed = format!("a: {}\n", flow_nest(MAX_JSON_DEPTH));
    assert_eq!(parse(&mixed).unwrap_err().line, 1);
}

// ---------------------------------------------------------------------------
// Round-trip tests.
// ---------------------------------------------------------------------------

#[test]
fn emit_parse_roundtrip_manual() {
    let mut inner = Map::new();
    inner.insert("unify", Value::Bool(true));
    let mut spack = Map::new();
    spack.insert("specs", Value::Seq(vec![s("amg2023+caliper")]));
    spack.insert("concretizer", Value::Map(inner));
    spack.insert("view", Value::Bool(true));
    let mut root = Map::new();
    root.insert("spack", Value::Map(spack));
    let doc = Value::Map(root);

    let text = emit(&doc);
    let reparsed = parse(&text).unwrap();
    assert_eq!(reparsed, doc);
}

#[test]
fn emit_quotes_ambiguous_strings() {
    let mut root = Map::new();
    root.insert("a", s("true"));
    root.insert("b", s("123"));
    root.insert("c", s("#not-a-comment"));
    root.insert("d", s(""));
    let doc = Value::Map(root);
    let reparsed = parse(&emit(&doc)).unwrap();
    assert_eq!(reparsed, doc);
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy for scalar values that survive a round trip.
    fn scalar_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1.0e12..1.0e12f64).prop_map(Value::Float),
            "[ -~]{0,24}".prop_map(|s| Value::Str(s.trim().to_string())),
        ]
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        scalar_strategy().prop_recursive(3, 24, 6, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Seq),
                prop::collection::vec(("[a-z][a-z0-9_]{0,8}", inner), 0..5).prop_map(|pairs| {
                    let mut map = Map::new();
                    for (k, v) in pairs {
                        map.insert(k, v);
                    }
                    Value::Map(map)
                }),
            ]
        })
    }

    proptest! {
        /// emit → parse is the identity on generated documents.
        #[test]
        fn roundtrip(v in value_strategy()) {
            let text = emit(&v);
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
            prop_assert_eq!(reparsed, v);
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_total(input in "[ -~\n]{0,200}") {
            let _ = parse(&input);
        }

        /// JSON emit → parse is the identity, and re-emitting the reparsed
        /// value is byte-identical (the ledger determinism contract).
        #[test]
        fn json_roundtrip(v in value_strategy()) {
            let text = crate::emit_json(&v);
            let reparsed = crate::parse_json(&text)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
            prop_assert_eq!(&reparsed, &v);
            prop_assert_eq!(crate::emit_json(&reparsed), text);
        }

        /// The JSON parser never panics on arbitrary input.
        #[test]
        fn json_parser_total(input in "[ -~\n]{0,200}") {
            let _ = crate::parse_json(&input);
        }
    }
}

mod json_tests {
    use crate::{emit_json, parse_json, Map, Value};

    fn obj(pairs: &[(&str, Value)]) -> Value {
        let mut map = Map::new();
        for (k, v) in pairs {
            map.insert(*k, v.clone());
        }
        Value::Map(map)
    }

    #[test]
    fn emits_compact_deterministic_json() {
        let v = obj(&[
            ("schema", Value::Int(1)),
            ("name", Value::str("amg2023")),
            ("ok", Value::Bool(true)),
            ("ratio", Value::Float(0.5)),
            ("tags", Value::Seq(vec![Value::str("a"), Value::Null])),
        ]);
        assert_eq!(
            emit_json(&v),
            r#"{"schema":1,"name":"amg2023","ok":true,"ratio":0.5,"tags":["a",null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Value::str("a\"b\\c\nd\te");
        assert_eq!(emit_json(&v), r#""a\"b\\c\nd\te""#);
        assert_eq!(parse_json(&emit_json(&v)).unwrap(), v);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(emit_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(emit_json(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse_json(r#" {"a": [1, 2.5, {"b": null}], "c": "x", "d": false} "#).unwrap();
        assert_eq!(v.get_path(&["a"]).unwrap().as_seq().unwrap().len(), 3);
        assert_eq!(v.get_path(&["c"]).unwrap().as_str(), Some("x"));
        assert_eq!(v.get_path(&["d"]).unwrap().as_bool(), Some(false));
        let inner = &v.get_path(&["a"]).unwrap().as_seq().unwrap()[2];
        assert!(inner.get("b").unwrap().is_null());
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(parse_json("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse_json("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse_json("0.25").unwrap(), Value::Float(0.25));
        // beyond i64 range falls back to float
        assert!(matches!(
            parse_json("99999999999999999999").unwrap(),
            Value::Float(_)
        ));
    }

    #[test]
    fn parses_surrogate_pairs() {
        assert_eq!(parse_json(r#""😀""#).unwrap(), Value::str("\u{1F600}"));
        assert!(parse_json(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_corrupt_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a: 1}",
            "tru",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "[1 2]",
        ] {
            assert!(parse_json(bad).is_err(), "accepted corrupt input: {bad:?}");
        }
    }

    #[test]
    fn roundtrips_emitted_documents() {
        let v = obj(&[
            ("nested", obj(&[("deep", Value::Seq(vec![Value::Int(1)]))])),
            ("f", Value::Float(1.0)),
            ("neg", Value::Int(i64::MIN)),
        ]);
        let text = emit_json(&v);
        assert_eq!(parse_json(&text).unwrap(), v);
        assert_eq!(emit_json(&parse_json(&text).unwrap()), text);
    }
}
