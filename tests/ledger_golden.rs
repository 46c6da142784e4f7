//! Integration: `history`, `regress` and `fingerprints` over a committed
//! mixed ledger print byte for byte what the golden transcript holds.
//!
//! `tests/golden/ledger_mixed.jsonl` holds real `trace --export` records
//! rewritten to schemas 1, 2 and 3, with unknown keys, escaped strings, a
//! request trace, a CRLF line and a blank line, plus a garbage line, an
//! unknown-schema line and a torn tail. `ledger_mixed.out` is what these
//! commands printed for it before the ledger decoder was rebuilt on the
//! pull JSON reader.

use std::path::Path;
use std::process::Command;

#[test]
fn ledger_commands_match_the_golden_transcript() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut transcript = String::new();
    for command in ["history", "regress", "fingerprints"] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchpark"))
            .args([command, "ledger_mixed.jsonl"])
            .current_dir(&golden)
            .output()
            .expect("benchpark binary runs");
        transcript.push_str(&format!(
            "$ benchpark {command} ledger_mixed.jsonl\nexit: {}\n--- stdout\n",
            output.status.code().unwrap_or(-1)
        ));
        transcript.push_str(&String::from_utf8_lossy(&output.stdout));
        transcript.push_str("--- stderr\n");
        transcript.push_str(&String::from_utf8_lossy(&output.stderr));
    }
    let expected = std::fs::read_to_string(golden.join("ledger_mixed.out")).unwrap();
    assert_eq!(transcript, expected);
}
