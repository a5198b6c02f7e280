//! The goldens of the `paper` and `saturation_sweep` binaries: one report
//! per command in `crates/bench/tests/goldens/`, rewritten by each
//! binary's `--write-goldens` and compared line by line by its test, so
//! virtual time moves only with a commit that rewrites them.

/// Where the golden named `stem` lives.
fn path(stem: &str) -> String {
    format!("{}/tests/goldens/{stem}.golden", env!("CARGO_MANIFEST_DIR"))
}

/// Rewrites the golden named `stem` with `report`.
pub fn write(stem: &str, report: &str) -> std::io::Result<()> {
    let path = path(stem);
    std::fs::write(&path, report)?;
    println!("wrote {path}");
    Ok(())
}

/// Asserts that `report`, what `command` prints now, equals the golden
/// named `stem` (a missing golden reads as empty), naming the command and
/// the first differing line.
pub fn assert_matches(stem: &str, command: &str, report: &str) {
    let golden = std::fs::read_to_string(path(stem)).unwrap_or_default();
    let (mut golden_lines, mut report_lines) = (golden.lines(), report.lines());
    for line in 1.. {
        let (want, got) = (golden_lines.next(), report_lines.next());
        if want.is_none() && got.is_none() {
            return;
        }
        assert_eq!(
            want, got,
            "`{command}` differs from tests/goldens/{stem}.golden first at line {line}; \
             if the move is meant, rerun with --write-goldens"
        );
    }
}
