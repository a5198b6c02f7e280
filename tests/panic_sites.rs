//! The library code's panic sites are a number that only goes down
//! (ROADMAP item 12): bytes from a socket or the disk must never panic a
//! replica, and every `.unwrap()`, `.expect(` or `panic!(` is a place to
//! check that they cannot reach.
//!
//! The count covers `crates/*/src/**/*.rs` above each file's first
//! `#[cfg(test)]`, comment lines excluded. A change that adds a site
//! fails here; one that removes sites lowers [`CEILING`] to the new count.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The most panic sites the library code may hold.
const CEILING: usize = 78;

const PATTERNS: [&str; 3] = [".unwrap()", ".expect(", "panic!("];

/// Panic sites in one file's non-test code.
fn sites_in(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| {
            PATTERNS
                .iter()
                .map(|p| line.matches(p).count())
                .sum::<usize>()
        })
        .sum()
}

/// Panic sites in every `.rs` file under `dir`.
fn sites_under(dir: &Path) -> usize {
    let mut total = 0;
    for entry in fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() {
            total += sites_under(&path);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            total += sites_in(&fs::read_to_string(&path).expect("read a source file"));
        }
    }
    total
}

#[test]
fn library_panic_sites_stay_under_the_ceiling() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut per_crate = BTreeMap::new();
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let src = entry.expect("read a crate entry").path().join("src");
        if src.is_dir() {
            let name = src.parent().and_then(Path::file_name).expect("crate name");
            per_crate.insert(name.to_string_lossy().into_owned(), sites_under(&src));
        }
    }
    let total: usize = per_crate.values().sum();
    assert!(
        total <= CEILING,
        "{total} panic sites in library code, above the ceiling of {CEILING}: {per_crate:?}"
    );
}

#[test]
fn counting_skips_tests_and_comments() {
    let source = "fn a() { x.unwrap(); y.expect(\"y\"); }\n\
                  // z.unwrap()\n\
                  fn b() { panic!(\"b\"); w.unwrap().unwrap(); }\n\
                  #[cfg(test)]\n\
                  mod tests { fn c() { v.unwrap(); } }\n";
    assert_eq!(sites_in(source), 5);
}
