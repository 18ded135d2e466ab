//! Every file a test or crate embeds at compile time must be tracked by
//! git: `.gitignore` ignores `*.jsonl` and un-ignores fixtures one by one,
//! so a forgotten un-ignore leaves a tree that builds locally and fails to
//! compile on a clean checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The string-literal argument of every `include_str!` / `include_bytes!`
/// in `source`.
fn embedded_paths(source: &str) -> Vec<&str> {
    // Spelled in two halves so this file does not match itself.
    let macros = [concat!("include_", "str!("), concat!("include_", "bytes!(")];
    let mut found = Vec::new();
    for name in macros {
        for (at, _) in source.match_indices(name) {
            let args = source[at + name.len()..].trim_start();
            if let Some(literal) = args.strip_prefix('"') {
                if let Some(end) = literal.find('"') {
                    found.push(&literal[..end]);
                }
            }
        }
    }
    found
}

#[test]
fn every_embedded_file_is_tracked_by_git() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let inside_checkout = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--is-inside-work-tree"])
        .output()
        .is_ok_and(|out| out.status.success());
    if !inside_checkout {
        eprintln!("not a git checkout (or no git): skipped");
        return;
    }
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("tests"), &mut sources);
    let mut checked = 0;
    for source in &sources {
        let text = std::fs::read_to_string(source).expect("readable source file");
        for embedded in embedded_paths(&text) {
            let target = source.parent().expect("file has a parent").join(embedded);
            let tracked = Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["ls-files", "--error-unmatch"])
                .arg(&target)
                .output()
                .expect("git runs")
                .status
                .success();
            assert!(
                tracked,
                "{} embeds {}, which git does not track (ignored by .gitignore?)",
                source.display(),
                target.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 9, "the scan found only {checked} embedded files");
}
