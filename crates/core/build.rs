//! Computes `MODEL_FINGERPRINT`: a hash of the simulator's model sources.
//!
//! The disk cache keys every entry on this fingerprint, so a build whose
//! model code differs never serves an entry an older simulator wrote.
//! The model is every `crates/*/src` except the crates in [`UNHASHED`];
//! a new crate is covered by default. The hash covers each file's path
//! (relative to `crates/`) and contents, in sorted path order. The
//! script also writes the hashed and unhashed crate names, which a unit
//! test checks against `atomic-dsm`'s dependencies.

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Crates under `crates/` that no job result can depend on:
///
/// * `bench` — the `figures` and `throughput` front ends, which print
///   results but never compute them;
/// * `analyze` — post-hoc critical-path analysis of traces, a
///   dev-dependency only;
/// * `mint` — the assembly front end: re-exported, but no experiment
///   runs it.
const UNHASHED: [&str; 3] = ["bench", "analyze", "mint"];

/// Every regular file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The sorted names of the crates under `crates/` whose sources the
/// fingerprint hashes.
fn hashed_crates(crates: &Path) -> Vec<String> {
    let entries = fs::read_dir(crates).unwrap_or_else(|e| panic!("{}: {e}", crates.display()));
    let mut names: Vec<String> = entries
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.join("src").is_dir())
        .map(|path| {
            path.file_name()
                .expect("named")
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !UNHASHED.contains(&name.as_str()))
        .collect();
    names.sort();
    names
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest.parent().expect("crates/core has a parent");
    let hashed = hashed_crates(crates);
    let mut paths = Vec::new();
    for name in &hashed {
        let dir = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", dir.display());
        files(&dir, &mut paths);
    }
    let mut rel: Vec<(String, PathBuf)> = paths
        .into_iter()
        .map(|p| {
            let name = p.strip_prefix(crates).expect("under crates/");
            (name.to_string_lossy().replace('\\', "/"), p)
        })
        .collect();
    rel.sort();
    // `DefaultHasher::new()` uses fixed keys, so the hash depends only on
    // the sources (and the toolchain, whose change may rightly miss too).
    let mut h = DefaultHasher::new();
    for (name, path) in &rel {
        name.hash(&mut h);
        fs::read(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .hash(&mut h);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    fs::write(
        out.join("model_fingerprint.rs"),
        format!("{:#018x}\n", h.finish()),
    )
    .expect("OUT_DIR is writable");
    fs::write(
        out.join("model_crates.rs"),
        format!("(&{hashed:?}, &{UNHASHED:?})\n"),
    )
    .expect("OUT_DIR is writable");
}
