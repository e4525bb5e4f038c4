//! Computes `MODEL_FINGERPRINT`: a hash of the simulator's model sources.
//!
//! The disk cache keys every entry on this fingerprint, so a build whose
//! model code differs never serves an entry an older simulator wrote.
//! The hash covers each file's path (relative to `crates/`) and contents,
//! in sorted path order.

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// The model's source directories, relative to `crates/`.
const MODEL_DIRS: [&str; 7] = [
    "sim/src",
    "mesh/src",
    "protocol/src",
    "machine/src",
    "sync/src",
    "workloads/src",
    "core/src/experiments",
];

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

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest.parent().expect("crates/core has a parent");
    let mut paths = Vec::new();
    for dir in MODEL_DIRS {
        let dir = crates.join(dir);
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
}
