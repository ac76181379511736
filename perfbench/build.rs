//! Records build provenance for the benchmark report: the rustc version,
//! the build profile, and the repository's git commit when the sources
//! sit in a git checkout (read from `.git` directly, no subprocess).

use std::path::Path;
use std::process::Command;

fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_SHA={}",
        git_sha(&root).unwrap_or_else(|| "unknown".to_owned())
    );
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", std::env::var("PROFILE").unwrap_or_default());
    println!("cargo:rerun-if-changed=build.rs");
    // Only watch paths that exist: a missing one makes cargo rerun the
    // script (and rebuild the benchmark) on every invocation.
    for p in [root.join(".git/HEAD"), root.join(".git/refs/heads"), root.join(".git/packed-refs")] {
        if p.exists() {
            println!("cargo:rerun-if-changed={}", p.display());
        }
    }
}
