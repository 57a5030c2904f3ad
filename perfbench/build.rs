//! Stamps the binary with a digest of the program's sources, so every
//! result names the code it measured even in a checkout without git
//! metadata.

use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    collect(&root.join("vendor"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE=src-{hash:016x}");
    for dir in ["Cargo.toml", "Cargo.lock", "crates", "vendor"] {
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
}
