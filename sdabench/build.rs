//! Records the compiler version so every benchmark report names the
//! toolchain that built it.

// Timing with the wall clock is this benchmark's purpose; the workspace's
// determinism bans (clippy.toml) apply to the simulated crates only.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=SDABENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
