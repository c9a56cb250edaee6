//! Deliberately-violating fixture for the stream-registry pass.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Draws from a mix of registered and unregistered streams.
pub fn draw(f: &Factory, name: &str) {
    let _ = f.stream("det.known");
    let _ = f.stream("det.unregistered");
    let _ = f.stream_indexed("fam", 3);
    let _ = f.stream("fam.7");
    let _ = f.stream(name);
    let _ = f.stream("other.owned");
    let _ = f.stream("det.reused");
    let _ = f.stream("det.reused");
    let _ = f.stream(&format!("det.dynfam.{i}"));
    // sda-lint: allow(stream-registry, reason = "fixture: an audited dynamic site")
    let _ = f.stream(name);
}
