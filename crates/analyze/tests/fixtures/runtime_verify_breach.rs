//! Violating fixture for the runtime's verify-once rule: a load path
//! outside `registry.rs` re-running the bitstream integrity check. A
//! string or comment naming `verify_integrity` must not be flagged.

fn describe() -> &'static str {
    "a string naming verify_integrity is not a breach"
}

// a comment naming verify_integrity is not a breach either

fn fetch(registry: &Registry, tile: Tile, kind: Kind) -> Result<Stream, Error> {
    let stream = registry.lookup(tile, kind)?;
    if !stream.verify_integrity() { // FLAG:registry-verifies-once
        return Err(Error::Corrupt);
    }
    Ok(stream)
}
