//! Fixture for the suppression marker: the same forbidden pattern on two
//! lines, one carrying the allow marker. Only the unmarked line is a
//! finding.

use std::sync::Mutex; // presp-analyze: allow — sanctioned exception
use std::sync::RwLock; // FLAG:sync-facade

fn read(m: &Mutex<u32>, r: &RwLock<u32>) -> u32 {
    let a = *m.lock().unwrap_or_else(|p| p.into_inner());
    let b = *r.read().unwrap_or_else(|p| p.into_inner());
    a + b
}
