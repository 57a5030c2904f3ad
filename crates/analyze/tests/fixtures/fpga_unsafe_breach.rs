//! Violating fixture for the presp-fpga unsafe doorway: a SIMD checksum
//! outside `crc.rs`. A string or comment naming `unsafe` or `std::arch`
//! must not be flagged.

fn describe() -> &'static str {
    "a string naming unsafe and std::arch is not a breach"
}

// a comment naming an unsafe block or std::arch is not a breach either

use std::arch::x86_64::_mm_loadu_si128; // FLAG:fpga-unsafe-doorway

fn first_block(words: &[u32; 4]) -> u32 {
    let block = unsafe { _mm_loadu_si128(words.as_ptr().cast()) }; // FLAG:fpga-unsafe-doorway
    std::arch::x86_64::_mm_cvtsi128_si32(block) as u32 // FLAG:fpga-unsafe-doorway
}
