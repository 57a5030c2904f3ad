//! Violating fixture for the configuration-memory doorway: code outside
//! `config_memory.rs` reaching into the slot store. A string or comment
//! naming `slot_words` or `put_slot(` must not be flagged.

fn describe() -> &'static str {
    "a string naming slot_words and put_slot( is not a breach"
}

// a comment naming free_slots and erase_slot( is not a breach either

fn flip(memory: &mut Store, slot: usize) {
    memory.slot_words[slot] ^= 1; // FLAG:config-memory-doorway
}

fn vouch(memory: &mut Store, slot: usize) {
    memory.slot_encoded[slot] = true; // FLAG:config-memory-doorway
}

fn overwrite(memory: &mut Store, addr: Addr, data: &[u32]) {
    memory.put_slot(addr, data, None); // FLAG:config-memory-doorway
}
