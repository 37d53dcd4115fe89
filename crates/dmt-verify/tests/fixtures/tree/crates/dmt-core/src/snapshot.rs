//! Fixture: the canonical wire-format version constant, and a clean
//! designated hot function.

pub const SNAPSHOT_VERSION: u32 = 2;

pub fn crc32(data: &[u8]) -> u32 {
    data.iter().fold(0, |c, &b| c ^ b as u32)
}
