//! CRC-32 (IEEE 802.3 polynomial) for framing the merge write-ahead log.
//!
//! A torn tail — the classic crash failure mode of an append-only log —
//! must be *detected*, not interpreted. Every WAL frame therefore carries
//! a CRC over its header and payload; [`crate::wal`] truncates the log at
//! the first frame whose checksum fails. The implementation is the plain
//! reflected table-driven CRC-32 (polynomial `0xEDB88320`), built at
//! compile time so the hot loop is one table lookup per byte.

/// The reflected CRC-32 lookup table for polynomial `0xEDB88320`.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `bytes` (IEEE, as used by zlib/PNG/Ethernet).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"merge record payload");
        let mut bytes = b"merge record payload".to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 0x01;
            assert_ne!(crc32(&bytes), base, "flip at byte {i} went undetected");
            bytes[i] ^= 0x01;
        }
    }
}
