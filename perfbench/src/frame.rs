//! The frame splitter: cut a byte stream into whole serve frames without
//! checking them, so the traced client can time waiting for a reply apart
//! from opening it (`read_frame`, which checks the CRC).

use std::io::{self, Read};

use dmt::core::snapshot::SNAPSHOT_HEADER_LEN;
use dmt_serve::protocol::MAX_FRAME_LEN;

/// Byte range of the little-endian payload length inside a frame header.
const LENGTH_FIELD: std::ops::Range<usize> = 16..24;

/// Total length (header plus payload) of the frame whose header starts
/// `buf`. `Ok(None)` while the header is incomplete; an error when the
/// announced payload exceeds [`MAX_FRAME_LEN`].
pub fn frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(field) = buf.get(LENGTH_FIELD) else {
        return Ok(None);
    };
    let mut le = [0u8; 8];
    le.copy_from_slice(field);
    match usize::try_from(u64::from_le_bytes(le)) {
        Ok(len) if len <= MAX_FRAME_LEN => Ok(Some(SNAPSHOT_HEADER_LEN + len)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame announces a payload over MAX_FRAME_LEN",
        )),
    }
}

/// Read exactly one raw frame (header and payload, unchecked) into `out`,
/// replacing its contents.
pub fn read_raw_frame<R: Read>(r: &mut R, out: &mut Vec<u8>) -> io::Result<()> {
    out.clear();
    out.resize(SNAPSHOT_HEADER_LEN, 0);
    r.read_exact(out)?;
    let total = frame_len(out)?.expect("a full header is buffered");
    out.resize(total, 0);
    r.read_exact(&mut out[SNAPSHOT_HEADER_LEN..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_serve::protocol::{read_frame, write_frame, FrameRead};
    use std::io::Cursor;

    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).expect("writing to a Vec cannot fail");
        out
    }

    #[test]
    fn frame_len_waits_for_a_full_header() {
        let frame = sealed(b"hello");
        assert_eq!(frame_len(&frame[..SNAPSHOT_HEADER_LEN - 1]).unwrap(), None);
        assert_eq!(
            frame_len(&frame[..SNAPSHOT_HEADER_LEN]).unwrap(),
            Some(SNAPSHOT_HEADER_LEN + 5)
        );
        assert_eq!(frame_len(&frame).unwrap(), Some(frame.len()));
    }

    #[test]
    fn frame_len_rejects_an_oversize_announcement() {
        let mut frame = sealed(b"x");
        frame[LENGTH_FIELD].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(frame_len(&frame).is_err());
    }

    #[test]
    fn splits_a_stream_of_frames_at_their_boundaries() {
        let payloads: [&[u8]; 3] = [b"", b"first", &[7u8; 300]];
        let stream: Vec<u8> = payloads.iter().flat_map(|p| sealed(p)).collect();
        let mut cursor = Cursor::new(stream);
        let mut raw = Vec::new();
        for payload in payloads {
            read_raw_frame(&mut cursor, &mut raw).unwrap();
            assert_eq!(raw, sealed(payload));
            match read_frame(&mut Cursor::new(&raw)).unwrap() {
                FrameRead::Payload(p) => assert_eq!(p, payload),
                FrameRead::Eof => panic!("a whole frame was split off"),
            }
        }
        let err = read_raw_frame(&mut cursor, &mut raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_truncated_payload_is_an_error() {
        let frame = sealed(b"truncated payload");
        let mut cursor = Cursor::new(&frame[..frame.len() - 3]);
        let mut raw = Vec::new();
        let err = read_raw_frame(&mut cursor, &mut raw).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
