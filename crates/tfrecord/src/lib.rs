//! TFRecord on-disk format and synthetic dataset generation.
//!
//! TensorFlow's TFRecord container packs many small records (e.g. encoded
//! images) into large sequential files. Each record is framed as:
//!
//! ```text
//! u64 little-endian  length
//! u32 little-endian  masked CRC32C of the 8 length bytes
//! [u8; length]       payload
//! u32 little-endian  masked CRC32C of the payload
//! ```
//!
//! where the mask is TensorFlow's `((crc >> 15) | (crc << 17)) + 0xa282ead8`.
//! This crate implements the exact format (validated against the published
//! framing constants), plus:
//!
//! - [`RecordWriter`] / [`RecordReader`] — streaming codec over any
//!   `Write`/`Read`.
//! - [`index::ShardIndex`] — byte offsets of each record in a shard, used by
//!   the input pipeline for chunked access.
//! - [`synth`] — a synthetic ImageNet-style sharded dataset generator with
//!   the geometry used in the paper (≈115 KiB samples, 128 MiB shards).

pub mod crc32c;
pub mod index;
pub mod reader;
pub mod synth;
pub mod writer;

pub use index::ShardIndex;
pub use reader::RecordReader;
pub use writer::RecordWriter;

/// Errors produced by TFRecord encoding/decoding.
#[derive(Debug)]
pub enum TfRecordError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The masked CRC of the length header did not match.
    BadLengthCrc {
        /// Byte offset of the record header.
        offset: u64,
    },
    /// The masked CRC of the payload did not match.
    BadDataCrc {
        /// Byte offset of the record header.
        offset: u64,
    },
    /// A record claimed a length larger than the configured sanity limit.
    OversizedRecord {
        /// Byte offset of the record header.
        offset: u64,
        /// Claimed payload length.
        len: u64,
        /// Configured sanity limit.
        limit: u64,
    },
    /// The file ended in the middle of a record.
    Truncated {
        /// Byte offset of the truncated record.
        offset: u64,
    },
}

impl std::fmt::Display for TfRecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TfRecordError::Io(e) => write!(f, "i/o error: {e}"),
            TfRecordError::BadLengthCrc { offset } => {
                write!(f, "corrupt length crc at offset {offset}")
            }
            TfRecordError::BadDataCrc { offset } => {
                write!(f, "corrupt payload crc for record at offset {offset}")
            }
            TfRecordError::OversizedRecord { offset, len, limit } => write!(
                f,
                "record at offset {offset} claims {len} bytes (limit {limit})"
            ),
            TfRecordError::Truncated { offset } => {
                write!(f, "file truncated inside record at offset {offset}")
            }
        }
    }
}

impl std::error::Error for TfRecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TfRecordError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TfRecordError {
    fn from(e: std::io::Error) -> Self {
        TfRecordError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TfRecordError>;

/// Size of the per-record framing overhead: 8 (length) + 4 (length crc)
/// + 4 (payload crc) bytes.
pub const FRAME_OVERHEAD: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_small_records() {
        let mut buf = Vec::new();
        {
            let mut w = RecordWriter::new(&mut buf);
            w.write_record(b"hello").unwrap();
            w.write_record(b"").unwrap();
            w.write_record(&[0xffu8; 300]).unwrap();
            w.flush().unwrap();
        }
        let mut r = RecordReader::new(Cursor::new(&buf));
        assert_eq!(r.next_record().unwrap().unwrap(), b"hello");
        assert_eq!(r.next_record().unwrap().unwrap(), b"");
        assert_eq!(r.next_record().unwrap().unwrap(), vec![0xffu8; 300]);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn detects_payload_corruption() {
        let mut buf = Vec::new();
        {
            let mut w = RecordWriter::new(&mut buf);
            w.write_record(b"payload-bytes").unwrap();
        }
        // Flip a byte inside the payload (after 12-byte header).
        buf[14] ^= 0x01;
        let mut r = RecordReader::new(Cursor::new(&buf));
        match r.next_record() {
            Err(TfRecordError::BadDataCrc { offset: 0 }) => {}
            other => panic!("expected BadDataCrc, got {other:?}"),
        }
    }

    #[test]
    fn detects_length_corruption() {
        let mut buf = Vec::new();
        {
            let mut w = RecordWriter::new(&mut buf);
            w.write_record(b"x").unwrap();
        }
        buf[0] ^= 0x01;
        let mut r = RecordReader::new(Cursor::new(&buf));
        assert!(matches!(
            r.next_record(),
            Err(TfRecordError::BadLengthCrc { offset: 0 })
        ));
    }

    #[test]
    fn truncated_file_reported() {
        let mut buf = Vec::new();
        {
            let mut w = RecordWriter::new(&mut buf);
            w.write_record(&[7u8; 64]).unwrap();
        }
        buf.truncate(buf.len() - 10);
        let mut r = RecordReader::new(Cursor::new(&buf));
        assert!(matches!(
            r.next_record(),
            Err(TfRecordError::Truncated { offset: 0 })
        ));
    }
}
