//! Property-based tests for the TFRecord codec and shard index.

use proptest::prelude::*;
use std::io::Cursor;
use tfrecord::crc32c;
use tfrecord::{RecordReader, RecordWriter, ShardIndex};

proptest! {
    /// Any sequence of records round-trips byte-for-byte.
    #[test]
    fn records_roundtrip(payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2048), 0..32)) {
        let mut w = RecordWriter::new(Vec::new());
        for p in &payloads {
            w.write_record(p).unwrap();
        }
        let buf = w.into_inner();
        let mut r = RecordReader::new(Cursor::new(&buf));
        for p in &payloads {
            prop_assert_eq!(r.next_record().unwrap().unwrap(), p.clone());
        }
        prop_assert!(r.next_record().unwrap().is_none());
    }

    /// Flipping any single bit in a non-empty file makes decoding fail —
    /// the full frame (length, both CRCs, payload) is integrity-protected.
    #[test]
    fn any_bitflip_detected(payload in prop::collection::vec(any::<u8>(), 1..256), bit in 0usize..4096) {
        let mut w = RecordWriter::new(Vec::new());
        w.write_record(&payload).unwrap();
        let mut buf = w.into_inner();
        let bit = bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let mut r = RecordReader::new(Cursor::new(&buf)).with_max_record_len(1 << 20);
        // Either the record errors out, or (if the flip was in the length
        // header making it longer) we get a truncation/oversize error.
        let outcome = r.next_record();
        prop_assert!(outcome.is_err(), "bit flip at {bit} went undetected: {outcome:?}");
    }

    /// Decoding arbitrary byte soup never panics — it returns records or
    /// clean errors. (The reader is the component that faces on-disk
    /// corruption in production.)
    #[test]
    fn tfrecord_decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let mut r = RecordReader::new(Cursor::new(&bytes)).with_max_record_len(1 << 20);
        for _ in 0..64 {
            match r.next_record() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// crc32c extend() is associative with concatenation.
    #[test]
    fn crc_extend_assoc(a in prop::collection::vec(any::<u8>(), 0..512),
                        b in prop::collection::vec(any::<u8>(), 0..512)) {
        let whole = [a.clone(), b.clone()].concat();
        prop_assert_eq!(crc32c::extend(crc32c::crc32c(&a), &b), crc32c::crc32c(&whole));
    }

    /// mask/unmask are inverses over the whole u32 domain.
    #[test]
    fn mask_unmask_inverse(v in any::<u32>()) {
        prop_assert_eq!(crc32c::unmask(crc32c::mask(v)), v);
        prop_assert_eq!(crc32c::mask(crc32c::unmask(v)), v);
    }

    /// A built index equals the synthetic index for the same payload sizes,
    /// and record_at() is consistent with spans.
    #[test]
    fn index_consistency(sizes in prop::collection::vec(0u64..600, 0..24), probe in any::<u64>()) {
        let mut w = RecordWriter::new(Vec::new());
        for &s in &sizes {
            w.write_record(&vec![0xabu8; s as usize]).unwrap();
        }
        let buf = w.into_inner();
        let built = ShardIndex::build(Cursor::new(&buf)).unwrap();
        let synth = ShardIndex::from_payload_lens(&sizes);
        prop_assert_eq!(built.spans(), synth.spans());
        let total = synth.total_len();
        let probe = if total == 0 { 0 } else { probe % (total + 16) };
        match synth.record_at(probe) {
            Some(i) => {
                let s = synth.span(i).unwrap();
                prop_assert!(s.offset <= probe && probe < s.end());
            }
            None => prop_assert!(probe >= total),
        }
    }
}
