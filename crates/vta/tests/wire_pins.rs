//! Pins the serialised bytes, so a change made the same way on both the
//! writing and the reading side (which every roundtrip test accepts)
//! still fails here: big-endian scalars, a `u32` length before each
//! `Vec`, no prefix on fixed arrays, and the reliable-RMI trailer.

use osss_vta::{encode_frame, Serialise};

type Pinned = (
    (u8, u16),
    (
        (u32, u64),
        ((i32, i64), ((f64, bool), (Vec<u16>, [u32; 2]))),
    ),
);

fn pinned_value() -> Pinned {
    (
        (0xAB, 0x0102),
        (
            (0xDEAD_BEEF, 0x0102_0304_0506_0708),
            ((-2, -3), ((1.5, true), (vec![7, 8], [9, 10]))),
        ),
    )
}

const PINNED_HEX: &str = "ab0102deadbeef0102030405060708fffffffefffffffffffffffd\
                          3ff8000000000000010000000200070008000000090000000a";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn serialised_bytes_are_pinned() {
    let v = pinned_value();
    let bytes = v.to_bytes();
    assert_eq!(bytes.len(), 52);
    assert_eq!(v.serialised_bytes(), 52);
    assert_eq!(v.serialised_words(), 13);
    assert_eq!(hex(bytes.as_slice()), PINNED_HEX);
}

#[test]
fn reliable_frame_is_pinned() {
    let frame = encode_frame(&pinned_value());
    assert_eq!(frame.len(), 60);
    assert_eq!(
        hex(frame.as_slice()),
        format!("{PINNED_HEX}000000344d48a675")
    );
}
