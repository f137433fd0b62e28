//! The flowchart MQ decoder, retained as the bit-exactness oracle for the
//! branch-free decoder in [`super`].
//!
//! A direct transcription of T.800's DECODE, MPS/LPS exchange, RENORMD
//! and BYTEIN flowcharts: the decision branches on the symbol, the
//! exchanges run out of line, and RENORMD shifts one bit at a time,
//! calling BYTEIN whenever CT is 0 at the start of a step. The
//! differential tests in the parent module assert that the fast decoder
//! returns the same decisions and the same [`MqDecoder::renorms`] count
//! on arbitrary (including corrupt) byte strings, and
//! [`crate::t1::reference`] decodes through this decoder so the
//! stripe-state-vs-reference Tier-1 property tests compare two fully
//! independent paths.

use super::{MqContext, STATE_TABLE};

/// The flowchart MQ decoder over a byte slice.
///
/// Reading past the end of the data synthesises 1-bits, exactly like
/// encountering a marker (T.800 C.3.4), so truncated segments decode
/// without panicking.
#[derive(Debug, Clone)]
pub struct MqDecoder<'a> {
    c: u32,
    a: u32,
    ct: i32,
    data: &'a [u8],
    bp: usize,
    renorms: u64,
}

impl<'a> MqDecoder<'a> {
    /// INITDEC over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        let b0 = data.first().copied().unwrap_or(0xFF);
        let mut dec = MqDecoder {
            c: (b0 as u32) << 16,
            a: 0,
            ct: 0,
            data,
            bp: 0,
            renorms: 0,
        };
        dec.byte_in();
        dec.c <<= 7;
        dec.ct -= 7;
        dec.a = 0x8000;
        dec
    }

    /// Renormalisations performed so far: one per decision that took an
    /// exchange path.
    pub fn renorms(&self) -> u64 {
        self.renorms
    }

    #[inline]
    fn byte_at(&self, i: usize) -> u8 {
        self.data.get(i).copied().unwrap_or(0xFF)
    }

    fn byte_in(&mut self) {
        if self.byte_at(self.bp) == 0xFF {
            if self.byte_at(self.bp + 1) > 0x8F {
                // Marker (or end of data): feed 1-bits.
                self.c += 0xFF00;
                self.ct = 8;
            } else {
                self.bp += 1;
                self.c += (self.byte_at(self.bp) as u32) << 9;
                self.ct = 7;
            }
        } else {
            self.bp += 1;
            self.c += (self.byte_at(self.bp) as u32) << 8;
            self.ct = 8;
        }
    }

    /// Decodes one decision in context `cx` (DECODE).
    #[inline]
    pub fn decode(&mut self, cx: &mut MqContext) -> bool {
        let qe = STATE_TABLE[cx.state() as usize].0 as u32;
        self.a -= qe;
        if (self.c >> 16) >= qe {
            self.c -= qe << 16;
            if self.a & 0x8000 != 0 {
                return cx.mps(); // MPS, no renormalisation
            }
            self.decode_mps_exchange(cx, qe)
        } else {
            self.decode_lps_exchange(cx, qe)
        }
    }

    /// MPS exchange path (`a` dropped below 0x8000): resolve the
    /// conditional exchange, adapt the context, renormalise.
    #[inline(never)]
    fn decode_mps_exchange(&mut self, cx: &mut MqContext, qe: u32) -> bool {
        let (_, nmps, nlps, switch) = STATE_TABLE[cx.state() as usize];
        let d;
        if self.a < qe {
            d = !cx.mps();
            *cx = MqContext::new(nlps, cx.mps() ^ switch);
        } else {
            d = cx.mps();
            *cx = MqContext::new(nmps, cx.mps());
        }
        self.renorm();
        d
    }

    /// LPS exchange path (`chigh < qe`): resolve the conditional
    /// exchange, adapt the context, renormalise.
    #[inline(never)]
    fn decode_lps_exchange(&mut self, cx: &mut MqContext, qe: u32) -> bool {
        let (_, nmps, nlps, switch) = STATE_TABLE[cx.state() as usize];
        let d;
        if self.a < qe {
            d = cx.mps();
            *cx = MqContext::new(nmps, cx.mps());
        } else {
            d = !cx.mps();
            *cx = MqContext::new(nlps, cx.mps() ^ switch);
        }
        self.a = qe;
        self.renorm();
        d
    }

    fn renorm(&mut self) {
        self.renorms += 1;
        loop {
            if self.ct == 0 {
                self.byte_in();
            }
            self.a <<= 1;
            self.c <<= 1;
            self.ct -= 1;
            if self.a & 0x8000 != 0 {
                break;
            }
        }
    }
}
