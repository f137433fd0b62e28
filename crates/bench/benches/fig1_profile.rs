//! Figure 1: the per-stage decode profile. Benches the instrumented
//! decode as a whole and each stage in isolation so the measured shares
//! can be cross-checked.

use jpeg2000::codec::{decode, StagedDecoder};
use osss_bench::{bench, encoded_workload};

const GROUP: &str = "fig1_profile";

fn main() {
    for (label, lossless) in [("lossless", true), ("lossy", false)] {
        let (_, bytes) = encoded_workload(lossless, 128);
        bench(GROUP, &format!("full_decode_{label}"), 20, || {
            decode(&bytes).expect("decode")
        });
        let dec = StagedDecoder::new(&bytes).expect("parse");
        bench(GROUP, &format!("stage_entropy_{label}"), 20, || {
            dec.entropy_decode_tile(0).expect("entropy")
        });
        let coeffs = dec.entropy_decode_tile(0).expect("entropy");
        bench(GROUP, &format!("stage_iq_{label}"), 20, || {
            dec.dequantize_tile(&coeffs)
        });
        let wavelet = dec.dequantize_tile(&coeffs);
        bench(GROUP, &format!("stage_idwt_{label}"), 20, || {
            dec.idwt_tile(wavelet.clone())
        });
        let samples = dec.idwt_tile(wavelet);
        bench(GROUP, &format!("stage_mct_dc_{label}"), 20, || {
            dec.dc_unshift_tile(dec.inverse_mct_tile(samples.clone()))
        });
    }
}
