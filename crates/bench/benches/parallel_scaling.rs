//! Tile-parallel decode scaling: sequential `decode` versus
//! `decode_parallel` with 2 and 4 workers on the Table 1 workload
//! (128×128, 16 tiles, 3 components), in both modes.
//!
//! This is the native-execution counterpart of the paper's model
//! versions 2–5 (1, 2 or 4 decoder pipelines): the models predict the
//! scaling in simulated time, this bench measures it on the host. On a
//! single-core host the parallel backend degrades gracefully to
//! roughly sequential speed (the work queue just serialises).

use jpeg2000::codec::decode;
use jpeg2000::parallel::decode_parallel;
use jpeg2000_models::{workload::workload, ModeSel};
use osss_bench::bench;

fn main() {
    for mode in ModeSel::ALL {
        let w = workload(mode);
        let bytes = &*w.codestream;
        let tiles = w.decoder.num_tiles() as f64;
        let group = format!("parallel_scaling_{mode}");
        let rate = |ns: u64| println!("  {:.1} tiles/s", tiles / (ns as f64 / 1e9));
        rate(bench(&group, "sequential", 20, || {
            decode(bytes).expect("decode").image
        }));
        for workers in [2usize, 4] {
            rate(bench(&group, &format!("{workers}_workers"), 20, || {
                decode_parallel(bytes, workers).expect("decode").image
            }));
        }
    }
}
