//! Figure 4: generating the complete implementation model (VHDL + C +
//! MHS/MSS) for the case-study platform.

use fossy::emit::platform::{emit_mhs, emit_mss};
use jpeg2000_models::synth::synthesis_flow;
use osss_bench::bench;
use osss_vta::PlatformDesc;

const GROUP: &str = "fig4_synthesis_flow";

fn main() {
    bench(GROUP, "full_flow", 10, || {
        let a = synthesis_flow();
        assert_eq!(a.vhdl.len(), 2);
        a
    });
    let platform = PlatformDesc::ml401_case_study();
    bench(GROUP, "emit_mhs", 10, || emit_mhs(&platform));
    bench(GROUP, "emit_mss", 10, || emit_mss(&platform));
}
