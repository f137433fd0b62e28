//! Table 2: the full synthesis pipeline — inlining pass, three-address
//! VHDL emission and Virtex-4 estimation for both IDWT designs — plus
//! each pass in isolation.

use fossy::emit::vhdl;
use fossy::estimate::{estimate_entity, Virtex4};
use fossy::idwt;
use fossy::passes::inline_entity;
use jpeg2000_models::synth::table2;
use osss_bench::bench;

const GROUP: &str = "table2_synth";

fn main() {
    bench(GROUP, "full_table2", 10, || {
        let rows = table2();
        assert_eq!(rows.len(), 2);
        rows
    });
    let input53 = idwt::idwt53_fossy_input();
    let input97 = idwt::idwt97_fossy_input();
    bench(GROUP, "inline_idwt53", 10, || inline_entity(&input53));
    bench(GROUP, "inline_idwt97", 10, || inline_entity(&input97));
    let inlined = inline_entity(&input97);
    bench(GROUP, "emit_vhdl_three_address_idwt97", 10, || {
        vhdl::emit_entity_styled(&inlined, vhdl::Style::ThreeAddress)
    });
    let device = Virtex4::lx25();
    bench(GROUP, "estimate_idwt97", 10, || {
        estimate_entity(&inlined, &device)
    });
}
