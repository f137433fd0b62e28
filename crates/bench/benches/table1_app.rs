//! Table 1, Application-Layer rows: wall-clock cost of simulating each
//! model version (the *simulated* times are printed by the
//! `table1_simulation` binary; this bench tracks the simulator itself).

use jpeg2000_models::{run_version, ModeSel, VersionId};
use osss_bench::bench;

fn main() {
    for version in [
        VersionId::V1,
        VersionId::V2,
        VersionId::V3,
        VersionId::V4,
        VersionId::V5,
    ] {
        for mode in ModeSel::ALL {
            bench("table1_app", &format!("v{version}_{mode}"), 10, || {
                let r = run_version(version, mode).expect("simulation");
                assert!(r.functional_ok);
                r.decode_time
            });
        }
    }
}
