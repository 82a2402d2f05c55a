//! Regenerates the structural content of **Figure 1** (Carloni et al.'s
//! combinational patient process) and **Figure 2** (the
//! synchronization-processor wrapper) from the actual generators, plus
//! ASCII renderings of the two architectures.

use lis_bench::{section, Artifact, Bar, Cli};
use lis_core::experiment::figures;
use serde::Value;

pub const ARTIFACT: Artifact = Artifact {
    name: "fig1_fig2",
    about: "Figures 1 and 2: the two wrapper architectures, regenerated.",
    flags: &[],
    refuse: |_| Ok(()),
    run,
};

fn run(_: &Cli) -> (Value, Vec<Bar>) {
    section("Figure 1 / Figure 2 — wrapper architectures (regenerated)");
    let figs = figures().expect("figure generation");
    for f in &figs {
        println!("{f}");
    }

    section("Figure 1 — Carloni et al. patient process (ASCII)");
    println!(
        r#"
          Combinatorial-logic based synchronization wrapper
   stopout <--+------------------+-----------------+--> stopin
              |  +------------+  |  +-----------+  |
   voidin --->|  | Input port |--+->|    IP     |--+-->| Output port |---> voidout
   data_in -->|  +------------+     |  (pearl)  |      +-------------+--> data_out
              |          enable --->| clock     |
              +---[ AND of all voids/stops ]----+
"#
    );

    section("Figure 2 — processor-based synchronization wrapper (ASCII)");
    println!(
        r#"
            Processor based synchronization wrapper
   data_in -->[ Input port ]==================>[    IP     ]==>[ Output port ]--> data_out
               | pop ^  | not_empty             ^ enable        ^ push | not_full
               v     |  v                       |               |      v
              +--------------------------------------------------------+
              |                SYNC PROCESSOR (3-state CFSMD)           |
              |   op address ==> [ Operations Memory (async ROM) ]      |
              |   operation word = input-mask | output-mask | run count |
              +--------------------------------------------------------+
"#
    );
    (Value::Null, Vec::new())
}
