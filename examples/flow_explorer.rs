//! Flow explorer: classify and compile every paper design, comparing the
//! size-driven strategy choice against forced alternatives and the
//! monolithic baseline.
//!
//! Run with: `cargo run --release --example flow_explorer`

use presp::cad::flow::{CadFlow, Strategy};
use presp::core::design::SocDesign;
use presp::core::flow::PrEspFlow;
use presp::core::strategy::choose_strategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Table III and Table IV designs: SOC_1–SOC_4 and SoC_A–SoC_D.
    let designs = SocDesign::builtins().into_iter().take(8);

    let cad = CadFlow::new();
    let flow = PrEspFlow::new();

    println!(
        "{:<8} {:<10} {:<22} {:>8} {:>8} {:>8} {:>10}",
        "design", "class", "chosen strategy", "serial", "semi-2", "fully", "monolithic"
    );
    for design in designs {
        let spec = design.to_spec()?;
        let n = spec.reconfigurable().len();
        let (class, chosen) = choose_strategy(&spec)?;

        let wall = |strategy: Strategy| -> String {
            match cad.run_pnr(&spec, strategy) {
                Ok(r) => format!("{:.0}", r.wall.value()),
                Err(_) => "-".into(),
            }
        };
        let serial = wall(Strategy::Serial);
        let semi = if n > 2 {
            wall(Strategy::SemiParallel { tau: 2 })
        } else {
            "-".into()
        };
        let fully = if n >= 2 {
            wall(Strategy::FullyParallel)
        } else {
            "-".into()
        };
        let output = flow.run(&design)?;

        println!(
            "{:<8} {:<10} {:<22} {:>8} {:>8} {:>8} {:>10.0}",
            design.name,
            format!("{class}"),
            format!("{chosen}"),
            serial,
            semi,
            fully,
            output.monolithic.pnr.value(),
        );
    }

    println!("\n(time in simulated minutes; P&R only, synthesis excluded except the last column's baseline)");
    Ok(())
}
