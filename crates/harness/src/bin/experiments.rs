//! Command-line entry point that regenerates the paper's tables and figures.
//!
//! Usage: `cargo run -p xchain-harness --bin experiments -- [all|fig1|fig3|fig4|fig7|safety|liveness|matrix|pow|crossover|swap]`
//!
//! `safety` exits with status 1 if the sweep finds any violation.

use xchain_harness::experiments;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "all" => print!("{}", experiments::full_report()),
        "fig1" | "fig2" => {
            for t in experiments::fig1_fig2_example() {
                println!("{}", t.render());
            }
        }
        "fig3" => println!("{}", experiments::fig3_escrow_costs().render()),
        "fig4" => println!("{}", experiments::fig4_gas(&[3, 5, 7, 9, 12], 2).1.render()),
        "fig5" | "fig6" => {
            // The Figure 5 / Figure 6 contract behaviours are unit-level; the
            // relevant measured evidence is the commit columns of Figure 4.
            println!("{}", experiments::fig4_gas(&[3, 5, 7], 2).1.render());
        }
        "fig7" => println!("{}", experiments::fig7_delays(&[3, 5, 7, 9]).1.render()),
        "safety" => {
            let (result, table) = experiments::safety_sweep();
            println!("{}", table.render());
            let violations = result.safety_violations
                + result.weak_liveness_violations
                + result.conservation_violations;
            if violations > 0 {
                eprintln!("safety sweep found {violations} violation(s)");
                std::process::exit(1);
            }
        }
        "liveness" => println!("{}", experiments::liveness_experiment().render()),
        "matrix" => println!("{}", experiments::protocol_matrix_experiment().1.render()),
        "pow" => println!("{}", experiments::pow_attack_experiment(500).render()),
        "crossover" => println!(
            "{}",
            experiments::crossover_experiment(&[3, 4, 6, 8, 10, 12], 2).render()
        ),
        "swap" => {
            for t in experiments::swap_baseline_experiment() {
                println!("{}", t.render());
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "known: all fig1 fig3 fig4 fig5 fig7 safety liveness matrix pow crossover swap"
            );
            std::process::exit(2);
        }
    }
}
