//! An offline planning tool built on the strategy formulas: given a
//! serial task's predicted stage times and an end-to-end deadline, print
//! the virtual-deadline plan of every strategy side by side, and show
//! how the *dynamic* rule re-plans when a stage finishes early or late.
//!
//! ```sh
//! cargo run --release --example deadline_planner -- 20 2 4 1 3
//! # (deadline, then per-stage predicted execution times)
//! ```

use sda::core::{SerialStrategy, SspInput};

#[expect(
    clippy::disallowed_methods,
    reason = "example CLI: argv parsing happens before any simulation"
)]
fn parse_args() -> (f64, Vec<f64>) {
    let nums: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("arguments must be numbers; got {a:?}");
                std::process::exit(2);
            })
        })
        .collect();
    if nums.len() >= 2 {
        (nums[0], nums[1..].to_vec())
    } else {
        // Default: the running example from the docs.
        (20.0, vec![2.0, 4.0, 1.0, 3.0])
    }
}

fn main() {
    let (deadline, pex) = parse_args();
    let total: f64 = pex.iter().sum();
    println!(
        "Task: {} stages, total predicted work {total:.2}, deadline {deadline:.2}, slack {:.2}\n",
        pex.len(),
        deadline - total
    );

    // Static plans.
    println!("{:<8}  ", "stage");
    print!("{:<8}", "");
    for s in SerialStrategy::ALL {
        print!("{:>10}", s.short_name());
    }
    println!();
    let plans: Vec<Vec<f64>> = SerialStrategy::ALL
        .iter()
        .map(|s| s.plan(0.0, deadline, &pex))
        .collect();
    for i in 0..pex.len() {
        print!("{:<8}", format!("{} (={})", i + 1, pex[i]));
        for plan in &plans {
            print!("{:>10.2}", plan[i]);
        }
        println!();
    }

    // Dynamic re-planning: what happens to stage 2's deadline if stage 1
    // finishes early (50% of pex) or late (150% of pex)?
    println!("\nDynamic re-planning of stage 2 (EQF), depending on stage 1's finish:");
    for (label, factor) in [
        ("early (0.5×)", 0.5),
        ("on time (1.0×)", 1.0),
        ("late (1.5×)", 1.5),
    ] {
        let finish1 = pex[0] * factor;
        let dl2 = SerialStrategy::EqualFlexibility.deadline(&SspInput {
            submit_time: finish1,
            global_deadline: deadline,
            pex_current: pex[1],
            pex_remaining_after: &pex[2..],
            comm_current: 0.0,
            comm_after: 0.0,
            slack_scale: 1.0,
        });
        println!("  stage 1 finishes {label:>14} at t={finish1:>5.2} → dl(T2) = {dl2:.2}");
    }
    println!("\nLeftover slack is inherited; overruns shrink what follows —");
    println!("\"the rich get richer while the poor get poorer\" (paper §4.2.2).");
}
