//! Implementing a deadline-assignment policy *beyond* the paper, via the
//! [`DeadlineAssigner`] extension trait.
//!
//! The policy here is "front-loaded flexibility": early stages get a
//! boosted share of the slack (they face the most queueing uncertainty
//! downstream decisions can still absorb), decaying geometrically along
//! the chain. It is compared against EQF on the same tasks.
//!
//! ```sh
//! cargo run --release --example custom_strategy
//! ```

use sda::core::{
    Completion, DeadlineAssigner, NodeId, PspInput, SdaStrategy, SspInput, TaskRun, TaskSpec,
};

/// Gives the current stage a slack share proportional to
/// `pex_i · boost^(remaining-1)`, so earlier stages (more stages still
/// remaining) receive geometrically boosted shares when `boost > 1`.
struct FrontLoaded {
    boost: f64,
}

impl DeadlineAssigner for FrontLoaded {
    fn serial_deadline(&self, input: &SspInput<'_>) -> f64 {
        let r = input.remaining_count();
        // Weight of the current stage among the remaining ones: stage j
        // (0-based among remaining) weighs pex_j · boost^(r-1-j).
        let mut weights = Vec::with_capacity(r);
        weights.push(input.pex_current * self.boost.powi(r as i32 - 1));
        for (j, &p) in input.pex_remaining_after.iter().enumerate() {
            weights.push(p * self.boost.powi(r as i32 - 2 - j as i32));
        }
        let total: f64 = weights.iter().sum();
        let share = if total > 0.0 {
            weights[0] / total
        } else {
            1.0 / r as f64
        };
        input.submit_time + input.pex_current + input.remaining_slack() * share
    }

    fn parallel_deadline(&self, input: &PspInput) -> f64 {
        // DIV-1 at parallel levels.
        input.arrival_time + input.window() / input.branch_count as f64
    }
}

fn chain() -> TaskSpec {
    TaskSpec::serial(
        (0..4)
            .map(|i| TaskSpec::simple(NodeId::new(i), 2.0, 2.0))
            .collect(),
    )
}

fn walk(label: &str, strategy: &dyn DeadlineAssigner) {
    let mut run = TaskRun::new(&chain(), 0.0, 16.0).expect("valid spec");
    println!("{label}: virtual deadlines as stages finish on time");
    let mut pending = run.start(strategy, 0.0);
    let mut now = 0.0;
    while let Some(sub) = pending.pop() {
        println!(
            "  t={now:>4.1}  stage at {}  dl = {:>6.2}",
            sub.node, sub.deadline
        );
        now += sub.ex;
        match run.complete(sub.subtask, strategy, now) {
            Completion::Submitted(next) => pending.extend(next),
            Completion::Finished => break,
        }
    }
    println!("  done at t={now:.1}\n");
}

fn main() {
    // 4 equal stages, total work 8, deadline 16 → slack 8.
    walk("EQF (paper)", &SdaStrategy::eqf_div1());
    walk("FrontLoaded ×1.5", &FrontLoaded { boost: 1.5 });
    walk("FrontLoaded ×3.0", &FrontLoaded { boost: 3.0 });
    println!("With boost > 1 the first stage's deadline moves later (more");
    println!("slack up front) while later stages inherit whatever is left —");
    println!("the trait lets you explore the whole design space the paper");
    println!("opened; EQF-AS (see `sda-exp eqf_as`) is the opposite bet.");
}
