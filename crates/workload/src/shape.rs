//! Structural shapes of global tasks.

use serde::{Deserialize, Serialize};

/// The structure of generated global tasks.
///
/// The paper evaluates three families: flat serial chains (§4, SSP), flat
/// parallel fans (§5, PSP) and serial-parallel compositions (§6). The
/// heterogeneous-`m` variant is the §4.3 extension where tasks differ in
/// their number of stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GlobalShape {
    /// `T = [T1 T2 … Tm]` — `m` simple subtasks in series, nodes drawn
    /// uniformly at random (with replacement).
    Serial {
        /// Number of stages `m`.
        m: usize,
    },
    /// `T = [T1 ∥ … ∥ Tm]` — `m` simple subtasks in parallel at `m`
    /// *different* nodes (§5.2).
    Parallel {
        /// Number of branches `m` (must not exceed the node count).
        m: usize,
    },
    /// Serial chain whose length is drawn uniformly from
    /// `min_m..=max_m` per task (§4.3, "different number of subtasks").
    SerialRandomM {
        /// Smallest chain length (≥ 1).
        min_m: usize,
        /// Largest chain length.
        max_m: usize,
    },
    /// A pipeline of parallel fans: `stages` serial stages, each a
    /// parallel group of `branches` simple subtasks on distinct nodes —
    /// the §6 serial-parallel workload (think: gather ∥ → filter ∥ →
    /// act ∥).
    SerialParallel {
        /// Number of serial stages.
        stages: usize,
        /// Parallel branches per stage.
        branches: usize,
    },
    /// A random layered precedence **DAG** — the generalization beyond
    /// the paper's serial-parallel trees (fork-join trees, diamonds,
    /// layered pipelines with cross-stage edges). Each task draws
    /// `depth` layers of `U[1, max_width]` subtasks (distinct nodes
    /// within a layer); every node is connected to the adjacent layers
    /// (the DAG is weakly connected and acyclic by construction), and
    /// optional extra forward edges appear with probability
    /// `edge_density / 2^(gap − 1)` per candidate pair, where `gap` is
    /// the number of layers skipped forward — so `edge_density` directly
    /// sets the density between consecutive layers, and cross-stage
    /// edges thin out geometrically with distance. At `edge_density = 1`
    /// consecutive layers are fully connected (the stage-structured DAG
    /// that reproduces [`FlatRun`](sda_core::FlatRun) deadlines
    /// bit-exactly).
    Dag {
        /// Number of layers (≥ 1).
        depth: usize,
        /// Largest layer width (≥ 1, at most the node count).
        max_width: usize,
        /// Optional-edge probability in `[0, 1]` (see above).
        edge_density: f64,
    },
}

impl GlobalShape {
    /// Expected number of simple subtasks per task.
    pub fn expected_subtasks(&self) -> f64 {
        match *self {
            GlobalShape::Serial { m } | GlobalShape::Parallel { m } => m as f64,
            GlobalShape::SerialRandomM { min_m, max_m } => (min_m + max_m) as f64 / 2.0,
            GlobalShape::SerialParallel { stages, branches } => (stages * branches) as f64,
            // Layer widths are uniform on [1, max_width].
            GlobalShape::Dag {
                depth, max_width, ..
            } => depth as f64 * (1 + max_width) as f64 / 2.0,
        }
    }

    /// Expected *critical-path* execution time in units of the mean
    /// subtask execution time.
    ///
    /// Serial chains: `m` (all stages on the path). Parallel fans: the
    /// expected maximum of `m` i.i.d. exponentials, which is the harmonic
    /// number `H_m`. Pipelines of fans: `stages · H_branches`.
    pub fn expected_critical_path_factor(&self) -> f64 {
        match *self {
            GlobalShape::Serial { m } => m as f64,
            GlobalShape::SerialRandomM { min_m, max_m } => (min_m + max_m) as f64 / 2.0,
            GlobalShape::Parallel { m } => harmonic(m),
            GlobalShape::SerialParallel { stages, branches } => stages as f64 * harmonic(branches),
            // One node per layer lies on every source-to-sink path; the
            // expected per-layer maximum over a U[1, max_width]-wide
            // antichain of unit-mean exponentials is E[H_W]. Cross-layer
            // edges only re-route the path, they cannot lengthen it
            // beyond one node per layer.
            GlobalShape::Dag {
                depth, max_width, ..
            } => {
                let mean_h = (1..=max_width).map(harmonic).sum::<f64>() / max_width as f64;
                depth as f64 * mean_h
            }
        }
    }

    /// Whether parallel groups appear anywhere in the shape.
    pub fn has_parallelism(&self) -> bool {
        matches!(
            self,
            GlobalShape::Parallel { .. }
                | GlobalShape::SerialParallel { .. }
                | GlobalShape::Dag { .. }
        )
    }

    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            GlobalShape::Serial { m } => format!("serial-{m}"),
            GlobalShape::Parallel { m } => format!("parallel-{m}"),
            GlobalShape::SerialRandomM { min_m, max_m } => format!("serial-{min_m}..{max_m}"),
            GlobalShape::SerialParallel { stages, branches } => {
                format!("pipe-{stages}x{branches}")
            }
            GlobalShape::Dag {
                depth,
                max_width,
                edge_density,
            } => format!("dag-{depth}x{max_width}-e{edge_density}"),
        }
    }
}

/// The n-th harmonic number `H_n = Σ_{i=1..n} 1/i` — the expected maximum
/// of `n` i.i.d. unit-mean exponentials.
pub(crate) fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_numbers() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn expected_subtasks_per_shape() {
        assert_eq!(GlobalShape::Serial { m: 4 }.expected_subtasks(), 4.0);
        assert_eq!(GlobalShape::Parallel { m: 4 }.expected_subtasks(), 4.0);
        assert_eq!(
            GlobalShape::SerialRandomM { min_m: 2, max_m: 6 }.expected_subtasks(),
            4.0
        );
        assert_eq!(
            GlobalShape::SerialParallel {
                stages: 3,
                branches: 2
            }
            .expected_subtasks(),
            6.0
        );
    }

    #[test]
    fn critical_path_factors() {
        assert_eq!(
            GlobalShape::Serial { m: 4 }.expected_critical_path_factor(),
            4.0
        );
        let h4 = harmonic(4);
        assert!(
            (GlobalShape::Parallel { m: 4 }.expected_critical_path_factor() - h4).abs() < 1e-12
        );
        assert!(
            (GlobalShape::SerialParallel {
                stages: 3,
                branches: 4
            }
            .expected_critical_path_factor()
                - 3.0 * h4)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn labels_and_parallelism() {
        assert_eq!(GlobalShape::Serial { m: 4 }.label(), "serial-4");
        assert_eq!(
            GlobalShape::SerialParallel {
                stages: 2,
                branches: 3
            }
            .label(),
            "pipe-2x3"
        );
        assert!(GlobalShape::Parallel { m: 2 }.has_parallelism());
        assert!(!GlobalShape::Serial { m: 2 }.has_parallelism());
    }

    #[test]
    fn dag_shape_expectations() {
        let dag = GlobalShape::Dag {
            depth: 4,
            max_width: 3,
            edge_density: 0.5,
        };
        // E[width] = (1 + 3)/2 = 2 per layer, 4 layers.
        assert_eq!(dag.expected_subtasks(), 8.0);
        // E[H_W] over W ∈ {1, 2, 3} = (1 + 1.5 + 11/6)/3, times depth.
        let mean_h = (harmonic(1) + harmonic(2) + harmonic(3)) / 3.0;
        assert!((dag.expected_critical_path_factor() - 4.0 * mean_h).abs() < 1e-12);
        assert!(dag.has_parallelism());
        assert_eq!(dag.label(), "dag-4x3-e0.5");
    }
}
