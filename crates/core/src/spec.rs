//! Serial-parallel task structures.

use serde::{Deserialize, Serialize};

use crate::error::SpecError;
use crate::ids::NodeId;

/// A *simple subtask*: work at exactly one node (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimpleSpec {
    /// The node that executes this subtask.
    pub node: NodeId,
    /// Real execution time `ex`; hidden from strategies.
    pub ex: f64,
    /// Predicted execution time `pex`; what strategies may consult.
    pub pex: f64,
}

/// A serial-parallel global task structure.
///
/// The paper's notation `T = [T1 T2 … Tn]` (serial) and
/// `T = [T1 ∥ T2 ∥ … ∥ Tn]` (parallel) compose freely; a subtask that is
/// itself a composition is a *complex subtask*.
///
/// # Examples
///
/// ```
/// use sda_core::{NodeId, TaskSpec};
///
/// // [A (B ∥ C) D] — a pipeline with a parallel middle stage.
/// let t = TaskSpec::serial(vec![
///     TaskSpec::simple(NodeId::new(0), 1.0, 1.0),
///     TaskSpec::parallel(vec![
///         TaskSpec::simple(NodeId::new(1), 2.0, 2.0),
///         TaskSpec::simple(NodeId::new(2), 3.0, 3.0),
///     ]),
///     TaskSpec::simple(NodeId::new(3), 1.0, 1.0),
/// ]);
/// t.validate()?;
/// assert_eq!(t.simple_count(), 4);
/// assert_eq!(t.critical_path_ex(), 1.0 + 3.0 + 1.0);
/// assert_eq!(t.total_ex(), 7.0);
/// assert_eq!(t.depth(), 2);
/// # Ok::<(), sda_core::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskSpec {
    /// Work at a single node.
    Simple(SimpleSpec),
    /// Subtasks executed strictly in order.
    Serial(Vec<TaskSpec>),
    /// Subtasks started together; the composite finishes when all finish.
    Parallel(Vec<TaskSpec>),
}

impl TaskSpec {
    /// A simple subtask at `node` with real execution time `ex` and
    /// prediction `pex`.
    pub fn simple(node: NodeId, ex: f64, pex: f64) -> TaskSpec {
        TaskSpec::Simple(SimpleSpec { node, ex, pex })
    }

    /// A serial composition `[T1 T2 …]`.
    pub fn serial(children: Vec<TaskSpec>) -> TaskSpec {
        TaskSpec::Serial(children)
    }

    /// A parallel composition `[T1 ∥ T2 ∥ …]`.
    pub fn parallel(children: Vec<TaskSpec>) -> TaskSpec {
        TaskSpec::Parallel(children)
    }

    /// Checks structural validity: every composition non-empty, every
    /// `ex`/`pex` finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found in a depth-first walk.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            TaskSpec::Simple(s) => {
                if !(s.ex.is_finite() && s.ex >= 0.0) {
                    return Err(SpecError::InvalidTime {
                        what: "ex",
                        value: s.ex,
                    });
                }
                if !(s.pex.is_finite() && s.pex >= 0.0) {
                    return Err(SpecError::InvalidTime {
                        what: "pex",
                        value: s.pex,
                    });
                }
                Ok(())
            }
            TaskSpec::Serial(children) | TaskSpec::Parallel(children) => {
                if children.is_empty() {
                    return Err(SpecError::EmptyComposite);
                }
                children.iter().try_for_each(TaskSpec::validate)
            }
        }
    }

    /// Number of simple subtasks in the tree.
    pub fn simple_count(&self) -> usize {
        match self {
            TaskSpec::Simple(_) => 1,
            TaskSpec::Serial(c) | TaskSpec::Parallel(c) => {
                c.iter().map(TaskSpec::simple_count).sum()
            }
        }
    }

    /// Nesting depth: `0` for a simple subtask, `1 + max(children)`
    /// otherwise.
    pub fn depth(&self) -> usize {
        match self {
            TaskSpec::Simple(_) => 0,
            TaskSpec::Serial(c) | TaskSpec::Parallel(c) => {
                1 + c.iter().map(TaskSpec::depth).max().unwrap_or(0)
            }
        }
    }

    /// Sum of real execution times over all simple subtasks — the total
    /// *work* of the task.
    pub fn total_ex(&self) -> f64 {
        match self {
            TaskSpec::Simple(s) => s.ex,
            TaskSpec::Serial(c) | TaskSpec::Parallel(c) => c.iter().map(TaskSpec::total_ex).sum(),
        }
    }

    /// Real execution time along the critical path: serial children add,
    /// parallel children take the maximum. This is the minimum end-to-end
    /// time with zero queueing.
    pub fn critical_path_ex(&self) -> f64 {
        match self {
            TaskSpec::Simple(s) => s.ex,
            TaskSpec::Serial(c) => c.iter().map(TaskSpec::critical_path_ex).sum(),
            TaskSpec::Parallel(c) => c.iter().map(TaskSpec::critical_path_ex).fold(0.0, f64::max),
        }
    }

    /// Predicted execution time of the subtask viewed as a unit: serial
    /// children add, parallel children take the maximum (an
    /// expected-makespan lower bound). This is the `pex` the SSP formulas
    /// see for *complex* subtasks.
    pub(crate) fn aggregate_pex(&self) -> f64 {
        match self {
            TaskSpec::Simple(s) => s.pex,
            TaskSpec::Serial(c) => c.iter().map(TaskSpec::aggregate_pex).sum(),
            TaskSpec::Parallel(c) => c.iter().map(TaskSpec::aggregate_pex).fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(ex: f64) -> TaskSpec {
        TaskSpec::simple(NodeId::new(0), ex, ex)
    }

    #[test]
    fn flat_serial_shape() {
        let t = TaskSpec::serial(vec![leaf(1.0), leaf(2.0), leaf(3.0)]);
        assert_eq!(t.simple_count(), 3);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.total_ex(), 6.0);
        assert_eq!(t.critical_path_ex(), 6.0);
        assert_eq!(t.aggregate_pex(), 6.0);
    }

    #[test]
    fn flat_parallel_shape() {
        let t = TaskSpec::parallel(vec![leaf(1.0), leaf(2.0), leaf(3.0)]);
        assert_eq!(t.total_ex(), 6.0);
        assert_eq!(t.critical_path_ex(), 3.0);
        assert_eq!(t.aggregate_pex(), 3.0);
    }

    #[test]
    fn nested_tree_measures() {
        let t = TaskSpec::serial(vec![
            leaf(1.0),
            TaskSpec::parallel(vec![
                leaf(2.0),
                TaskSpec::serial(vec![leaf(1.0), leaf(1.5)]),
            ]),
        ]);
        assert_eq!(t.simple_count(), 4);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.total_ex(), 5.5);
        assert_eq!(t.critical_path_ex(), 1.0 + 2.5);
    }

    #[test]
    fn validation_catches_empty_and_bad_times() {
        assert_eq!(
            TaskSpec::serial(vec![]).validate(),
            Err(SpecError::EmptyComposite)
        );
        assert_eq!(
            TaskSpec::parallel(vec![]).validate(),
            Err(SpecError::EmptyComposite)
        );
        let bad = TaskSpec::simple(NodeId::new(0), -1.0, 1.0);
        assert!(matches!(
            bad.validate(),
            Err(SpecError::InvalidTime { what: "ex", .. })
        ));
        let bad = TaskSpec::simple(NodeId::new(0), 1.0, f64::NAN);
        assert!(matches!(
            bad.validate(),
            Err(SpecError::InvalidTime { what: "pex", .. })
        ));
        let nested_bad = TaskSpec::serial(vec![leaf(1.0), TaskSpec::parallel(vec![])]);
        assert_eq!(nested_bad.validate(), Err(SpecError::EmptyComposite));
    }

    #[test]
    fn zero_ex_is_valid() {
        assert!(leaf(0.0).validate().is_ok());
    }
}
