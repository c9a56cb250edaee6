//! The linter's passes, one module per lint.

pub mod golden;
pub mod lint_header;
pub mod streams;
