//! Error type for accelerator execution.

use std::fmt;

/// Errors produced when executing accelerator behavioral models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The operation does not match the accelerator kind.
    WrongOperation {
        /// The accelerator the operation was submitted to.
        accelerator: &'static str,
        /// The operation that was submitted.
        operation: String,
    },
    /// Operand shapes are inconsistent (mismatched lengths, non-square
    /// kernels, ...).
    BadOperands {
        /// Human-readable description.
        detail: String,
    },
    /// A WAMI kernel failed.
    Kernel(presp_wami::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::WrongOperation {
                accelerator,
                operation,
            } => {
                write!(
                    f,
                    "operation {operation} submitted to {accelerator} accelerator"
                )
            }
            Error::BadOperands { detail } => write!(f, "bad operands: {detail}"),
            Error::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<presp_wami::Error> for Error {
    fn from(e: presp_wami::Error) -> Error {
        Error::Kernel(e)
    }
}
