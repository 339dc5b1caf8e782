//! The id a job service hands out for each job it accepts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a SAGA job within one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SagaJobId(pub u64);

impl fmt::Display for SagaJobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "saga.job.{:06}", self.0)
    }
}
