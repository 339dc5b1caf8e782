//! Descriptions of pilots and compute units.

use entk_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Request for a pilot: a container job on a target resource whose cores are
/// then scheduled at the application level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PilotDescription {
    /// Target resource label, e.g. `"xsede.comet"`.
    pub resource: String,
    /// Cores the container job requests.
    pub cores: usize,
    /// Container job wall time.
    pub walltime: SimDuration,
    /// Batch queue (bookkeeping).
    pub queue: String,
    /// Project / allocation charged (bookkeeping).
    pub project: String,
}

impl PilotDescription {
    /// Creates a description with defaults for queue/project.
    pub fn new(resource: impl Into<String>, cores: usize, walltime: SimDuration) -> Self {
        PilotDescription {
            resource: resource.into(),
            cores,
            walltime,
            queue: "normal".into(),
            project: "TG-MCB090174".into(),
        }
    }

    /// Validates the description.
    pub fn validate(&self) -> Result<(), String> {
        if self.resource.is_empty() {
            return Err("pilot resource must not be empty".into());
        }
        if self.cores == 0 {
            return Err("pilot must request at least one core".into());
        }
        if self.walltime.is_zero() {
            return Err("pilot wall time must be positive".into());
        }
        Ok(())
    }
}

/// Request for one compute unit (task).
#[derive(Debug, Clone)]
pub struct UnitDescription {
    /// Task name (used in traces and reports).
    pub name: String,
    /// Cores the unit occupies while executing.
    pub cores: usize,
    /// Whether the unit is an MPI task (may span nodes).
    pub mpi: bool,
    /// How long the unit occupies its cores in virtual time: pre-sampled
    /// from the kernel's plan. (Real kernels never become units; they run
    /// under `fork://`.)
    pub duration: SimDuration,
    /// Bytes staged in before execution (drives modelled transfer time).
    pub input_bytes: u64,
    /// Bytes staged out after execution.
    pub output_bytes: u64,
}

impl UnitDescription {
    /// Creates a single-core modeled unit with no staging.
    pub fn modeled(name: impl Into<String>, duration: SimDuration) -> Self {
        UnitDescription {
            name: name.into(),
            cores: 1,
            mpi: false,
            duration,
            input_bytes: 0,
            output_bytes: 0,
        }
    }

    /// Sets the core count (builder style).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Marks the unit as MPI (builder style).
    pub fn with_mpi(mut self, mpi: bool) -> Self {
        self.mpi = mpi;
        self
    }

    /// Validates the description.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err(format!("unit {:?} must use at least one core", self.name));
        }
        if self.cores > 1 && !self.mpi {
            return Err(format!(
                "unit {:?} uses {} cores but is not marked MPI",
                self.name, self.cores
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pilot_description_validation() {
        assert!(
            PilotDescription::new("xsede.comet", 192, SimDuration::from_secs(3600))
                .validate()
                .is_ok()
        );
        assert!(PilotDescription::new("", 192, SimDuration::from_secs(1))
            .validate()
            .is_err());
        assert!(PilotDescription::new("x", 0, SimDuration::from_secs(1))
            .validate()
            .is_err());
        assert!(PilotDescription::new("x", 1, SimDuration::ZERO)
            .validate()
            .is_err());
    }

    #[test]
    fn unit_builder_sets_cores_and_mpi() {
        let u = UnitDescription::modeled("sim", SimDuration::from_secs(6))
            .with_cores(16)
            .with_mpi(true);
        assert_eq!(u.cores, 16);
        assert!(u.mpi);
        assert_eq!((u.input_bytes, u.output_bytes), (0, 0));
        assert!(u.validate().is_ok());
    }

    #[test]
    fn multicore_requires_mpi_flag() {
        let u = UnitDescription::modeled("sim", SimDuration::from_secs(1)).with_cores(4);
        assert!(u.validate().is_err());
        assert!(u.with_mpi(true).validate().is_ok());
    }

    #[test]
    fn zero_core_unit_rejected() {
        let u = UnitDescription::modeled("sim", SimDuration::from_secs(1)).with_cores(0);
        assert!(u.validate().is_err());
    }
}
