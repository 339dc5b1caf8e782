//! The Simulation-Analysis-Loop pattern (paper §III-D3).
//!
//! A two-stage iterative pattern: an ensemble of N simulations, a global
//! barrier, an ensemble of analyses over all simulation outputs, another
//! barrier, next iteration. Supports the paper's planned *adaptivity*
//! extension (§V): a hook may change the ensemble size between iterations
//! based on analysis output.

use crate::pattern::{share_kernel, ExecutionPattern};
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use serde_json::Value;
use std::sync::Arc;

/// Stage the loop is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Simulating,
    Analysing,
    Finished,
}

type SimKernelFn = Box<dyn FnMut(usize, usize) -> KernelCall + Send>;
type AnalysisKernelFn = Box<dyn FnMut(usize, &[Value]) -> Vec<KernelCall> + Send>;
type AdaptFn = Box<dyn FnMut(usize, &[Value]) -> usize + Send>;

/// The SAL pattern.
///
/// Task tags encode `(kind, index)`: simulations get tags `0..n_sims`,
/// analyses `ANALYSIS_TAG_BASE + 0..`.
pub struct SimulationAnalysisLoop {
    iterations: usize,
    n_sims: usize,
    sim_kernel: SimKernelFn,
    analysis_kernel: AnalysisKernelFn,
    adapt: Option<AdaptFn>,
    /// The last kernel bound, shared with the next task if equal.
    last_kernel: Option<Arc<KernelCall>>,
    /// Abort the whole loop if any task fails (default true; with false,
    /// failed simulations are simply excluded from analysis input).
    strict: bool,
    /// The two stage labels, built once and shared by every task.
    simulation_label: Arc<str>,
    analysis_label: Arc<str>,

    iter: usize,
    phase: Phase,
    pending: usize,
    sim_outputs: Vec<Value>,
    analysis_outputs: Vec<Value>,
    started: bool,
    aborted: bool,
}

const ANALYSIS_TAG_BASE: u64 = 1 << 32;

impl SimulationAnalysisLoop {
    /// Creates a SAL with `iterations` loops of `n_sims` simulations.
    ///
    /// * `sim_kernel(iteration, index)` binds each simulation task.
    /// * `analysis_kernel(iteration, sim_outputs)` binds the analysis
    ///   ensemble for that iteration (commonly a single serial task).
    pub fn new(
        iterations: usize,
        n_sims: usize,
        sim_kernel: impl FnMut(usize, usize) -> KernelCall + Send + 'static,
        analysis_kernel: impl FnMut(usize, &[Value]) -> Vec<KernelCall> + Send + 'static,
    ) -> Self {
        assert!(iterations > 0 && n_sims > 0, "empty pattern");
        SimulationAnalysisLoop {
            iterations,
            n_sims,
            sim_kernel: Box::new(sim_kernel),
            analysis_kernel: Box::new(analysis_kernel),
            adapt: None,
            last_kernel: None,
            strict: true,
            simulation_label: "simulation".into(),
            analysis_label: "analysis".into(),
            iter: 0,
            phase: Phase::Simulating,
            pending: 0,
            sim_outputs: Vec::new(),
            analysis_outputs: Vec::new(),
            started: false,
            aborted: false,
        }
    }

    /// Installs an adaptivity hook: after each iteration's analysis it
    /// receives `(iteration, analysis_outputs)` and returns the ensemble
    /// size for the next iteration (clamped to ≥ 1).
    pub fn with_adaptivity(
        mut self,
        adapt: impl FnMut(usize, &[Value]) -> usize + Send + 'static,
    ) -> Self {
        self.adapt = Some(Box::new(adapt));
        self
    }

    /// Tolerate individual simulation failures instead of aborting.
    pub fn tolerate_failures(mut self) -> Self {
        self.strict = false;
        self
    }

    /// Iterations fully completed so far.
    pub fn completed_iterations(&self) -> usize {
        self.iter
    }

    /// Whether the loop aborted on a failure (strict mode).
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    fn emit_simulations(&mut self) -> Vec<Task> {
        self.phase = Phase::Simulating;
        self.pending = self.n_sims;
        // `sim_outputs` is reserved at the first result, not held through submission.
        let iter = self.iter;
        (0..self.n_sims)
            .map(|i| {
                let kernel = share_kernel(&mut self.last_kernel, (self.sim_kernel)(iter, i));
                Task::new(i as u64, self.simulation_label.clone(), kernel)
            })
            .collect()
    }

    fn emit_analyses(&mut self) -> Vec<Task> {
        self.phase = Phase::Analysing;
        // Nothing reads the simulation outputs once the analyses are bound,
        // so they are released here rather than held through the analyses.
        let sim_outputs = std::mem::take(&mut self.sim_outputs);
        let kernels = (self.analysis_kernel)(self.iter, &sim_outputs);
        assert!(
            !kernels.is_empty(),
            "analysis stage must contain at least one task"
        );
        self.pending = kernels.len();
        self.analysis_outputs.clear();
        kernels
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let kernel = share_kernel(&mut self.last_kernel, k);
                Task::new(
                    ANALYSIS_TAG_BASE + i as u64,
                    self.analysis_label.clone(),
                    kernel,
                )
            })
            .collect()
    }
}

impl ExecutionPattern for SimulationAnalysisLoop {
    fn name(&self) -> &str {
        "simulation-analysis-loop"
    }

    fn on_start(&mut self) -> Vec<Task> {
        assert!(!self.started, "on_start called twice");
        self.started = true;
        self.emit_simulations()
    }

    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        if self.phase == Phase::Finished {
            return Vec::new();
        }
        assert!(self.pending > 0, "unexpected completion");
        self.pending -= 1;
        if !result.success {
            if self.strict {
                self.aborted = true;
                self.phase = Phase::Finished;
                return Vec::new();
            }
        } else {
            match self.phase {
                Phase::Simulating => {
                    if self.sim_outputs.capacity() == 0 {
                        self.sim_outputs.reserve_exact(self.pending + 1);
                    }
                    self.sim_outputs.push(result.output.clone())
                }
                Phase::Analysing => self.analysis_outputs.push(result.output.clone()),
                Phase::Finished => {}
            }
        }
        if self.pending > 0 {
            return Vec::new(); // barrier not yet reached
        }
        match self.phase {
            Phase::Simulating => {
                if self.sim_outputs.is_empty() {
                    // every simulation failed in tolerant mode
                    self.aborted = true;
                    self.phase = Phase::Finished;
                    return Vec::new();
                }
                self.emit_analyses()
            }
            Phase::Analysing => {
                self.iter += 1;
                if let Some(adapt) = &mut self.adapt {
                    self.n_sims = adapt(self.iter - 1, &self.analysis_outputs).max(1);
                }
                if self.iter >= self.iterations {
                    self.phase = Phase::Finished;
                    Vec::new()
                } else {
                    self.emit_simulations()
                }
            }
            Phase::Finished => Vec::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.started && self.phase == Phase::Finished
    }

    fn progress(&self) -> String {
        format!(
            "iteration {}/{}, phase {:?}, {} pending",
            self.iter + usize::from(self.phase != Phase::Finished),
            self.iterations,
            self.phase,
            self.pending
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::testutil::drive;
    use serde_json::json;

    fn sim_k(iter: usize, idx: usize) -> KernelCall {
        KernelCall::new("md.amber", json!({"iter": iter, "idx": idx}))
    }

    fn serial_analysis(n_sims_seen: &[Value]) -> Vec<KernelCall> {
        vec![KernelCall::new(
            "ana.coco",
            json!({"n_sims": n_sims_seen.len()}),
        )]
    }

    #[test]
    fn barrier_orders_simulations_before_analysis() {
        let mut pattern = SimulationAnalysisLoop::new(2, 3, sim_k, |_, outs| serial_analysis(outs));
        let mut log: Vec<String> = Vec::new();
        let results = drive(
            &mut pattern,
            |t| {
                log.push(t.stage.to_string());
                Ok(json!({"ok": true}))
            },
            100,
        );
        // Per iteration: 3 sims then 1 analysis.
        assert_eq!(results.len(), 8);
        assert_eq!(
            log,
            vec![
                "simulation",
                "simulation",
                "simulation",
                "analysis",
                "simulation",
                "simulation",
                "simulation",
                "analysis"
            ]
        );
        assert_eq!(pattern.completed_iterations(), 2);
    }

    #[test]
    fn analysis_sees_all_sim_outputs() {
        let mut observed = Vec::new();
        let mut pattern = SimulationAnalysisLoop::new(1, 4, sim_k, move |_, outs| {
            vec![KernelCall::new("ana.coco", json!({"n_sims": outs.len()}))]
        });
        drive(
            &mut pattern,
            |t| {
                if &*t.stage == "analysis" {
                    observed.push(t.kernel.args["n_sims"].as_u64().unwrap());
                }
                Ok(json!({}))
            },
            100,
        );
        assert_eq!(observed, vec![4]);
    }

    #[test]
    fn strict_mode_aborts_on_failure() {
        let mut pattern = SimulationAnalysisLoop::new(3, 2, sim_k, |_, o| serial_analysis(o));
        let results = drive(
            &mut pattern,
            |t| {
                if t.tag == 1 {
                    Err("sim died".into())
                } else {
                    Ok(json!({}))
                }
            },
            100,
        );
        assert!(pattern.aborted());
        assert!(results.len() <= 2);
    }

    #[test]
    fn tolerant_mode_analyses_survivors() {
        let mut analysed = 0u64;
        let mut pattern = SimulationAnalysisLoop::new(1, 3, sim_k, move |_, outs| {
            vec![KernelCall::new("ana.coco", json!({"n_sims": outs.len()}))]
        })
        .tolerate_failures();
        drive(
            &mut pattern,
            |t| {
                if &*t.stage == "analysis" {
                    analysed = t.kernel.args["n_sims"].as_u64().unwrap();
                }
                if t.tag == 0 && &*t.stage == "simulation" {
                    Err("one sim died".into())
                } else {
                    Ok(json!({}))
                }
            },
            100,
        );
        assert!(!pattern.aborted());
        assert_eq!(analysed, 2, "analysis over the two survivors");
    }

    #[test]
    fn adaptivity_changes_ensemble_size() {
        // Double the ensemble after each iteration (paper §V: "vary the
        // number of tasks between stages").
        let mut pattern = SimulationAnalysisLoop::new(3, 2, sim_k, |_, o| serial_analysis(o))
            .with_adaptivity(|_, _| 4);
        let mut sims_per_iter = vec![0usize; 3];
        let mut iter_of_task = 0usize;
        drive(
            &mut pattern,
            |t| {
                if &*t.stage == "simulation" {
                    iter_of_task = t.kernel.args["iter"].as_u64().unwrap() as usize;
                    sims_per_iter[iter_of_task] += 1;
                }
                Ok(json!({}))
            },
            200,
        );
        assert_eq!(sims_per_iter, vec![2, 4, 4]);
    }

    #[test]
    fn all_sims_failing_in_tolerant_mode_ends_pattern() {
        let mut pattern =
            SimulationAnalysisLoop::new(2, 2, sim_k, |_, o| serial_analysis(o)).tolerate_failures();
        drive(&mut pattern, |_| Err("everything died".into()), 100);
        assert!(pattern.aborted());
        assert!(pattern.is_done());
    }
}
