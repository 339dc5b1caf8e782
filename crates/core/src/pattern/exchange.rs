//! The Ensemble-Exchange pattern (paper §III-D2).
//!
//! Interacting ensemble members alternate between an MD state and an
//! exchange state. Two exchange topologies are supported:
//!
//! * [`ExchangeMode::GlobalSynchronous`] — one exchange task per cycle over
//!   all replicas, as in the paper's scaling experiments (Figs. 5–6, where
//!   exchange time depends on the number of replicas);
//! * [`ExchangeMode::PairwiseAsync`] — replicas pair up as they finish,
//!   with no global barrier, matching the paper's description of EE
//!   ("no obligatory global synchronization … pairwise") and serving as an
//!   ablation point.

use crate::pattern::{share_kernel, ExecutionPattern};
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use entk_md::TemperatureLadder;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Exchange topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Barrier per cycle, one serial exchange task over all replicas.
    GlobalSynchronous,
    /// Pairwise exchanges between replicas as they finish their segments.
    PairwiseAsync,
}

const EXCHANGE_TAG_BASE: u64 = 1 << 33;

/// Cost-model parameters forwarded to the exchange kernel.
const EXCHANGE_BASE_SECS: f64 = 1.0;
const EXCHANGE_PER_REPLICA_SECS: f64 = 0.005;

type MdKernelFn = Box<dyn FnMut(usize, usize, f64) -> KernelCall + Send>;

/// The EE pattern.
pub struct EnsembleExchange {
    n_replicas: usize,
    n_cycles: usize,
    md_kernel: MdKernelFn,
    /// The last MD kernel bound, shared with the next segment if equal.
    last_kernel: Option<Arc<KernelCall>>,
    mode: ExchangeMode,
    ladder: TemperatureLadder,
    /// The two stage labels, built once and shared by every task.
    simulation_label: Arc<str>,
    exchange_label: Arc<str>,

    rung_of: Vec<usize>,
    cycle_of: Vec<usize>,
    energy_of: Vec<f64>,
    /// Replicas finished with all cycles.
    completed: usize,
    /// GlobalSynchronous: md completions so far in the current cycle.
    cycle_md_done: usize,
    /// PairwiseAsync: replicas waiting for an exchange partner.
    waiting: Vec<usize>,
    /// In-flight exchange tasks: tag → participating replicas.
    exchanges: HashMap<u64, Vec<usize>>,
    exchange_seq: u64,
    swaps_accepted: u64,
    swaps_attempted: u64,
    started: bool,
    aborted: bool,
}

impl EnsembleExchange {
    /// Creates an EE pattern of `n_replicas` replicas over `n_cycles`
    /// MD+exchange cycles, with temperatures from `ladder` (must have one
    /// rung per replica). `md_kernel(replica, cycle, temperature)` binds
    /// each MD segment.
    pub fn new(
        n_replicas: usize,
        n_cycles: usize,
        ladder: TemperatureLadder,
        md_kernel: impl FnMut(usize, usize, f64) -> KernelCall + Send + 'static,
    ) -> Self {
        assert!(n_replicas > 0 && n_cycles > 0, "empty pattern");
        assert_eq!(ladder.len(), n_replicas, "one ladder rung per replica");
        EnsembleExchange {
            n_replicas,
            n_cycles,
            md_kernel: Box::new(md_kernel),
            last_kernel: None,
            mode: ExchangeMode::GlobalSynchronous,
            ladder,
            simulation_label: "simulation".into(),
            exchange_label: "exchange".into(),
            rung_of: (0..n_replicas).collect(),
            cycle_of: vec![0; n_replicas],
            energy_of: vec![0.0; n_replicas],
            completed: 0,
            cycle_md_done: 0,
            waiting: Vec::new(),
            exchanges: HashMap::new(),
            exchange_seq: 0,
            swaps_accepted: 0,
            swaps_attempted: 0,
            started: false,
            aborted: false,
        }
    }

    /// Selects the exchange topology (builder style).
    pub fn with_mode(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Accepted/attempted swap counts so far.
    pub fn swap_stats(&self) -> (u64, u64) {
        (self.swaps_accepted, self.swaps_attempted)
    }

    /// Current temperature rung of each replica.
    pub fn rungs(&self) -> &[usize] {
        &self.rung_of
    }

    /// Whether the pattern aborted on a task failure.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    fn md_task(&mut self, replica: usize) -> Task {
        let t = self.ladder.temp(self.rung_of[replica]);
        let cycle = self.cycle_of[replica];
        let kernel = share_kernel(&mut self.last_kernel, (self.md_kernel)(replica, cycle, t));
        Task::new(replica as u64, self.simulation_label.clone(), kernel)
    }

    fn exchange_task(&mut self, participants: Vec<usize>) -> Task {
        let energies: Vec<f64> = participants.iter().map(|&r| self.energy_of[r]).collect();
        let temps: Vec<f64> = participants
            .iter()
            .map(|&r| self.ladder.temp(self.rung_of[r]))
            .collect();
        let tag = EXCHANGE_TAG_BASE + self.exchange_seq;
        let kernel = KernelCall::new(
            "md.exchange",
            json!({
                "energies": energies,
                "temperatures": temps,
                "phase": self.exchange_seq % 2,
                "seed": self.exchange_seq,
                "base_secs": EXCHANGE_BASE_SECS,
                "per_replica_secs": EXCHANGE_PER_REPLICA_SECS,
            }),
        );
        self.exchange_seq += 1;
        self.exchanges.insert(tag, participants);
        Task::new(tag, self.exchange_label.clone(), kernel)
    }

    fn apply_swaps(&mut self, participants: &[usize], output: &Value) {
        self.swaps_attempted += output["attempted"].as_u64().unwrap_or(0);
        if let Some(swaps) = output["swaps"].as_array() {
            for pair in swaps {
                let (Some(a), Some(b)) = (
                    pair.get(0).and_then(Value::as_u64),
                    pair.get(1).and_then(Value::as_u64),
                ) else {
                    continue;
                };
                let (ra, rb) = (participants[a as usize], participants[b as usize]);
                self.rung_of.swap(ra, rb);
                self.swaps_accepted += 1;
            }
        }
    }

    /// PairwiseAsync: try to pair waiting replicas; prefer ladder-adjacent
    /// pairs, fall back to the two longest-waiting.
    fn try_pair(&mut self) -> Vec<Task> {
        let mut tasks = Vec::new();
        loop {
            if self.waiting.len() < 2 {
                break;
            }
            let mut pair: Option<(usize, usize)> = None;
            'outer: for i in 0..self.waiting.len() {
                for j in (i + 1)..self.waiting.len() {
                    let (ra, rb) = (self.waiting[i], self.waiting[j]);
                    if self.rung_of[ra].abs_diff(self.rung_of[rb]) == 1 {
                        pair = Some((i, j));
                        break 'outer;
                    }
                }
            }
            let (i, j) = pair.unwrap_or((0, 1));
            // Remove higher index first.
            let rb = self.waiting.remove(j);
            let ra = self.waiting.remove(i);
            tasks.push(self.exchange_task(vec![ra, rb]));
        }
        // Deadlock release: a lone waiter with no possible future partner
        // proceeds without exchanging.
        if self.waiting.len() == 1 {
            let others_live = self
                .n_replicas
                .saturating_sub(self.completed + self.waiting.len());
            if others_live == 0 && self.exchanges.is_empty() {
                let r = self.waiting.pop().expect("one waiter");
                tasks.extend(self.advance(r));
            }
        }
        tasks
    }

    /// Moves a replica to its next cycle, emitting its MD task, or marks it
    /// completed.
    fn advance(&mut self, replica: usize) -> Vec<Task> {
        self.cycle_of[replica] += 1;
        if self.cycle_of[replica] >= self.n_cycles {
            self.completed += 1;
            Vec::new()
        } else {
            vec![self.md_task(replica)]
        }
    }
}

impl ExecutionPattern for EnsembleExchange {
    fn name(&self) -> &str {
        "ensemble-exchange"
    }

    fn on_start(&mut self) -> Vec<Task> {
        assert!(!self.started, "on_start called twice");
        self.started = true;
        (0..self.n_replicas).map(|r| self.md_task(r)).collect()
    }

    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        if self.aborted {
            return Vec::new();
        }
        if !result.success {
            self.aborted = true;
            return Vec::new();
        }
        if result.tag >= EXCHANGE_TAG_BASE {
            // An exchange finished.
            let participants = self
                .exchanges
                .remove(&result.tag)
                .expect("exchange bookkeeping");
            self.apply_swaps(&participants, &result.output);
            match self.mode {
                ExchangeMode::GlobalSynchronous => {
                    let mut tasks = Vec::new();
                    for r in 0..self.n_replicas {
                        tasks.extend(self.advance(r));
                    }
                    self.cycle_md_done = 0;
                    tasks
                }
                ExchangeMode::PairwiseAsync => {
                    let mut tasks = Vec::new();
                    for r in participants {
                        tasks.extend(self.advance(r));
                    }
                    tasks.extend(self.try_pair());
                    tasks
                }
            }
        } else {
            // An MD segment finished.
            let r = result.tag as usize;
            self.energy_of[r] = result.output["potential"].as_f64().unwrap_or(0.0);
            match self.mode {
                ExchangeMode::GlobalSynchronous => {
                    self.cycle_md_done += 1;
                    if self.cycle_md_done == self.n_replicas {
                        let participants: Vec<usize> = (0..self.n_replicas).collect();
                        vec![self.exchange_task(participants)]
                    } else {
                        Vec::new()
                    }
                }
                ExchangeMode::PairwiseAsync => {
                    if self.cycle_of[r] + 1 >= self.n_cycles {
                        // Final segment: finish without a closing exchange.
                        self.cycle_of[r] += 1;
                        self.completed += 1;
                        self.try_pair()
                    } else {
                        self.waiting.push(r);
                        self.try_pair()
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        if !self.started {
            return false;
        }
        if self.aborted {
            return true;
        }
        self.completed == self.n_replicas && self.exchanges.is_empty()
    }

    fn progress(&self) -> String {
        format!(
            "{}/{} replicas done, {} swaps accepted / {} attempted",
            self.completed, self.n_replicas, self.swaps_accepted, self.swaps_attempted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::testutil::drive;
    use entk_kernels::{ExchangeKernel, KernelPlugin};

    fn md_kernel(r: usize, c: usize, t: f64) -> KernelCall {
        KernelCall::new(
            "md.amber",
            json!({ "replica": r, "cycle": c, "temperature": t }),
        )
    }

    /// Executes tasks: MD segments return an energy anti-correlated with
    /// replica index (so swaps are certain between neighbours); exchange
    /// tasks run the real exchange kernel.
    fn executor(task: &Task) -> Result<Value, String> {
        if &*task.stage == "exchange" {
            ExchangeKernel
                .execute(&task.kernel.args)
                .map_err(|e| e.to_string())
        } else {
            let r = task.kernel.args["replica"].as_f64().unwrap();
            Ok(json!({ "potential": 100.0 - 10.0 * r }))
        }
    }

    #[test]
    fn global_sync_runs_md_and_exchanges_per_cycle() {
        let n = 4;
        let cycles = 3;
        let mut pattern = EnsembleExchange::new(
            n,
            cycles,
            TemperatureLadder::geometric(n, 1.0, 2.0),
            md_kernel,
        );
        let results = drive(&mut pattern, executor, 1000);
        let md = results.iter().filter(|r| &*r.stage == "simulation").count();
        let ex = results.iter().filter(|r| &*r.stage == "exchange").count();
        assert_eq!(md, n * cycles);
        assert_eq!(ex, cycles);
        let (accepted, attempted) = pattern.swap_stats();
        assert!(attempted > 0);
        assert!(accepted <= attempted);
    }

    #[test]
    fn global_sync_md_waits_for_exchange_barrier() {
        let n = 3;
        let mut pattern =
            EnsembleExchange::new(n, 2, TemperatureLadder::geometric(n, 1.0, 2.0), md_kernel);
        let mut log = Vec::new();
        drive(
            &mut pattern,
            |t| {
                log.push((t.stage.clone(), t.kernel.args["cycle"].as_u64()));
                executor(t)
            },
            1000,
        );
        // No cycle-1 MD before the first exchange.
        let first_exchange = log.iter().position(|(s, _)| &**s == "exchange").unwrap();
        for (stage, cycle) in &log[..first_exchange] {
            assert_eq!(&**stage, "simulation");
            assert_eq!(*cycle, Some(0));
        }
    }

    #[test]
    fn swaps_move_replicas_up_the_ladder() {
        // Replica 0 (coldest rung) carries the highest energy: after cycles
        // of certain swaps it should have moved off rung 0.
        let n = 4;
        let mut pattern =
            EnsembleExchange::new(n, 4, TemperatureLadder::geometric(n, 1.0, 2.0), md_kernel);
        drive(&mut pattern, executor, 1000);
        assert!(
            pattern.rungs()[0] > 0,
            "replica 0 never moved: rungs {:?}",
            pattern.rungs()
        );
        // Rungs remain a permutation.
        let mut rungs = pattern.rungs().to_vec();
        rungs.sort_unstable();
        assert_eq!(rungs, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn pairwise_async_completes_even_replica_counts() {
        let n = 6;
        let cycles = 3;
        let mut pattern = EnsembleExchange::new(
            n,
            cycles,
            TemperatureLadder::geometric(n, 1.0, 2.0),
            md_kernel,
        )
        .with_mode(ExchangeMode::PairwiseAsync);
        let results = drive(&mut pattern, executor, 1000);
        let md = results.iter().filter(|r| &*r.stage == "simulation").count();
        assert_eq!(md, n * cycles);
        // Pairwise exchanges involve 2 replicas each; final segments skip
        // the closing exchange.
        let ex = results.iter().filter(|r| &*r.stage == "exchange").count();
        assert_eq!(ex, n * (cycles - 1) / 2);
    }

    #[test]
    fn pairwise_async_odd_replica_count_terminates() {
        let n = 5;
        let mut pattern =
            EnsembleExchange::new(n, 3, TemperatureLadder::geometric(n, 1.0, 2.0), md_kernel)
                .with_mode(ExchangeMode::PairwiseAsync);
        let results = drive(&mut pattern, executor, 1000);
        assert!(pattern.is_done());
        let md = results.iter().filter(|r| &*r.stage == "simulation").count();
        assert_eq!(md, n * 3);
    }

    #[test]
    fn failure_aborts_pattern() {
        let n = 3;
        let mut pattern =
            EnsembleExchange::new(n, 2, TemperatureLadder::geometric(n, 1.0, 2.0), md_kernel);
        drive(
            &mut pattern,
            |t| {
                if t.tag == 1 {
                    Err("replica crashed".into())
                } else {
                    executor(t)
                }
            },
            1000,
        );
        assert!(pattern.aborted());
        assert!(pattern.is_done());
    }

    #[test]
    #[should_panic(expected = "one ladder rung per replica")]
    fn ladder_size_must_match() {
        EnsembleExchange::new(4, 1, TemperatureLadder::geometric(3, 1.0, 2.0), md_kernel);
    }
}
