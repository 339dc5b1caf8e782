//! Node/core allocation bookkeeping.
//!
//! Tracks free cores per node and packs batch-job requests onto nodes.
//! The invariant — no core is ever double-booked — is what makes scaling
//! results trustworthy, and is covered by property tests.

use serde::{Deserialize, Serialize};

/// Cores assigned to one job on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSlice {
    /// Node index within the cluster.
    pub node: usize,
    /// Number of cores taken on that node.
    pub cores: usize,
}

/// Per-node free-core tracking with first-fit packing.
///
/// Only the prefix of nodes that were ever allocated on or marked down is
/// stored: every node past it is up and fully free. First-fit takes the
/// lowest free node, so a session that touches a few nodes of a
/// 6 400-node machine stores a few nodes, and the placements are the same
/// slices in the same order as a map that stored every node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationMap {
    nodes: usize,
    cores_per_node: usize,
    /// Free cores of each node in the stored prefix.
    free: Vec<usize>,
    /// Down flag of each node in the stored prefix.
    down: Vec<bool>,
    total_free: usize,
    /// Nodes currently down.
    down_nodes: usize,
}

impl AllocationMap {
    /// Creates a map for `nodes` nodes of `cores_per_node` cores, all free.
    pub fn new(nodes: usize, cores_per_node: usize) -> Self {
        AllocationMap {
            nodes,
            cores_per_node,
            free: Vec::new(),
            down: Vec::new(),
            total_free: nodes * cores_per_node,
            down_nodes: 0,
        }
    }

    /// Total free cores across the machine.
    pub fn free_cores(&self) -> usize {
        self.total_free
    }

    /// Total cores on the machine (down nodes included).
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Number of nodes on the machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Cores on nodes that are currently down: neither free nor usable.
    pub fn down_cores(&self) -> usize {
        self.down_nodes * self.cores_per_node
    }

    /// Cores currently allocated to live jobs (the tests' accounting check).
    #[cfg(test)]
    pub(crate) fn used_cores(&self) -> usize {
        self.total_cores() - self.total_free - self.down_cores()
    }

    /// True while at least one node is up.
    pub fn any_node_up(&self) -> bool {
        self.down_nodes < self.nodes
    }

    /// True when `node` is marked down.
    pub fn is_down(&self, node: usize) -> bool {
        self.down.get(node).copied().unwrap_or(false)
    }

    /// Stores nodes up to and including `node`, each up and fully free.
    fn touch(&mut self, node: usize) {
        if node >= self.free.len() {
            self.free.resize(node + 1, self.cores_per_node);
            self.down.resize(node + 1, false);
        }
    }

    /// Marks a node as crashed: its free cores leave the pool and its held
    /// slices become unusable. Callers must strip held slices on the node
    /// themselves (the map does not know which job owns what). Idempotent.
    pub fn mark_down(&mut self, node: usize) {
        if self.is_down(node) {
            return;
        }
        self.touch(node);
        self.down[node] = true;
        self.down_nodes += 1;
        self.total_free -= self.free[node];
        self.free[node] = 0;
    }

    /// Marks a crashed node as recovered with its full capacity free.
    /// Valid because `mark_down` + slice stripping left nothing on it.
    /// Idempotent.
    pub fn mark_up(&mut self, node: usize) {
        if !self.is_down(node) {
            return;
        }
        debug_assert_eq!(self.free[node], 0, "down node must have no free cores");
        self.down[node] = false;
        self.down_nodes -= 1;
        self.free[node] = self.cores_per_node;
        self.total_free += self.cores_per_node;
    }

    /// Attempts to allocate `cores`, packing nodes first-fit (fullest-first
    /// packing is not modelled; batch systems vary and the paper's results
    /// are insensitive to packing order). Returns `None` if not enough
    /// cores are free anywhere.
    pub fn allocate(&mut self, cores: usize) -> Option<Vec<NodeSlice>> {
        if cores == 0 || cores > self.total_free {
            return None;
        }
        let mut remaining = cores;
        let mut slices = Vec::new();
        let mut node = 0;
        while remaining > 0 {
            debug_assert!(node < self.nodes, "total_free said allocation fits");
            // Past the stored prefix every node is up and fully free.
            self.touch(node);
            let free = &mut self.free[node];
            if *free > 0 {
                let take = remaining.min(*free);
                *free -= take;
                slices.push(NodeSlice { node, cores: take });
                remaining -= take;
            }
            node += 1;
        }
        self.total_free -= cores;
        Some(slices)
    }

    /// Returns a previous allocation's cores to the free pool. Slices on
    /// nodes that are currently down are skipped: their cores were removed
    /// from the machine by `mark_down` and come back via `mark_up`.
    pub fn release(&mut self, slices: &[NodeSlice]) {
        let capacity = self.cores_per_node;
        for s in slices {
            if self.is_down(s.node) {
                continue;
            }
            match self.free.get_mut(s.node) {
                Some(free) if *free + s.cores <= capacity => *free += s.cores,
                _ => panic!("release would overflow node {} capacity", s.node),
            }
            self.total_free += s.cores;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut map = AllocationMap::new(4, 8);
        let a = map.allocate(10).expect("fits");
        assert_eq!(a.iter().map(|s| s.cores).sum::<usize>(), 10);
        assert_eq!(map.free_cores(), 22);
        map.release(&a);
        assert_eq!(map.free_cores(), 32);
    }

    #[test]
    fn allocation_spans_nodes_when_needed() {
        let mut map = AllocationMap::new(3, 4);
        let a = map.allocate(9).expect("fits");
        assert!(a.len() >= 3, "9 cores need at least 3 of the 4-core nodes");
    }

    #[test]
    fn oversized_request_fails_without_side_effects() {
        let mut map = AllocationMap::new(2, 4);
        assert!(map.allocate(9).is_none());
        assert_eq!(map.free_cores(), 8);
    }

    #[test]
    fn zero_request_fails() {
        let mut map = AllocationMap::new(2, 4);
        assert!(map.allocate(0).is_none());
    }

    #[test]
    #[should_panic(expected = "release would overflow")]
    fn double_release_is_detected() {
        let mut map = AllocationMap::new(1, 4);
        let a = map.allocate(4).unwrap();
        map.release(&a);
        map.release(&a);
    }

    /// A 16-core job on a 6 400-node machine touches one node, and the map
    /// stores that one node and no other.
    #[test]
    fn a_map_stores_only_the_nodes_it_touched() {
        let mut map = AllocationMap::new(6_400, 16);
        assert!(map.free.is_empty() && map.down.is_empty());
        let job = map.allocate(16).expect("fits");
        assert_eq!(job, vec![NodeSlice { node: 0, cores: 16 }]);
        assert_eq!((map.free.len(), map.down.len()), (1, 1));
        assert_eq!(map.used_cores(), 16);
        map.release(&job);
        assert_eq!(map.free.len(), 1);
        assert_eq!(map.free_cores(), 6_400 * 16);
    }

    /// The map as it was before it stored only a prefix: every node's free
    /// cores and down flag, scanned from node 0.
    struct DenseMap {
        cores_per_node: usize,
        free: Vec<usize>,
        down: Vec<bool>,
    }

    impl DenseMap {
        fn new(nodes: usize, cores_per_node: usize) -> Self {
            DenseMap {
                cores_per_node,
                free: vec![cores_per_node; nodes],
                down: vec![false; nodes],
            }
        }

        fn free_cores(&self) -> usize {
            self.free.iter().sum()
        }

        fn down_cores(&self) -> usize {
            self.down.iter().filter(|&&d| d).count() * self.cores_per_node
        }

        fn used_cores(&self) -> usize {
            self.free.len() * self.cores_per_node - self.free_cores() - self.down_cores()
        }

        fn allocate(&mut self, cores: usize) -> Option<Vec<NodeSlice>> {
            if cores == 0 || cores > self.free_cores() {
                return None;
            }
            let mut remaining = cores;
            let mut slices = Vec::new();
            for (node, free) in self.free.iter_mut().enumerate() {
                let take = remaining.min(*free);
                if take > 0 {
                    *free -= take;
                    slices.push(NodeSlice { node, cores: take });
                    remaining -= take;
                }
            }
            Some(slices)
        }

        fn release(&mut self, slices: &[NodeSlice]) {
            for s in slices.iter().filter(|s| !self.down[s.node]) {
                self.free[s.node] += s.cores;
                assert!(self.free[s.node] <= self.cores_per_node);
            }
        }

        fn mark_down(&mut self, node: usize) {
            if !self.down[node] {
                self.down[node] = true;
                self.free[node] = 0;
            }
        }

        fn mark_up(&mut self, node: usize) {
            if self.down[node] {
                self.down[node] = false;
                self.free[node] = self.cores_per_node;
            }
        }
    }

    proptest! {
        /// The prefix map and the dense model, driven by the same random
        /// allocate / release / mark_down / mark_up sequence, return the
        /// same slices and agree on free, used and down cores after every
        /// step. Sizes reach past `total_free`, and nodes are drawn from
        /// the whole machine, most of them far past the touched prefix. A
        /// node going down strips the slices live jobs hold on it, as the
        /// cluster does.
        #[test]
        fn prop_prefix_map_matches_the_dense_model(
            ops in proptest::collection::vec((0u8..4, any::<usize>()), 1..120)
        ) {
            let (nodes, cores_per_node) = (64, 4);
            let mut map = AllocationMap::new(nodes, cores_per_node);
            let mut dense = DenseMap::new(nodes, cores_per_node);
            let mut live: Vec<Vec<NodeSlice>> = Vec::new();
            for (op, x) in ops {
                match op {
                    0 => {
                        let cores = x % (map.free_cores() + 2);
                        let got = map.allocate(cores);
                        prop_assert_eq!(&got, &dense.allocate(cores));
                        live.extend(got);
                    }
                    1 if !live.is_empty() => {
                        let job = live.swap_remove(x % live.len());
                        map.release(&job);
                        dense.release(&job);
                    }
                    2 => {
                        let node = x % nodes;
                        map.mark_down(node);
                        dense.mark_down(node);
                        for job in &mut live {
                            job.retain(|s| s.node != node);
                        }
                    }
                    _ => {
                        let node = x % nodes;
                        map.mark_up(node);
                        dense.mark_up(node);
                    }
                }
                prop_assert_eq!(map.free_cores(), dense.free_cores());
                prop_assert_eq!(map.used_cores(), dense.used_cores());
                prop_assert_eq!(map.down_cores(), dense.down_cores());
                prop_assert_eq!(map.any_node_up(), dense.down_cores() < map.total_cores());
                for node in 0..nodes {
                    prop_assert_eq!(map.is_down(node), dense.down[node]);
                }
            }
        }

        /// Under arbitrary allocate/release interleavings: free counts stay in
        /// bounds and no node is oversubscribed.
        #[test]
        fn prop_no_oversubscription(ops in proptest::collection::vec(1usize..20, 1..60)) {
            let mut map = AllocationMap::new(8, 8);
            let mut live: Vec<Vec<NodeSlice>> = Vec::new();
            for (i, cores) in ops.into_iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let a = live.swap_remove(i % live.len());
                    map.release(&a);
                } else if let Some(a) = map.allocate(cores) {
                    prop_assert_eq!(a.iter().map(|s| s.cores).sum::<usize>(), cores);
                    live.push(a);
                }
                let used: usize = live.iter().flatten().map(|s| s.cores).sum();
                prop_assert_eq!(map.used_cores(), used);
                prop_assert!(map.free_cores() <= map.total_cores());
            }
        }
    }
}

#[cfg(test)]
mod accounting_tests {
    use super::*;

    #[test]
    fn used_cores_tracks_allocations() {
        let mut map = AllocationMap::new(2, 8);
        assert_eq!(map.used_cores(), 0);
        let a = map.allocate(5).unwrap();
        assert_eq!(map.used_cores(), 5);
        let b = map.allocate(11).unwrap();
        assert_eq!(map.used_cores(), 16);
        map.release(&a);
        map.release(&b);
        assert_eq!(map.used_cores(), 0);
        assert_eq!(map.total_cores(), 16);
    }

    #[test]
    fn down_node_leaves_and_rejoins_pool() {
        let mut map = AllocationMap::new(4, 8);
        map.mark_down(1);
        assert!(map.is_down(1));
        assert_eq!(map.free_cores(), 24);
        assert_eq!(map.down_cores(), 8);
        assert_eq!(map.used_cores(), 0);
        // Allocations avoid the down node entirely.
        let a = map.allocate(24).unwrap();
        assert!(a.iter().all(|s| s.node != 1));
        assert!(map.allocate(1).is_none());
        map.release(&a);
        map.mark_up(1);
        assert!(!map.is_down(1));
        assert_eq!(map.free_cores(), 32);
        assert_eq!(map.down_cores(), 0);
    }

    #[test]
    fn release_skips_slices_on_down_nodes() {
        let mut map = AllocationMap::new(2, 4);
        let a = map.allocate(8).unwrap();
        assert_eq!(map.used_cores(), 8);
        // Node 0 crashes while the job holds cores there: the holder strips
        // its on-node slices, marks the node down, and later releases only
        // what survived — but releasing the full set must also be safe.
        map.mark_down(0);
        map.release(&a);
        assert_eq!(map.free_cores(), 4);
        assert_eq!(map.used_cores(), 0);
        map.mark_up(0);
        assert_eq!(map.free_cores(), 8);
    }

    #[test]
    fn mark_down_and_up_are_idempotent() {
        let mut map = AllocationMap::new(2, 4);
        map.mark_down(0);
        map.mark_down(0);
        assert_eq!(map.free_cores(), 4);
        map.mark_up(0);
        map.mark_up(0);
        assert_eq!(map.free_cores(), 8);
    }
}
