use crate::{ThermalError, TileIndex};
use tecopt_linalg::{CsrMatrix, DenseMatrix, Triplet};

/// Opaque identifier of a node in a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Position of this node in the assembled `G` matrix / `θ` vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a network node physically represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A silicon die tile (a member of the paper's `SIL` set).
    Silicon(TileIndex),
    /// A plain TIM tile between die and spreader.
    Interface(TileIndex),
    /// Lower terminal of a spliced two-port element (faces the die; the TEC
    /// cold side in the device layer, the paper's `CLD` set).
    TwoPortLower(TileIndex),
    /// Upper terminal of a spliced two-port element (faces the spreader; the
    /// TEC hot side, the paper's `HOT` set).
    TwoPortUpper(TileIndex),
    /// A heat-spreader cell (row-major cell index).
    Spreader(usize),
    /// A heat-sink cell (row-major cell index).
    Sink(usize),
}

/// A linear thermal conductance network with the ambient node eliminated.
///
/// Nodes are added first, then symmetric conductance stamps between node
/// pairs and "grounded" conductances to the fixed-temperature ambient. The
/// network assembles into the `G` matrix of Eq. 4/5 in the paper:
/// off-diagonals `−g_kl`, diagonals `Σ_l g_kl` including ambient legs — an
/// irreducible positive-definite Stieltjes matrix when every node has a
/// conductive path to ambient.
///
/// ```
/// use tecopt_thermal::{NodeKind, ThermalNetwork, TileIndex};
///
/// let mut net = ThermalNetwork::new();
/// let a = net.add_node(NodeKind::Silicon(TileIndex::new(0, 0)));
/// let b = net.add_node(NodeKind::Spreader(0));
/// net.add_conductance(a, b, 2.0);
/// net.add_ambient_conductance(b, 1.0);
/// let g = net.assemble();
/// assert_eq!(g.get(0, 0), 2.0);
/// assert_eq!(g.get(0, 1), -2.0);
/// assert_eq!(g.get(1, 1), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThermalNetwork {
    kinds: Vec<NodeKind>,
    /// Symmetric stamps: (a, b, g) with a != b.
    edges: Vec<(usize, usize, f64)>,
    /// Diagonal-only stamps to the eliminated ambient node.
    ambient_legs: Vec<(usize, f64)>,
}

impl ThermalNetwork {
    /// Creates an empty network.
    pub fn new() -> ThermalNetwork {
        ThermalNetwork::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.0]
    }

    /// All node kinds in matrix order.
    pub fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        NodeId(self.kinds.len() - 1)
    }

    /// Stamps a conductance `g` (W/K) between two distinct nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, an id is foreign, or `g` is not positive finite —
    /// all three indicate assembly bugs, not runtime conditions.
    pub fn add_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        assert!(a != b, "self-loop conductance");
        assert!(
            a.0 < self.kinds.len() && b.0 < self.kinds.len(),
            "foreign node id"
        );
        assert!(
            g > 0.0 && g.is_finite(),
            "conductance must be positive, got {g}"
        );
        self.edges.push((a.0, b.0, g));
    }

    /// Stamps a conductance from `node` to the eliminated ambient node.
    ///
    /// Only the diagonal of `G` is affected; the corresponding injection
    /// `g·θ_ambient` must be added to the power vector by the model layer.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id or nonpositive conductance.
    pub fn add_ambient_conductance(&mut self, node: NodeId, g: f64) {
        assert!(node.0 < self.kinds.len(), "foreign node id");
        assert!(
            g > 0.0 && g.is_finite(),
            "conductance must be positive, got {g}"
        );
        self.ambient_legs.push((node.0, g));
    }

    /// Ambient legs as `(matrix index, conductance)` pairs.
    pub fn ambient_legs(&self) -> &[(usize, f64)] {
        &self.ambient_legs
    }

    /// Assembles the conductance matrix `G` (Expression 5 of the paper)
    /// straight into CSR.
    ///
    /// Every node's diagonal is stored, even where no stamp reaches it, and
    /// each entry holds exactly the positions the stamps touch. The
    /// stamps are emitted in the order [`ThermalNetwork::assemble_dense`]
    /// applies them, starting every diagonal from `0.0`, and
    /// [`CsrMatrix::from_triplets`] sums duplicates in that order, so every
    /// value is bit-identical to the dense `+=` assembly.
    pub fn assemble(&self) -> CsrMatrix {
        let n = self.node_count();
        let mut t = Vec::with_capacity(n + 4 * self.edges.len() + self.ambient_legs.len());
        t.extend((0..n).map(|k| Triplet::new(k, k, 0.0)));
        for &(a, b, v) in &self.edges {
            t.push(Triplet::new(a, b, -v));
            t.push(Triplet::new(b, a, -v));
            t.push(Triplet::new(a, a, v));
            t.push(Triplet::new(b, b, v));
        }
        for &(k, v) in &self.ambient_legs {
            t.push(Triplet::new(k, k, v));
        }
        // Node ids are checked against the network when stamped.
        #[allow(clippy::expect_used)]
        CsrMatrix::from_triplets(n, n, &t).expect("stamps index nodes of this network")
    }

    /// The dense `n×n` assembly of `G`: the oracle the CSR
    /// [`ThermalNetwork::assemble`] is tested against, bit for bit. No
    /// solve path uses it.
    pub fn assemble_dense(&self) -> DenseMatrix {
        let n = self.node_count();
        let mut g = DenseMatrix::zeros(n, n);
        for &(a, b, v) in &self.edges {
            g[(a, b)] -= v;
            g[(b, a)] -= v;
            g[(a, a)] += v;
            g[(b, b)] += v;
        }
        for &(k, v) in &self.ambient_legs {
            g[(k, k)] += v;
        }
        g
    }

    /// Checks connectivity of the conductance graph (ambient legs excluded):
    /// `true` iff the assembled `G` is irreducible in the sense of
    /// Definition 1 of the paper.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b, _) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Verifies that every node can reach ambient (necessary for `G` to be
    /// positive definite rather than singular).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] naming the first stranded
    /// node, or noting a missing ambient leg entirely.
    pub fn validate_grounding(&self) -> Result<(), ThermalError> {
        if self.ambient_legs.is_empty() {
            return Err(ThermalError::InvalidConfig(
                "network has no path to ambient; G would be singular".into(),
            ));
        }
        if !self.is_connected() {
            // Find a stranded node for the error message: any node not
            // reachable from node 0 — with at least one ambient leg on the
            // reachable side this is what makes G singular on the other.
            return Err(ThermalError::InvalidConfig(
                "conductance graph is disconnected; some nodes cannot reach ambient".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecopt_linalg::stieltjes::{check_stieltjes, is_irreducible};

    fn chain(n: usize) -> ThermalNetwork {
        let mut net = ThermalNetwork::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|k| net.add_node(NodeKind::Spreader(k)))
            .collect();
        for w in ids.windows(2) {
            net.add_conductance(w[0], w[1], 1.0);
        }
        net.add_ambient_conductance(ids[n - 1], 0.5);
        net
    }

    #[test]
    fn assembly_matches_hand_computation() {
        let net = chain(3);
        let g = net.assemble().to_dense();
        assert_eq!(g, net.assemble_dense());
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(1, 1)], 2.0);
        assert_eq!(g[(2, 2)], 1.5);
        assert_eq!(g[(0, 1)], -1.0);
        assert_eq!(g[(1, 2)], -1.0);
        assert_eq!(g[(0, 2)], 0.0);
    }

    #[test]
    fn assembled_matrix_is_pd_stieltjes_and_irreducible() {
        let net = chain(6);
        let g = net.assemble().to_dense();
        assert_eq!(check_stieltjes(&g, 1e-12), Ok(()));
        assert!(is_irreducible(&g));
    }

    #[test]
    fn without_ambient_leg_matrix_is_singular() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node(NodeKind::Spreader(0));
        let b = net.add_node(NodeKind::Spreader(1));
        net.add_conductance(a, b, 1.0);
        let g = net.assemble().to_dense();
        assert!(!tecopt_linalg::Cholesky::is_positive_definite(&g));
        assert!(net.validate_grounding().is_err());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node(NodeKind::Spreader(0));
        let _b = net.add_node(NodeKind::Spreader(1));
        net.add_ambient_conductance(a, 1.0);
        assert!(!net.is_connected());
        assert!(net.validate_grounding().is_err());
    }

    #[test]
    fn grounded_connected_network_validates() {
        let net = chain(4);
        assert!(net.validate_grounding().is_ok());
    }

    #[test]
    fn duplicate_stamps_accumulate() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node(NodeKind::Spreader(0));
        let b = net.add_node(NodeKind::Spreader(1));
        net.add_conductance(a, b, 1.0);
        net.add_conductance(a, b, 2.0);
        let g = net.assemble().to_dense();
        assert_eq!(g[(0, 1)], -3.0);
        assert_eq!(g[(0, 0)], 3.0);
    }

    #[test]
    fn every_diagonal_is_stored_even_unstamped() {
        let mut net = chain(3);
        let lone = net.add_node(NodeKind::Sink(0));
        let g = net.assemble();
        assert_eq!(
            g.diagonal_offset(lone.index()).map(|k| g.values()[k]),
            Some(0.0)
        );
        assert_eq!(g.nnz(), 4 + 2 * 2);
        assert_eq!(g.to_dense(), net.assemble_dense());
    }

    #[test]
    fn node_metadata_preserved() {
        let mut net = ThermalNetwork::new();
        let t = TileIndex::new(2, 3);
        let id = net.add_node(NodeKind::Silicon(t));
        assert_eq!(net.kind(id), NodeKind::Silicon(t));
        assert_eq!(net.node_count(), 1);
        assert_eq!(id.index(), 0);
        assert_eq!(format!("{id}"), "n0");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node(NodeKind::Spreader(0));
        net.add_conductance(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "conductance must be positive")]
    fn negative_conductance_panics() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node(NodeKind::Spreader(0));
        let b = net.add_node(NodeKind::Spreader(1));
        net.add_conductance(a, b, -1.0);
    }

    #[test]
    fn empty_network_is_trivially_connected() {
        let net = ThermalNetwork::new();
        assert!(net.is_connected());
    }
}
