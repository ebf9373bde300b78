use crate::{ThermalError, TileIndex};
use tecopt_linalg::{CsrMatrix, DenseMatrix};

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

    /// Creates an empty network with room for `nodes` nodes, `edges`
    /// conductance stamps and `ambient_legs` ambient legs.
    pub(crate) fn with_capacity(nodes: usize, edges: usize, ambient_legs: usize) -> ThermalNetwork {
        ThermalNetwork {
            kinds: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            ambient_legs: Vec::with_capacity(ambient_legs),
        }
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

    /// Conductance stamps as `(a, b, g)` triples between distinct nodes,
    /// in the order they were stamped.
    pub fn conductances(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// A network from its parts, unchecked: every node index must be in
    /// range, no stamp a self-loop, every conductance positive and finite
    /// (what [`ThermalNetwork::add_conductance`] and
    /// [`ThermalNetwork::add_ambient_conductance`] assert).
    pub(crate) fn from_parts(
        kinds: Vec<NodeKind>,
        edges: Vec<(usize, usize, f64)>,
        ambient_legs: Vec<(usize, f64)>,
    ) -> ThermalNetwork {
        ThermalNetwork {
            kinds,
            edges,
            ambient_legs,
        }
    }

    /// Assembles the conductance matrix `G` (Expression 5 of the paper)
    /// straight into CSR, in `O(n + m log d)` for `m` stamps and rows of at
    /// most `d` entries.
    ///
    /// Every node's diagonal is stored, even where no stamp reaches it, and
    /// each entry holds exactly the positions the stamps touch. Every value
    /// is bit-identical to [`ThermalNetwork::assemble_dense`], because each
    /// entry is summed in the order the dense `+=` loop adds to it: a
    /// diagonal starts from `0.0` and adds every incident conductance in
    /// stamp order, then its ambient legs; the off-diagonal stamps are
    /// bucketed by row in stamp order, each row is sorted stably by column,
    /// and repeated columns are summed left to right.
    pub fn assemble(&self) -> CsrMatrix {
        self.assemble_rows(None)
    }

    /// [`ThermalNetwork::assemble`], but every row `r` with
    /// `reuse.rows[r] = Some(p)` is row `p` of `reuse.base` with its
    /// columns renumbered through `reuse.columns`, not summed again. That
    /// is the same row, bit for bit, when the network's stamps incident to
    /// `r` are `base`'s stamps incident to `p`, with the same values in the
    /// same order, and the renumbering is increasing: the diagonal then
    /// adds the same terms in the same order, and the sorted, merged row
    /// keeps its order under the map.
    pub(crate) fn assemble_reusing(&self, reuse: Reuse<'_>) -> CsrMatrix {
        self.assemble_rows(Some(reuse))
    }

    fn assemble_rows(&self, reuse: Option<Reuse<'_>>) -> CsrMatrix {
        let n = self.node_count();
        // Only the rows summed here need their diagonal and stamps.
        let copied = |r: usize| reuse.as_ref().and_then(|u| u.rows[r]);
        let summed = |r: usize| copied(r).is_none();
        let mut diagonal = vec![0.0; n];
        // `start[r]..start[r + 1]` will hold row `r`'s off-diagonal stamps.
        let mut start = vec![0usize; n + 1];
        for &(a, b, v) in &self.edges {
            if summed(a) {
                diagonal[a] += v;
                start[a + 1] += 1;
            }
            if summed(b) {
                diagonal[b] += v;
                start[b + 1] += 1;
            }
        }
        for &(k, v) in &self.ambient_legs {
            diagonal[k] += v;
        }
        for r in 0..n {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut stamps = vec![(0usize, 0.0f64); start[n]];
        for &(a, b, v) in &self.edges {
            if summed(a) {
                stamps[next[a]] = (b, -v);
                next[a] += 1;
            }
            if summed(b) {
                stamps[next[b]] = (a, -v);
                next[b] += 1;
            }
        }
        let nnz = stamps.len() + reuse.as_ref().map_or(n, |u| u.base.nnz());
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        let mut r = 0;
        while r < n {
            match (&reuse, copied(r)) {
                (Some(u), Some(p)) => {
                    // A run of rows copied from consecutive rows of `base`
                    // is one block of its arrays.
                    let run = u.rows[r..]
                        .iter()
                        .zip(p..)
                        .take_while(|&(&q, p)| q == Some(p))
                        .count();
                    let base_ptr = &u.base.row_ptr()[p..=p + run];
                    let (lo, hi) = (base_ptr[0], base_ptr[run]);
                    let offset = col_idx.len();
                    col_idx.extend(u.base.col_indices()[lo..hi].iter().map(|&c| u.columns[c]));
                    values.extend_from_slice(&u.base.values()[lo..hi]);
                    row_ptr.extend(base_ptr[1..].iter().map(|&q| q - lo + offset));
                    r += run;
                }
                _ => {
                    push_row(
                        r,
                        diagonal[r],
                        &mut stamps[start[r]..start[r + 1]],
                        &mut col_idx,
                        &mut values,
                    );
                    row_ptr.push(col_idx.len());
                    r += 1;
                }
            }
        }
        // Node ids are checked against the network when stamped, the rows
        // are built sorted and merged above, and a reused row is a sorted
        // row renumbered by an increasing map.
        #[allow(clippy::expect_used)]
        CsrMatrix::try_from_parts(n, n, row_ptr, col_idx, values)
            .expect("stamps index nodes of this network")
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

    /// The lowest-index node that node 0 cannot reach through the
    /// conductances (ambient legs excluded), if any: a union-find over the
    /// stamps, `O(m log n)` with no adjacency lists.
    fn first_unreachable(&self) -> Option<usize> {
        // Every root is the lowest index of its set, so node 0 stays a root.
        fn root(parent: &mut [usize], mut k: usize) -> usize {
            while parent[k] != k {
                parent[k] = parent[parent[k]];
                k = parent[k];
            }
            k
        }
        let mut parent: Vec<usize> = (0..self.node_count()).collect();
        for &(a, b, _) in &self.edges {
            let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
            parent[ra.max(rb)] = ra.min(rb);
        }
        (1..parent.len()).find(|&k| root(&mut parent, k) != 0)
    }

    /// Checks connectivity of the conductance graph (ambient legs excluded):
    /// `true` iff the assembled `G` is irreducible in the sense of
    /// Definition 1 of the paper.
    pub fn is_connected(&self) -> bool {
        self.first_unreachable().is_none()
    }

    /// Verifies that every node can reach ambient (necessary for `G` to be
    /// positive definite rather than singular).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] naming the first stranded
    /// node (the lowest-index node that node 0 cannot reach, with its
    /// [`NodeKind`]), or noting a missing ambient leg entirely.
    pub fn validate_grounding(&self) -> Result<(), ThermalError> {
        if self.ambient_legs.is_empty() {
            return Err(ThermalError::InvalidConfig(
                "network has no path to ambient; G would be singular".into(),
            ));
        }
        if let Some(k) = self.first_unreachable() {
            return Err(ThermalError::InvalidConfig(format!(
                "conductance graph is disconnected: node {} ({:?}) cannot reach node {}; \
                 G would be singular",
                NodeId(k),
                self.kinds[k],
                NodeId(0)
            )));
        }
        Ok(())
    }
}

/// Rows of an assembled `G` that [`ThermalNetwork::assemble_reusing`]
/// copies instead of summing.
pub(crate) struct Reuse<'a> {
    /// The matrix the rows are copied from.
    pub(crate) base: &'a CsrMatrix,
    /// Per row of the network: the row of `base` it copies, or `None` to
    /// sum it from the stamps.
    pub(crate) rows: &'a [Option<usize>],
    /// Each column of `base` in this network's numbering, increasing.
    pub(crate) columns: &'a [usize],
}

/// Appends row `r` of `G` to CSR arrays: its off-diagonal stamps
/// `(column, −g)`, in stamp order, sorted stably by column with repeated
/// columns summed left to right, and the diagonal `d` spliced in at its
/// column.
fn push_row(
    r: usize,
    d: f64,
    row: &mut [(usize, f64)],
    col_idx: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    let row_start = col_idx.len();
    row.sort_by_key(|&(c, _)| c);
    let mut diagonal_pending = true;
    for &(c, v) in row.iter() {
        if diagonal_pending && c > r {
            col_idx.push(r);
            values.push(d);
            diagonal_pending = false;
        }
        // Only a column of this row can absorb the stamp.
        if col_idx.len() > row_start && col_idx.last() == Some(&c) {
            if let Some(last) = values.last_mut() {
                *last += v;
                continue;
            }
        }
        col_idx.push(c);
        values.push(v);
    }
    if diagonal_pending {
        col_idx.push(r);
        values.push(d);
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
        let err = net.validate_grounding().unwrap_err().to_string();
        assert!(
            err.contains("node n1 (Spreader(1)) cannot reach node n0"),
            "{err}"
        );
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
