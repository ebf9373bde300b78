use std::sync::Arc;

use crate::{CsrMatrix, DenseMatrix, LinalgError};

/// Sentinel "no node" in the elimination tree.
const NONE: usize = usize::MAX;

/// Symbolic analysis of a sparse symmetric matrix for [`Cholesky`]: a
/// fill-reducing elimination order, the elimination tree, and the column
/// structure of the factor `L`.
///
/// The analysis depends only on the *structure* of the lower triangle,
/// never on the values, so one pattern serves every matrix with the same
/// structure. For the thermal systems of the paper that is every operating
/// point of a network: `D` (the Peltier term of `G − i·D`) and the
/// backward-Euler mass term `C/Δt` are diagonal, and the diagonal is always
/// part of the pattern. The compact model analyses its `G` once and shares
/// the pattern through an [`Arc`] with every solver, transient stepper and
/// passive solve of that network, which all factor with
/// [`Cholesky::factor_csr_with`]; the passive network's pattern is shared
/// further, by every passive network of one package.
///
/// [`CholeskyPattern::analyse_csr`] orders by approximate minimum degree on
/// the quotient graph: at every step the node of least (approximate)
/// degree is eliminated, ties broken by the lowest original index. It is
/// deterministic, so two analyses of one structure agree bit for bit and so
/// do the factors built on them. [`CholeskyPattern::analyse_csr_ordered`]
/// takes the order from the caller instead and costs only the symbolic
/// work. The thermal model analyses its package's passive network once
/// and factors every placement's Peltier-free block on that one pattern
/// ([`crate::ShiftedCholesky::with_package_pattern`]); the block's own
/// analysis on the package order, restricted to its nodes, is the
/// oracle that build is tested against.
///
/// The symbolic work is two sweeps over the rows of `L` after the
/// structure pass: one builds the elimination tree and counts each row and
/// column of `L`, the other writes the row structure and each entry's
/// place in its column into arrays of exactly those sizes.
#[derive(Debug)]
pub struct CholeskyPattern {
    n: usize,
    /// `perm[k]` is the original index of the `k`-th pivot.
    perm: Vec<usize>,
    /// The lower-triangle structure this pattern covers: row `r` holds the
    /// strictly lower columns `lo_col[lo_ptr[r]..lo_ptr[r + 1] - 1]`
    /// (ascending) and then `r` itself.
    lo_ptr: Vec<usize>,
    lo_col: Vec<usize>,
    /// Gather map of the permuted upper triangle: pivot column `k` reads
    /// the entries `a_ptr[k]..a_ptr[k + 1]`, each a permuted row `≤ k`
    /// (`a_row`) and a position in the lower-triangle structure
    /// (`a_src`). The diagonal is always present.
    a_ptr: Vec<usize>,
    a_row: Vec<usize>,
    a_src: Vec<usize>,
    /// Column structure of `L` (CSC): column `j` holds the permuted rows
    /// `l_row[l_ptr[j]..l_ptr[j + 1]]`, diagonal first, then ascending.
    l_ptr: Vec<usize>,
    l_row: Vec<usize>,
    /// Row structure of the strict lower part of `L`: row `k` has the
    /// columns `r_col[r_ptr[k]..r_ptr[k + 1]]` (in a topological order of
    /// the elimination tree), and `r_slot` is where each entry `L(k, j)`
    /// lives in the column storage.
    r_ptr: Vec<usize>,
    r_col: Vec<usize>,
    r_slot: Vec<usize>,
}

impl CholeskyPattern {
    /// Analyses the nonzero pattern of the lower triangle of the dense `a`
    /// (plus the full diagonal). Same analysis as
    /// [`CholeskyPattern::analyse_csr`] of `a` with its zeros dropped.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square.
    pub fn analyse(a: &DenseMatrix) -> Result<CholeskyPattern, LinalgError> {
        CholeskyPattern::analyse_csr(&lower_triangle(a)?)
    }

    /// Analyses the stored structure of the lower triangle of `a` (plus
    /// the full diagonal) in `O(nnz)` before the ordering. Stored zeros
    /// count as structure.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square.
    pub fn analyse_csr(a: &CsrMatrix) -> Result<CholeskyPattern, LinalgError> {
        CholeskyPattern::analyse_csr_with(a, None)
    }

    /// Analyses the stored structure of the lower triangle of `a` (plus
    /// the full diagonal) on the elimination order `perm` (`perm[k]` is
    /// the original index of the `k`-th pivot) instead of a minimum-degree
    /// search: `O(nnz(L))` after the structure pass. With `perm` the
    /// permutation [`CholeskyPattern::analyse_csr`] picks, the two patterns
    /// are identical.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::InvalidInput`] if `perm` is not a permutation of
    ///   `0..n`.
    pub fn analyse_csr_ordered(
        a: &CsrMatrix,
        perm: &[usize],
    ) -> Result<CholeskyPattern, LinalgError> {
        CholeskyPattern::analyse_csr_with(a, Some(perm))
    }

    /// The analysis of `a` on `perm`, or on a minimum-degree order of its
    /// structure when `perm` is `None`: the structure pass and the gather
    /// map, then two sweeps of the elimination tree. The first builds the
    /// tree and counts each row and column of `L` as it goes (the
    /// `ldl_symbolic` walk); the second writes every row's structure, and
    /// each entry's place in its column, into arrays of those sizes.
    fn analyse_csr_with(
        a: &CsrMatrix,
        perm: Option<&[usize]>,
    ) -> Result<CholeskyPattern, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let perm = match perm {
            Some(perm) => {
                check_permutation(perm, n)?;
                perm.to_vec()
            }
            None => approximate_minimum_degree(n, &lower_edges(a)),
        };
        let mut iperm = vec![0; n];
        for (k, &node) in perm.iter().enumerate() {
            iperm[node] = k;
        }
        // The lower-triangle structure: each row's strictly lower columns,
        // ascending, then its diagonal.
        let mut lo_ptr = Vec::with_capacity(n + 1);
        let mut lo_col = Vec::with_capacity(a.nnz() / 2 + n);
        lo_ptr.push(0);
        for r in 0..n {
            let row = &a.col_indices()[a.row_ptr()[r]..a.row_ptr()[r + 1]];
            lo_col.extend(row.iter().take_while(|&&c| c < r));
            lo_col.push(r);
            lo_ptr.push(lo_col.len());
        }

        // Permuted upper triangle, bucketed by column: each column's
        // diagonal first, then its strictly lower entries in row-major
        // order of the lower triangle.
        let mut a_ptr = vec![0; n + 1];
        for r in 0..n {
            for &c in &lo_col[lo_ptr[r]..lo_ptr[r + 1] - 1] {
                a_ptr[iperm[r].max(iperm[c]) + 1] += 1;
            }
        }
        for k in 0..n {
            a_ptr[k + 1] += a_ptr[k] + 1;
        }
        let mut a_row = vec![0; a_ptr[n]];
        let mut a_src = vec![0; a_ptr[n]];
        for (r, &k) in iperm.iter().enumerate() {
            a_row[a_ptr[k]] = k;
            a_src[a_ptr[k]] = lo_ptr[r + 1] - 1;
        }
        let mut fill: Vec<usize> = a_ptr[..n].iter().map(|&p| p + 1).collect();
        for r in 0..n {
            for src in lo_ptr[r]..lo_ptr[r + 1] - 1 {
                let (i, j) = (iperm[r], iperm[lo_col[src]]);
                let col = i.max(j);
                a_row[fill[col]] = i.min(j);
                a_src[fill[col]] = src;
                fill[col] += 1;
            }
        }

        // Sweep 1: row k of L is the union of the etree paths from each
        // nonzero A(i, k), i < k, up to k. Walking them in k order finds
        // each node's parent at its first row (the tree is complete below
        // k) and counts row k and the columns it meets.
        let mut parent = vec![NONE; n];
        let mut mark = vec![NONE; n];
        let mut l_ptr = vec![0; n + 1];
        let mut r_ptr = vec![0; n + 1];
        for k in 0..n {
            mark[k] = k;
            let mut count = 0;
            for &row in &a_row[a_ptr[k]..a_ptr[k + 1]] {
                let mut i = row;
                while mark[i] != k {
                    mark[i] = k;
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    l_ptr[i + 1] += 1;
                    count += 1;
                    i = parent[i];
                }
            }
            r_ptr[k + 1] = r_ptr[k] + count;
        }
        for j in 0..n {
            l_ptr[j + 1] += l_ptr[j] + 1;
        }

        // Sweep 2: the same walks on the finished tree, each path leaf to
        // root and stacked below the paths found before it (cs_ereach's
        // order). Every path stops at a node an earlier one reached, so a
        // row lists each column after the columns that update it. Columns
        // fill in row order: the diagonal, then the rows that reach it.
        let mut r_col = vec![0; r_ptr[n]];
        let mut r_slot = vec![0; r_ptr[n]];
        let mut l_row = vec![0; l_ptr[n]];
        let mut next = vec![0; n];
        for j in 0..n {
            l_row[l_ptr[j]] = j;
            next[j] = l_ptr[j] + 1;
        }
        mark.fill(NONE);
        let mut path = vec![0; n];
        for k in 0..n {
            mark[k] = k;
            let mut top = r_ptr[k + 1];
            for &row in &a_row[a_ptr[k]..a_ptr[k + 1]] {
                let mut len = 0;
                let mut i = row;
                while mark[i] != k {
                    mark[i] = k;
                    path[len] = i;
                    len += 1;
                    i = parent[i];
                }
                r_col[top - len..top].copy_from_slice(&path[..len]);
                top -= len;
            }
            for t in r_ptr[k]..r_ptr[k + 1] {
                let j = r_col[t];
                l_row[next[j]] = k;
                r_slot[t] = next[j];
                next[j] += 1;
            }
        }

        Ok(CholeskyPattern {
            n,
            perm,
            lo_ptr,
            lo_col,
            a_ptr,
            a_row,
            a_src,
            l_ptr,
            l_row,
            r_ptr,
            r_col,
            r_slot,
        })
    }

    /// Entries of the factor `L`, diagonal included.
    pub fn nnz_l(&self) -> usize {
        self.l_row.len()
    }

    /// Flops of one numeric factorization on this pattern, counted as the
    /// sum over the columns of `L` of the squared column count (diagonal
    /// included). [`crate::ShiftedCholesky`] weighs it against the `k³/3`
    /// of a dense trailing block.
    pub fn factor_flops(&self) -> f64 {
        self.l_ptr
            .windows(2)
            .map(|w| {
                let count = (w[1] - w[0]) as f64;
                count * count
            })
            .sum()
    }

    /// The elimination order: `permutation()[k]` is the original index of
    /// the `k`-th pivot.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Order of the analysed matrix.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Length of the lower-triangle layout [`CholeskyPattern::gather`]
    /// produces: the strictly lower entries plus the diagonal.
    pub(crate) fn lower_len(&self) -> usize {
        self.lo_col.len()
    }

    /// Where the diagonal entry of row `r` sits in the lower-triangle
    /// layout [`CholeskyPattern::gather`] produces.
    pub(crate) fn diagonal_position(&self, r: usize) -> usize {
        self.lo_ptr[r + 1] - 1
    }

    /// Where the strictly lower entry `(r, c)`, `c < r`, sits in the
    /// lower-triangle layout, or `None` if the pattern does not cover it.
    pub(crate) fn lower_position(&self, r: usize, c: usize) -> Option<usize> {
        let (lo, diag) = (self.lo_ptr[r], self.lo_ptr[r + 1] - 1);
        self.lo_col[lo..diag].binary_search(&c).ok().map(|q| lo + q)
    }

    /// The lower triangle of `a`, laid out by this pattern's structure, in
    /// one `O(nnz)` merge of each row against the pattern's row.
    ///
    /// The strictly lower structures must be equal: an entry the pattern
    /// does not cover would be dropped silently, and a pattern entry `a`
    /// lacks means the pattern was analysed for another matrix. A missing
    /// diagonal reads as zero.
    pub(crate) fn gather(&self, a: &CsrMatrix) -> Result<Vec<f64>, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.rows() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                actual: a.rows(),
            });
        }
        let outside = |r: usize, c: usize| {
            LinalgError::InvalidInput(format!(
                "entry ({r}, {c}) lies outside the analysed Cholesky pattern"
            ))
        };
        let missing = |r: usize, c: usize| {
            LinalgError::InvalidInput(format!(
                "pattern entry ({r}, {c}) is missing from the matrix structure"
            ))
        };
        let mut values = vec![0.0; self.lo_col.len()];
        for r in 0..self.n {
            let diag = self.lo_ptr[r + 1] - 1;
            let mut q = self.lo_ptr[r];
            for t in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                let c = a.col_indices()[t];
                if c >= r {
                    if c == r {
                        values[diag] = a.values()[t];
                    }
                    break;
                }
                if q < diag && self.lo_col[q] < c {
                    return Err(missing(r, self.lo_col[q]));
                }
                if q == diag || self.lo_col[q] != c {
                    return Err(outside(r, c));
                }
                values[q] = a.values()[t];
                q += 1;
            }
            if q < diag {
                return Err(missing(r, self.lo_col[q]));
            }
        }
        Ok(values)
    }
}

/// The lower triangle (diagonal included) of the dense `a` as CSR, zeros
/// dropped: the bridge from the dense entry points to the CSR analysis
/// and factorization. Reads only the lower triangle, as they always have.
fn lower_triangle(a: &DenseMatrix) -> Result<CsrMatrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for r in 0..n {
        // Most of a row is zero: skip all-zero blocks in one test.
        for (b, block) in a.row(r)[..=r].chunks(16).enumerate() {
            if nonzeros(block) == 0 {
                continue;
            }
            for (off, &v) in block.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(16 * b + off);
                    values.push(v);
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    Ok(CsrMatrix::from_parts(n, n, row_ptr, col_idx, values))
}

/// The strictly lower entries of the square `a` as `(row, column)` edges,
/// row-major with ascending columns: the graph minimum degree orders.
fn lower_edges(a: &CsrMatrix) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(a.nnz() / 2);
    for r in 0..a.rows() {
        let row = &a.col_indices()[a.row_ptr()[r]..a.row_ptr()[r + 1]];
        edges.extend(row.iter().take_while(|&&c| c < r).map(|&c| (r, c)));
    }
    edges
}

/// [`LinalgError::InvalidInput`] unless `perm` lists every node of `0..n`
/// exactly once.
pub(crate) fn check_permutation(perm: &[usize], n: usize) -> Result<(), LinalgError> {
    if perm.len() != n {
        return Err(LinalgError::InvalidInput(format!(
            "an elimination order of {} nodes for n = {n}",
            perm.len()
        )));
    }
    let mut seen = vec![false; n];
    for &node in perm {
        if node >= n || std::mem::replace(&mut seen[node], true) {
            return Err(LinalgError::InvalidInput(format!(
                "elimination order is not a permutation of 0..{n}: node {node} is out of \
                 bounds or repeated"
            )));
        }
    }
    Ok(())
}

/// Nonzero entries of `values` (NaN counts as nonzero).
fn nonzeros(values: &[f64]) -> usize {
    values.iter().map(|&v| usize::from(v != 0.0)).sum()
}

/// The live nodes of a minimum-degree ordering, bucketed by degree: one
/// bitset of node indices per degree, so the lowest-index node of least
/// degree is found by a word scan and a degree change is two bit flips.
struct DegreeBuckets {
    words: usize,
    /// Members of each degree's bucket (allocated on first use).
    bits: Vec<Vec<u64>>,
    count: Vec<usize>,
    degree: Vec<usize>,
    /// No nonempty bucket lies below this degree.
    min: usize,
}

impl DegreeBuckets {
    fn new(degree: Vec<usize>) -> DegreeBuckets {
        let n = degree.len();
        let mut buckets = DegreeBuckets {
            words: n.div_ceil(64),
            bits: vec![Vec::new(); n],
            count: vec![0; n],
            degree,
            min: 0,
        };
        for node in 0..n {
            buckets.insert(node);
        }
        buckets
    }

    fn insert(&mut self, node: usize) {
        let d = self.degree[node];
        let bucket = &mut self.bits[d];
        if bucket.is_empty() {
            bucket.resize(self.words, 0);
        }
        bucket[node / 64] |= 1 << (node % 64);
        self.count[d] += 1;
        self.min = self.min.min(d);
    }

    fn remove(&mut self, node: usize) {
        let d = self.degree[node];
        self.bits[d][node / 64] &= !(1 << (node % 64));
        self.count[d] -= 1;
    }

    /// Removes and returns the lowest-index node of least degree.
    fn pop(&mut self) -> Option<usize> {
        while self.count.get(self.min).is_some_and(|&c| c == 0) {
            self.min += 1;
        }
        let bucket = self.bits.get(self.min)?;
        let (w, &word) = bucket.iter().enumerate().find(|(_, &word)| word != 0)?;
        let node = 64 * w + word.trailing_zeros() as usize;
        self.remove(node);
        Some(node)
    }

    fn set(&mut self, node: usize, degree: usize) {
        if degree == self.degree[node] {
            return;
        }
        self.remove(node);
        self.degree[node] = degree;
        self.insert(node);
    }
}

/// Approximate minimum-degree order of the `n`-node graph with the
/// undirected `edges` (each once, no self loops), lowest index first among
/// ties.
///
/// This is the quotient-graph form of minimum degree (Amestoy, Davis and
/// Duff's AMD without supervariables): eliminated nodes become *elements*
/// whose member lists stand for the cliques of the elimination graph, so
/// no fill edge is ever stored. After each pivot `p` the degree of every
/// node `i` in `p`'s element `Lp` is bounded by
/// `|Ai \ Lp| + |Lp \ {i}| + Σ_e |Le \ Lp|` over `i`'s other elements,
/// and by its previous degree plus `|Lp \ {i}|`. Elements wholly inside `Lp`
/// are absorbed.
fn approximate_minimum_degree(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    // Uncovered node–node edges: node i owns adj[start[i]..start[i] + len[i]],
    // pruned in place.
    let mut start = vec![0; n + 1];
    for &(r, c) in edges {
        start[r + 1] += 1;
        start[c + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut len = vec![0; n];
    let mut adj = vec![0; start[n]];
    for &(r, c) in edges {
        adj[start[r] + len[r]] = c;
        len[r] += 1;
        adj[start[c] + len[c]] = r;
        len[c] += 1;
    }
    // Element e's members are members[m_start[e]..m_start[e] + m_len[e]].
    let mut members: Vec<usize> = Vec::with_capacity(start[n] + n);
    let mut m_start = vec![0; n];
    let mut m_len = vec![0; n];
    let mut elems: Vec<Vec<usize>> = (0..n).map(|_| Vec::with_capacity(4)).collect();
    // 0 = live node, 1 = element, 2 = absorbed element.
    let mut state = vec![0_u8; n];
    let mut buckets = DegreeBuckets::new(len.clone());
    let mut in_lp = vec![NONE; n];
    let mut outside = vec![0_usize; n];
    let mut outside_at = vec![NONE; n];
    let mut order = Vec::with_capacity(n);
    while let Some(p) = buckets.pop() {
        order.push(p);
        in_lp[p] = p;
        let lp_start = members.len();
        for &i in &adj[start[p]..start[p] + len[p]] {
            if state[i] == 0 && in_lp[i] != p {
                in_lp[i] = p;
                members.push(i);
            }
        }
        for &e in &elems[p] {
            if state[e] != 1 {
                continue;
            }
            for t in m_start[e]..m_start[e] + m_len[e] {
                let i = members[t];
                if state[i] == 0 && in_lp[i] != p {
                    in_lp[i] = p;
                    members.push(i);
                }
            }
            state[e] = 2;
        }
        elems[p].clear();
        state[p] = 1;
        len[p] = 0;
        m_start[p] = lp_start;
        m_len[p] = members.len() - lp_start;
        let lp = lp_start..members.len();
        // |Le \ Lp| for every live element that meets Lp.
        for &i in &members[lp.clone()] {
            for &e in &elems[i] {
                if state[e] != 1 {
                    continue;
                }
                if outside_at[e] != p {
                    outside_at[e] = p;
                    outside[e] = m_len[e];
                }
                outside[e] -= 1;
            }
        }
        let remaining = n - order.len();
        let grown = m_len[p].saturating_sub(1);
        for &i in &members[lp] {
            let mut bound = grown;
            elems[i].retain(|&e| {
                if state[e] == 1 && outside[e] == 0 {
                    // Le ⊆ Lp: the new element covers it.
                    state[e] = 2;
                }
                if state[e] != 1 {
                    return false;
                }
                bound += outside[e];
                true
            });
            elems[i].push(p);
            let mut kept = 0;
            for t in start[i]..start[i] + len[i] {
                let j = adj[t];
                if state[j] == 0 && in_lp[j] != p {
                    adj[start[i] + kept] = j;
                    kept += 1;
                }
            }
            len[i] = kept;
            bound += kept;
            let previous = buckets.degree[i] + grown;
            buckets.set(i, bound.min(previous).min(remaining - 1));
        }
    }
    order
}

/// Sparse Cholesky factorization `P·A·Pᵀ = L·Lᵀ` of a symmetric
/// positive-definite matrix, with a fill-reducing permutation `P`.
///
/// This is the positive-definiteness oracle the paper's `λ_m` search relies
/// on (Sec. V.C.1 checks definiteness with a dense `O(n³)` Cholesky) and the
/// solver behind every steady-state evaluation `θ = (G − i·D)⁻¹·p`. The
/// compact thermal network is a structured sparse grid, so under a
/// minimum-degree order ([`CholeskyPattern`]) the factor stays close to the
/// matrix in size: at a 12×12-tile package (n = 536) `L` has about 6.3k
/// entries instead of the 144k of a dense factor. Factorization is an
/// up-looking sweep over the precomputed structure, and every solve is two
/// sparse triangular sweeps.
///
/// ```
/// use tecopt_linalg::{Cholesky, DenseMatrix};
///
/// # fn main() -> Result<(), tecopt_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[25.0, 15.0, -5.0],
///                                  &[15.0, 18.0,  0.0],
///                                  &[-5.0,  0.0, 11.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&[1.0, 2.0, 3.0])?;
/// let r = a.mul_vec(&x)?;
/// assert!((r[0] - 1.0).abs() < 1e-10 && (r[2] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    pattern: Arc<CholeskyPattern>,
    /// Values of `L`, laid out by [`CholeskyPattern`]'s column structure.
    lx: Vec<f64>,
}

impl Cholesky {
    /// Analyses and factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (the compact-model assembly guarantees it, and
    /// [`DenseMatrix::is_symmetric`] is available for validation). The
    /// lower triangle is converted to CSR and takes the path of
    /// [`Cholesky::factor_csr`]. Callers factoring many matrices of one
    /// structure should analyse it once and use
    /// [`Cholesky::factor_csr_with`]; the result is bit-identical.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive — the signal used to detect thermal runaway (`i ≥ λ_m`).
    ///   `pivot` is the original index of the node whose pivot failed.
    pub fn factor(a: &DenseMatrix) -> Result<Cholesky, LinalgError> {
        Cholesky::factor_csr(&lower_triangle(a)?)
    }

    /// Analyses and factors a symmetric positive-definite CSR matrix,
    /// reading its lower triangle.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::factor`].
    pub fn factor_csr(a: &CsrMatrix) -> Result<Cholesky, LinalgError> {
        let pattern = Arc::new(CholeskyPattern::analyse_csr(a)?);
        Cholesky::factor_csr_with(&pattern, a)
    }

    /// Factors the dense `a` on a pattern analysed before: its lower
    /// triangle is converted to CSR (zeros dropped) and takes the path of
    /// [`Cholesky::factor_csr_with`].
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square, and
    ///   [`LinalgError::DimensionMismatch`] if its size differs from the
    ///   pattern's.
    /// - [`LinalgError::InvalidInput`] if the nonzeros of the strictly
    ///   lower triangle of `a` are not exactly the pattern's entries: a
    ///   nonzero the pattern does not cover would otherwise be silently
    ///   dropped.
    /// - [`LinalgError::NotPositiveDefinite`] as for [`Cholesky::factor`].
    pub fn factor_with(
        pattern: &Arc<CholeskyPattern>,
        a: &DenseMatrix,
    ) -> Result<Cholesky, LinalgError> {
        Cholesky::factor_csr_with(pattern, &lower_triangle(a)?)
    }

    /// Factors the CSR matrix `a` on a pattern analysed before: the
    /// production path of every steady, transient and passive solve.
    ///
    /// The lower triangle of `a` must have exactly the pattern's structure
    /// (the diagonal may be unstored, reading as zero). Checking that is one
    /// `O(nnz)` merge, and the values are then gathered by position, so a
    /// factorization costs nothing of order `n²`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`]
    ///   as for [`Cholesky::factor_with`].
    /// - [`LinalgError::InvalidInput`] if the lower-triangle structure of
    ///   `a` differs from the pattern's: an extra entry would be dropped
    ///   silently, and a missing one means the pattern was analysed for a
    ///   different matrix.
    /// - [`LinalgError::NotPositiveDefinite`] as for [`Cholesky::factor`].
    pub fn factor_csr_with(
        pattern: &Arc<CholeskyPattern>,
        a: &CsrMatrix,
    ) -> Result<Cholesky, LinalgError> {
        let values = pattern.gather(a)?;
        Cholesky::numeric(Arc::clone(pattern), &values)
    }

    /// Up-looking numeric factorization over `pattern` of the lower
    /// triangle `a`, laid out by the pattern's structure: row `k` of `L` is
    /// the solve of the leading `k×k` factor against column `k` of the
    /// permuted matrix, walked over the precomputed row structure.
    pub(crate) fn numeric(
        pattern: Arc<CholeskyPattern>,
        a: &[f64],
    ) -> Result<Cholesky, LinalgError> {
        let p = &*pattern;
        let mut lx = vec![0.0; p.l_row.len()];
        let mut x = vec![0.0; p.n];
        for k in 0..p.n {
            let entries = p.a_ptr[k]..p.a_ptr[k + 1];
            for (&row, &src) in p.a_row[entries.clone()].iter().zip(&p.a_src[entries]) {
                x[row] = a[src];
            }
            let mut diag = x[k];
            x[k] = 0.0;
            let row_k = p.r_ptr[k]..p.r_ptr[k + 1];
            for (&j, &slot) in p.r_col[row_k.clone()].iter().zip(&p.r_slot[row_k]) {
                let lkj = x[j] / lx[p.l_ptr[j]];
                x[j] = 0.0;
                let below = (p.l_ptr[j] + 1)..slot;
                for (&row, &lij) in p.l_row[below.clone()].iter().zip(&lx[below]) {
                    x[row] -= lij * lkj;
                }
                diag -= lkj * lkj;
                lx[slot] = lkj;
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: p.perm[k] });
            }
            lx[p.l_ptr[k]] = diag.sqrt();
        }
        Ok(Cholesky { pattern, lx })
    }

    /// Returns `true` iff `a` (symmetric) is positive definite.
    ///
    /// Convenience wrapper over [`Cholesky::factor`] that discards the factor.
    pub fn is_positive_definite(a: &DenseMatrix) -> bool {
        Cholesky::factor(a).is_ok()
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// The symbolic analysis this factor was computed on.
    pub fn pattern(&self) -> &Arc<CholeskyPattern> {
        &self.pattern
    }

    /// The pivots `L_kk`, in elimination order.
    pub(crate) fn pivots(&self) -> impl Iterator<Item = f64> + '_ {
        self.pattern.l_ptr[..self.dim()].iter().map(|&p| self.lx[p])
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let p = &*self.pattern;
        if b.len() != p.n {
            return Err(LinalgError::DimensionMismatch {
                expected: p.n,
                actual: b.len(),
            });
        }
        let mut y: Vec<f64> = p.perm.iter().map(|&node| b[node]).collect();
        // Forward substitution L·y = P·b, column-oriented.
        for j in 0..p.n {
            let (lo, hi) = (p.l_ptr[j], p.l_ptr[j + 1]);
            let yj = y[j] / self.lx[lo];
            y[j] = yj;
            for (&row, &lij) in p.l_row[lo + 1..hi].iter().zip(&self.lx[lo + 1..hi]) {
                y[row] -= lij * yj;
            }
        }
        // Back substitution Lᵀ·z = y.
        for j in (0..p.n).rev() {
            let (lo, hi) = (p.l_ptr[j], p.l_ptr[j + 1]);
            let mut v = y[j];
            for (&row, &lij) in p.l_row[lo + 1..hi].iter().zip(&self.lx[lo + 1..hi]) {
                v -= lij * y[row];
            }
            y[j] = v / self.lx[lo];
        }
        let mut x = vec![0.0; p.n];
        for (&node, &v) in p.perm.iter().zip(&y) {
            x[node] = v;
        }
        Ok(x)
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != n`.
    pub fn solve_mat(&self, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: b.rows(),
            });
        }
        let cols: Vec<Vec<f64>> = (0..b.cols())
            .map(|c| (0..n).map(|r| b[(r, c)]).collect())
            .collect();
        let x = self.solve_many(&cols)?;
        let mut out = DenseMatrix::zeros(n, b.cols());
        for (c, col) in x.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                out[(r, c)] = v;
            }
        }
        Ok(out)
    }

    /// Solves `A·X = B` for many right-hand sides in one blocked pass.
    ///
    /// Each substitution sweep walks the factor `L` **once** for all
    /// columns together (an axpy across the block per `L` entry), so the
    /// factor traffic is amortized over the whole block. The per-column
    /// arithmetic is the same as [`Cholesky::solve`]'s, so every column is
    /// bit-identical to a single solve (but for the sign of a zero, see
    /// below). This is the kernel behind `FactoredSystem::solve_many` and
    /// the `W = A⁻¹·U` precomputation of the rank-k update path.
    ///
    /// The forward sweep skips a pivot whose row of the block is exactly
    /// zero in every column: dividing it and subtracting its multiples
    /// would change no entry but the sign of a zero, and only a negative
    /// zero on input can make one. A block of sparse columns (`G_AB` has
    /// one or two nonzeros per column on the paper's packages) then walks
    /// only the columns of `L` their nonzeros reach.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any column's length is
    /// not `n`.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        let p = &*self.pattern;
        let n = p.n;
        let m = rhs.len();
        for b in rhs {
            if b.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    actual: b.len(),
                });
            }
        }
        if m == 0 {
            // No columns: skip the sweeps, which would still walk `L`.
            return Ok(Vec::new());
        }
        // Row-major n×m block in elimination order: y[k·m + c] is pivot k
        // of column c.
        let mut y = vec![0.0; n * m];
        for (k, &node) in p.perm.iter().enumerate() {
            for (c, b) in rhs.iter().enumerate() {
                y[k * m + c] = b[node];
            }
        }
        // Forward substitution L·Y = P·B, column-oriented.
        for j in 0..n {
            let (head, tail) = y.split_at_mut((j + 1) * m);
            let yj = &mut head[j * m..];
            if yj.iter().all(|&v| v == 0.0) {
                continue;
            }
            let ljj = self.lx[p.l_ptr[j]];
            for v in yj.iter_mut() {
                *v /= ljj;
            }
            for q in (p.l_ptr[j] + 1)..p.l_ptr[j + 1] {
                let lij = self.lx[q];
                let off = (p.l_row[q] - j - 1) * m;
                for (a, &b) in tail[off..off + m].iter_mut().zip(yj.iter()) {
                    *a -= lij * b;
                }
            }
        }
        // Back substitution Lᵀ·Z = Y.
        for j in (0..n).rev() {
            let (head, tail) = y.split_at_mut((j + 1) * m);
            let yj = &mut head[j * m..];
            for q in (p.l_ptr[j] + 1)..p.l_ptr[j + 1] {
                let lij = self.lx[q];
                let off = (p.l_row[q] - j - 1) * m;
                for (a, &b) in yj.iter_mut().zip(&tail[off..off + m]) {
                    *a -= lij * b;
                }
            }
            let ljj = self.lx[p.l_ptr[j]];
            for v in yj.iter_mut() {
                *v /= ljj;
            }
        }
        let mut out = vec![vec![0.0; n]; m];
        for (k, &node) in p.perm.iter().enumerate() {
            for (c, col) in out.iter_mut().enumerate() {
                col[node] = y[k * m + c];
            }
        }
        Ok(out)
    }

    /// The full inverse `A⁻¹` — the matrix `H(i)` of the paper.
    ///
    /// For the compact models in this workspace (n in the hundreds) the dense
    /// inverse is cheap and the optimization layer consumes whole rows of `H`
    /// (the `η(i)`/`ζ(i)` sums of Eq. 10), so materializing it is the right
    /// trade.
    #[allow(clippy::expect_used)]
    pub fn inverse(&self) -> DenseMatrix {
        let n = self.dim();
        self.solve_mat(&DenseMatrix::identity(n))
            // tecopt:allow(panic-in-kernel) — identity RHS always matches dims
            .expect("identity has matching dimension")
    }

    /// Pivot-ratio estimate of the 2-norm condition number `κ(A)`.
    ///
    /// For `P·A·Pᵀ = L·Lᵀ` the squared ratio of the extreme Cholesky
    /// pivots, `(max_k L_kk / min_k L_kk)²`, is a cheap lower bound on
    /// `κ₂(A)`: a symmetric permutation leaves the spectrum unchanged, and
    /// every squared pivot `L_kk²` is a Schur-complement diagonal of a
    /// permuted leading block, which lies in `[λ_min, λ_max]`. So the
    /// estimate is a lower bound whatever elimination order the factor
    /// used, though its value depends on that order. It tracks the true
    /// condition number well for the diagonally dominant Stieltjes systems
    /// of the paper, and as the supply current approaches the runaway limit
    /// `λ_m` it still diverges: the product of the squared pivots is
    /// `det(G − i·D)`, which vanishes there (Lemma 2). That makes it the
    /// solver-level "distance to runaway" diagnostic surfaced through
    /// `SolvedState`.
    ///
    /// Returns `+∞` if a pivot underflowed to zero (numerically singular).
    pub fn condition_estimate(&self) -> f64 {
        if self.dim() == 0 {
            return 1.0;
        }
        let (min_p, max_p) = self
            .pivots()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p), hi.max(p))
            });
        if min_p <= 0.0 {
            return f64::INFINITY;
        }
        let r = max_p / min_p;
        r * r
    }

    /// Natural logarithm of `det(A) = Π L_kk²`.
    ///
    /// Stays finite where the determinant itself would overflow; diverges to
    /// `−∞` as `A = G − i·D` approaches singularity at `i → λ_m⁻` (Lemma 2),
    /// which makes it a useful runaway diagnostic.
    pub fn log_det(&self) -> f64 {
        self.pivots().map(|p| 2.0 * p.ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseCholesky, Triplet};
    use proptest::prelude::*;

    /// The four-sweep analysis the two-sweep one replaced, kept as its
    /// oracle: the structure pass copies every strictly lower entry into
    /// an edge list, the elimination tree comes from Liu's algorithm with
    /// path compression, row structures are emitted path by path into a
    /// growing `r_col`, and a separate pass builds the columns from them.
    fn four_sweep_oracle(a: &CsrMatrix, perm: Option<&[usize]>) -> CholeskyPattern {
        let n = a.rows();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut edge_src: Vec<usize> = Vec::new();
        let mut lo_ptr = vec![0];
        let mut lo_col = Vec::new();
        for r in 0..n {
            let row = &a.col_indices()[a.row_ptr()[r]..a.row_ptr()[r + 1]];
            for &c in row.iter().take_while(|&&c| c < r) {
                edges.push((r, c));
                edge_src.push(lo_col.len());
                lo_col.push(c);
            }
            lo_col.push(r);
            lo_ptr.push(lo_col.len());
        }
        let perm = match perm {
            Some(perm) => perm.to_vec(),
            None => approximate_minimum_degree(n, &edges),
        };
        let mut iperm = vec![0; n];
        for (k, &node) in perm.iter().enumerate() {
            iperm[node] = k;
        }

        let entries = (0..n)
            .map(|r| (r, r, lo_ptr[r + 1] - 1))
            .chain(
                edges
                    .iter()
                    .zip(&edge_src)
                    .map(|(&(r, c), &src)| (r, c, src)),
            )
            .map(|(r, c, src)| {
                let (i, j) = (iperm[r], iperm[c]);
                (i.max(j), i.min(j), src)
            });
        let mut a_ptr = vec![0; n + 1];
        for &(r, c) in &edges {
            a_ptr[iperm[r].max(iperm[c]) + 1] += 1;
        }
        for k in 0..n {
            a_ptr[k + 1] += a_ptr[k] + 1;
        }
        let mut fill = a_ptr.clone();
        let mut a_row = vec![0; a_ptr[n]];
        let mut a_src = vec![0; a_ptr[n]];
        for (col, row, src) in entries {
            a_row[fill[col]] = row;
            a_src[fill[col]] = src;
            fill[col] += 1;
        }

        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        for k in 0..n {
            for &row in &a_row[a_ptr[k]..a_ptr[k + 1]] {
                let mut i = row;
                while i != NONE && i < k {
                    let next = ancestor[i];
                    ancestor[i] = k;
                    if next == NONE {
                        parent[i] = k;
                    }
                    i = next;
                }
            }
        }

        let mut r_ptr = vec![0; n + 1];
        let mut r_col = Vec::new();
        let mut mark = vec![NONE; n];
        let mut path = Vec::new();
        let mut ends = Vec::new();
        for k in 0..n {
            mark[k] = k;
            path.clear();
            ends.clear();
            for &row in &a_row[a_ptr[k]..a_ptr[k + 1]] {
                let mut i = row;
                while mark[i] != k {
                    mark[i] = k;
                    path.push(i);
                    i = parent[i];
                }
                ends.push(path.len());
            }
            let mut end = path.len();
            for &start in ends.iter().rev().skip(1).chain([&0]) {
                r_col.extend_from_slice(&path[start..end]);
                end = start;
            }
            r_ptr[k + 1] = r_col.len();
        }

        let mut l_ptr = vec![0; n + 1];
        for k in 0..n {
            l_ptr[k + 1] = 1;
        }
        for &j in &r_col {
            l_ptr[j + 1] += 1;
        }
        for k in 0..n {
            l_ptr[k + 1] += l_ptr[k];
        }
        let mut l_row = vec![0; l_ptr[n]];
        let mut next: Vec<usize> = l_ptr[..n].iter().map(|&p| p + 1).collect();
        for j in 0..n {
            l_row[l_ptr[j]] = j;
        }
        let mut r_slot = vec![0; r_col.len()];
        for k in 0..n {
            for t in r_ptr[k]..r_ptr[k + 1] {
                let j = r_col[t];
                l_row[next[j]] = k;
                r_slot[t] = next[j];
                next[j] += 1;
            }
        }

        CholeskyPattern {
            n,
            perm,
            lo_ptr,
            lo_col,
            a_ptr,
            a_row,
            a_src,
            l_ptr,
            l_row,
            r_ptr,
            r_col,
            r_slot,
        }
    }

    /// Every array of `p` equals the oracle's analysis of `a` on `perm`.
    fn assert_matches_oracle(p: &CholeskyPattern, a: &CsrMatrix, perm: Option<&[usize]>) {
        let o = four_sweep_oracle(a, perm);
        assert_eq!(p.n, o.n);
        assert_eq!(p.perm, o.perm, "perm");
        assert_eq!(p.lo_ptr, o.lo_ptr, "lo_ptr");
        assert_eq!(p.lo_col, o.lo_col, "lo_col");
        assert_eq!(p.a_ptr, o.a_ptr, "a_ptr");
        assert_eq!(p.a_row, o.a_row, "a_row");
        assert_eq!(p.a_src, o.a_src, "a_src");
        assert_eq!(p.l_ptr, o.l_ptr, "l_ptr");
        assert_eq!(p.l_row, o.l_row, "l_row");
        assert_eq!(p.r_ptr, o.r_ptr, "r_ptr");
        assert_eq!(p.r_col, o.r_col, "r_col");
        assert_eq!(p.r_slot, o.r_slot, "r_slot");
    }

    /// Analyses `a` on minimum degree, identity, reversed and `shuffled`
    /// orders and checks each against the oracle.
    fn check_orders(a: &CsrMatrix, shuffled: &[usize]) {
        let n = a.rows();
        assert_matches_oracle(&CholeskyPattern::analyse_csr(a).unwrap(), a, None);
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        for order in [&identity[..], &reversed, shuffled] {
            let p = CholeskyPattern::analyse_csr_ordered(a, order).unwrap();
            assert_matches_oracle(&p, a, Some(order));
        }
    }

    /// A symmetric structure on `n` nodes from `pairs` (taken mod `n`),
    /// keeping only the pairs inside one of `parts` residue classes, so
    /// `parts > 1` splits the graph into disconnected pieces. Diagonals
    /// are stored only on the nodes `diagonal` selects.
    fn structure(n: usize, pairs: &[(usize, usize)], parts: usize, diagonal: u64) -> CsrMatrix {
        let mut t = Vec::new();
        for &(u, v) in pairs {
            let (u, v) = (u % n.max(1), v % n.max(1));
            if u != v && u % parts == v % parts {
                t.push(Triplet::new(u, v, -1.0));
                t.push(Triplet::new(v, u, -1.0));
            }
        }
        for k in (0..n).filter(|k| diagonal >> (k % 64) & 1 == 1) {
            t.push(Triplet::new(k, k, 4.0));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    /// The permutation of `0..keys.len()` that sorts `keys`.
    fn shuffle(keys: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&k| (keys[k], k));
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn two_sweep_analysis_matches_the_four_sweep_oracle(
            n in 0usize..48,
            pairs in collection::vec((0usize..48, 0usize..48), 0..160),
            parts in 1usize..4,
            diagonal in 0u64..=u64::MAX,
            keys in collection::vec(0u64..=u64::MAX, 48),
        ) {
            let a = structure(n, &pairs, parts, diagonal);
            check_orders(&a, &shuffle(&keys[..n]));
        }
    }

    #[test]
    fn two_sweep_analysis_matches_the_oracle_on_small_and_split_structures() {
        // n = 0 and n = 1, with and without a stored diagonal.
        for a in [
            structure(0, &[], 1, 0),
            structure(1, &[], 1, 0),
            structure(1, &[], 1, 1),
        ] {
            let n = a.rows();
            check_orders(&a, &(0..n).collect::<Vec<_>>());
        }
        // Two chains and an isolated node: a forest of three trees.
        let chains = structure(9, &[(0, 2), (2, 4), (4, 6), (1, 3), (3, 5), (5, 7)], 2, !0);
        check_orders(&chains, &[8, 7, 0, 5, 2, 3, 6, 1, 4]);
        // A 2-D grid, where every order fills in.
        let side = 7;
        let mut pairs = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let k = r * side + c;
                if c + 1 < side {
                    pairs.push((k, k + 1));
                }
                if r + 1 < side {
                    pairs.push((k, k + side));
                }
            }
        }
        let grid = structure(side * side, &pairs, 1, !0);
        let keys: Vec<u64> = (0..(side * side) as u64)
            .map(|k| k * 0x9e37_79b9 % 97)
            .collect();
        check_orders(&grid, &shuffle(&keys));
    }

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap()
    }

    /// A 1-D chain `tridiag(−1, 2.5, −1)` whose natural order has no fill.
    fn chain(n: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        for k in 0..n {
            a[(k, k)] = 2.5;
            if k + 1 < n {
                a[(k, k + 1)] = -1.0;
                a[(k + 1, k)] = -1.0;
            }
        }
        a
    }

    #[test]
    fn factor_matches_the_dense_oracle() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let dense = DenseCholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        for (u, v) in chol
            .solve(&b)
            .unwrap()
            .iter()
            .zip(&dense.solve(&b).unwrap())
        {
            assert!((u - v).abs() < 1e-13, "{u} vs {v}");
        }
        assert!((chol.log_det() - dense.log_det()).abs() < 1e-12);
    }

    #[test]
    fn minimum_degree_keeps_a_chain_fill_free_and_breaks_ties_low() {
        let pattern = CholeskyPattern::analyse(&chain(6)).unwrap();
        // Both ends have degree 1; the lower index goes first, and the
        // chain then unwinds from that end.
        assert_eq!(pattern.permutation(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(pattern.nnz_l(), 6 + 5);
    }

    #[test]
    fn arrow_matrix_eliminates_the_leaves_before_the_hub() {
        // A hub coupled to every leaf: natural order fills L completely,
        // minimum degree eliminates the leaves first (the hub ties with the
        // last leaf and wins on its lower index) and has no fill.
        let n = 6;
        let mut a = DenseMatrix::identity(n);
        for k in 1..n {
            a[(0, 0)] = 10.0;
            a[(0, k)] = -1.0;
            a[(k, 0)] = -1.0;
        }
        let chol = Cholesky::factor(&a).unwrap();
        assert_eq!(chol.pattern().permutation(), &[1, 2, 3, 4, 0, 5]);
        assert_eq!(chol.pattern().nnz_l(), n + (n - 1));
        let dense = DenseCholesky::factor(&a).unwrap();
        assert!((chol.log_det() - dense.log_det()).abs() < 1e-12);
    }

    #[test]
    fn factor_with_reuses_a_pattern_and_rejects_entries_outside_it() {
        let a = chain(5);
        let pattern = Arc::new(CholeskyPattern::analyse(&a).unwrap());
        let mut shifted = a.clone();
        shifted.add_scaled_diagonal(&[0.5; 5], 1.0).unwrap();
        let reused = Cholesky::factor_with(&pattern, &shifted).unwrap();
        let fresh = Cholesky::factor(&shifted).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(reused.solve(&b).unwrap(), fresh.solve(&b).unwrap());
        assert!(Arc::ptr_eq(reused.pattern(), &pattern));

        let mut outside = a.clone();
        outside[(4, 0)] = -0.1;
        outside[(0, 4)] = -0.1;
        match Cholesky::factor_with(&pattern, &outside) {
            Err(LinalgError::InvalidInput(msg)) => assert!(msg.contains("(4, 0)"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // A pattern entry the matrix lacks: the pattern is for another
        // matrix, so the structures must match exactly.
        let mut cut = a.clone();
        cut[(3, 2)] = 0.0;
        cut[(2, 3)] = 0.0;
        match Cholesky::factor_with(&pattern, &cut) {
            Err(LinalgError::InvalidInput(msg)) => assert!(msg.contains("(3, 2)"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        assert!(matches!(
            Cholesky::factor_with(&pattern, &chain(4)),
            Err(LinalgError::DimensionMismatch {
                expected: 5,
                actual: 4
            })
        ));
    }

    #[test]
    fn pivot_index_is_the_original_node() {
        // Node 2 is the only indefinite one; the order puts it last in a
        // chain of 3 but the error names node 2 either way.
        let mut a = chain(3);
        a[(2, 2)] = -1.0;
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 2),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn solve_residual_small() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = chol.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let id = a.mul_mat(&inv).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((id[(r, c)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert!(!Cholesky::is_positive_definite(&a));
        assert!(Cholesky::is_positive_definite(&spd3()));
    }

    #[test]
    fn negative_diagonal_rejected_at_first_pivot() {
        let a = DenseMatrix::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 0 }
        );
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn log_det_matches_known_determinant() {
        // det(spd3) = (5·3·3)² = 2025.
        let chol = Cholesky::factor(&spd3()).unwrap();
        assert!((chol.log_det() - 2025.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn solve_mat_matches_columnwise_solve() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = chol.solve_mat(&b).unwrap();
        let x0 = chol.solve(&[1.0, 0.0, 1.0]).unwrap();
        for r in 0..3 {
            assert!((x[(r, 0)] - x0[r]).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_many_matches_per_column_solve() {
        let a = spd3();
        let chol = Cholesky::factor(&a).unwrap();
        let rhs = vec![
            vec![1.0, 0.0, 1.0],
            vec![-2.0, 0.5, 3.0],
            vec![0.0, 0.0, 0.0],
        ];
        let many = chol.solve_many(&rhs).unwrap();
        assert_eq!(many.len(), 3);
        for (col, b) in many.iter().zip(&rhs) {
            let one = chol.solve(b).unwrap();
            for (u, v) in col.iter().zip(&one) {
                assert!((u - v).abs() < 1e-12, "{u} vs {v}");
            }
        }
        assert!(chol.solve_many(&[vec![1.0; 2]]).is_err());
        assert!(chol.solve_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn dimension_mismatch_on_solve() {
        let chol = Cholesky::factor(&spd3()).unwrap();
        assert!(chol.solve(&[1.0, 2.0]).is_err());
        assert!(chol.solve_mat(&DenseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn one_by_one_matrix() {
        let a = DenseMatrix::from_rows(&[&[4.0]]).unwrap();
        let chol = Cholesky::factor(&a).unwrap();
        assert_eq!(chol.solve(&[8.0]).unwrap(), vec![2.0]);
        assert!((chol.log_det() - 4.0_f64.ln()).abs() < 1e-14);
    }

    #[test]
    fn ordered_analysis_follows_the_given_order() {
        let a = CsrMatrix::from_dense(&chain(6));
        let amd = CholeskyPattern::analyse_csr(&a).unwrap();
        let order = amd.permutation().to_vec();
        let same = CholeskyPattern::analyse_csr_ordered(&a, &order).unwrap();
        assert_eq!(same.permutation(), amd.permutation());
        assert_eq!(same.nnz_l(), amd.nnz_l());
        // Eliminating the middle of a chain first fills in.
        let middle_first = [2, 3, 0, 1, 4, 5];
        let filled = CholeskyPattern::analyse_csr_ordered(&a, &middle_first).unwrap();
        assert_eq!(filled.permutation(), &middle_first);
        assert!(filled.nnz_l() > amd.nnz_l());
        let chol = Cholesky::factor_csr_with(&Arc::new(filled), &a).unwrap();
        let oracle = DenseCholesky::factor(&chain(6)).unwrap();
        let b = [1.0, -2.0, 0.5, 3.0, 0.0, 1.5];
        for (u, v) in chol
            .solve(&b)
            .unwrap()
            .iter()
            .zip(oracle.solve(&b).unwrap())
        {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn ordered_analysis_rejects_a_non_permutation() {
        let a = CsrMatrix::from_dense(&chain(4));
        for bad in [
            &[0, 1, 2][..],
            &[0, 1, 2, 3, 4],
            &[0, 1, 1, 3],
            &[0, 1, 2, 4],
        ] {
            assert!(
                matches!(
                    CholeskyPattern::analyse_csr_ordered(&a, bad),
                    Err(LinalgError::InvalidInput(_))
                ),
                "{bad:?}"
            );
        }
        let rect = CsrMatrix::from_parts(2, 3, vec![0, 0, 0], Vec::new(), Vec::new());
        assert!(matches!(
            CholeskyPattern::analyse_csr_ordered(&rect, &[0, 1]),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
