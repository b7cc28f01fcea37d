//! Column assignment (§3.2.1): load-balancing the tile columns of `B`
//! across the `q` nodes of a grid row.
//!
//! Columns are sorted by non-decreasing flop weight and dealt in a
//! *mirrored cyclic* (boustrophedon) order: the first `q` columns go to
//! nodes `0,1,…,q−1`, the next `q` to `q−1,…,1,0`, and so on — the reverse
//! pass compensates the imbalance of the forward pass.

use crate::spec::ProblemSpec;

/// Flop weight `f_j` of every tile column of `B`, restricted to the grid-row
/// slice `i ≡ row_rem (mod p)` of `A` and to kept `C` destinations.
pub fn column_weights(spec: &ProblemSpec, row_rem: usize, p: usize) -> Vec<u128> {
    // Pre-aggregate, per inner index k, the A-column mass within the slice:
    // rows are weighted by height. (When C is screened we need per-row
    // detail, so keep the row lists.)
    let a = &spec.a;
    let b = &spec.b;
    let slice_rows: Vec<Vec<usize>> = (0..a.tile_cols())
        .map(|k| {
            a.col_rows(k)
                .iter()
                .map(|&i| i as usize)
                .filter(|i| i % p == row_rem)
                .collect()
        })
        .collect();
    let screened = spec.c_shape.is_some();
    let mass: Vec<u64> = slice_rows
        .iter()
        .map(|rows| rows.iter().map(|&i| a.row_tiling().size(i)).sum())
        .collect();

    (0..b.tile_cols())
        .map(|j| {
            let nj = b.col_tiling().size(j) as u128;
            let mut w: u128 = 0;
            for &k in b.col_rows(j) {
                let k = k as usize;
                let kk = a.col_tiling().size(k) as u128;
                if screened {
                    let m: u64 = slice_rows[k]
                        .iter()
                        .filter(|&&i| spec.c_kept(i, j))
                        .map(|&i| a.row_tiling().size(i))
                        .sum();
                    w += 2 * nj * kk * m as u128;
                } else {
                    w += 2 * nj * kk * mass[k] as u128;
                }
            }
            w
        })
        .collect()
}

/// Mirrored-cyclic assignment of columns to `q` nodes given per-column
/// weights (the paper's §3.2.1). Returns, for each node, its column list
/// (ascending column index) and the per-node total weights.
pub fn assign_columns(weights: &[u128], q: usize) -> (Vec<Vec<usize>>, Vec<u128>) {
    assign_columns_policy(weights, q, crate::config::AssignPolicy::MirroredCyclic)
}

/// Column assignment under a selectable heuristic (see
/// [`crate::config::AssignPolicy`]); the non-default policies exist for the
/// ablation study of the paper's design choices.
pub fn assign_columns_policy(
    weights: &[u128],
    q: usize,
    policy: crate::config::AssignPolicy,
) -> (Vec<Vec<usize>>, Vec<u128>) {
    use crate::config::AssignPolicy;
    assert!(q >= 1);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Non-decreasing weight; ties broken by column index for determinism.
    order.sort_by(|&a, &b| weights[a].cmp(&weights[b]).then(a.cmp(&b)));

    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); q];
    let mut totals = vec![0u128; q];
    match policy {
        AssignPolicy::MirroredCyclic => {
            for (pos, &j) in order.iter().enumerate() {
                let round = pos / q;
                let slot = pos % q;
                let node = if round.is_multiple_of(2) { slot } else { q - 1 - slot };
                cols[node].push(j);
                totals[node] += weights[j];
            }
        }
        AssignPolicy::Cyclic => {
            for (pos, &j) in order.iter().enumerate() {
                let node = pos % q;
                cols[node].push(j);
                totals[node] += weights[j];
            }
        }
        AssignPolicy::Lpt => {
            // Heaviest column first, to the currently least-loaded node
            // (ties: lowest node index).
            for &j in order.iter().rev() {
                let node = (0..q).min_by_key(|&n| (totals[n], n)).unwrap();
                cols[node].push(j);
                totals[node] += weights[j];
            }
        }
    }
    for c in &mut cols {
        c.sort_unstable();
    }
    (cols, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_sparse::MatrixStructure;
    use bst_tile::Tiling;

    #[test]
    fn mirrored_pattern() {
        // Nine columns with weights equal to their index, three nodes.
        let w: Vec<u128> = (0..9).collect();
        let (cols, totals) = assign_columns(&w, 3);
        // Sorted order = 0..9; forward 0,1,2 → nodes 0,1,2; reverse 3,4,5 →
        // nodes 2,1,0; forward 6,7,8 → 0,1,2.
        assert_eq!(cols[0], vec![0, 5, 6]);
        assert_eq!(cols[1], vec![1, 4, 7]);
        assert_eq!(cols[2], vec![2, 3, 8]);
        assert_eq!(totals, vec![11, 12, 13]);
    }

    #[test]
    fn mirroring_balances_better_than_cyclic() {
        // Linearly growing weights: mirrored deal keeps totals within one
        // "step" of each other, plain cyclic drifts by q·steps.
        let w: Vec<u128> = (0..1000).collect();
        let q = 7;
        let (_, totals) = assign_columns(&w, q);
        let max = *totals.iter().max().unwrap();
        let min = *totals.iter().min().unwrap();
        assert!(
            max - min <= 1000,
            "mirrored assignment spread too large: {}",
            max - min
        );
    }

    #[test]
    fn all_columns_assigned_once() {
        let w: Vec<u128> = vec![5; 13];
        let (cols, _) = assign_columns(&w, 4);
        let mut seen = [false; 13];
        for c in &cols {
            for &j in c {
                assert!(!seen[j], "column {j} assigned twice");
                seen[j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_policies_cover_every_column() {
        use crate::config::AssignPolicy;
        let w: Vec<u128> = (0..37).map(|i| (i * 13) % 50).collect();
        for policy in [
            AssignPolicy::MirroredCyclic,
            AssignPolicy::Cyclic,
            AssignPolicy::Lpt,
        ] {
            let (cols, totals) = assign_columns_policy(&w, 5, policy);
            let mut seen = vec![false; w.len()];
            for c in &cols {
                for &j in c {
                    assert!(!seen[j], "{policy:?}: column {j} twice");
                    seen[j] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{policy:?}: column lost");
            assert_eq!(totals.iter().sum::<u128>(), w.iter().sum::<u128>());
        }
    }

    #[test]
    fn lpt_at_least_as_balanced_as_cyclic() {
        use crate::config::AssignPolicy;
        // Heavily skewed weights: LPT should not be worse than plain cyclic.
        let w: Vec<u128> = (0..40).map(|i| if i % 7 == 0 { 500 } else { 3 }).collect();
        let spread = |policy| {
            let (_, totals) = assign_columns_policy(&w, 6, policy);
            totals.iter().max().unwrap() - totals.iter().min().unwrap()
        };
        assert!(spread(AssignPolicy::Lpt) <= spread(AssignPolicy::Cyclic));
    }

    #[test]
    fn single_node_gets_everything() {
        let w: Vec<u128> = vec![1, 2, 3];
        let (cols, totals) = assign_columns(&w, 1);
        assert_eq!(cols[0], vec![0, 1, 2]);
        assert_eq!(totals[0], 6);
    }

    fn spec() -> ProblemSpec {
        let mut a = MatrixStructure::dense(Tiling::from_sizes(&[2, 2]), Tiling::from_sizes(&[3, 3]));
        let mut b = MatrixStructure::dense(Tiling::from_sizes(&[3, 3]), Tiling::from_sizes(&[4, 4]));
        a.shape_mut().zero_out(0, 1); // A(0,1) = 0
        b.shape_mut().zero_out(1, 0); // B(1,0) = 0
        ProblemSpec::new(a, b, None)
    }

    #[test]
    fn weights_count_slice_flops() {
        let s = spec();
        let w = column_weights(&s, 0, 1);
        // Column 0: only k=0 (B(1,0)=0): 2*4*3*(2+2) = 96.
        assert_eq!(w[0], 96);
        // Column 1: k=0: 96; k=1: A col 1 has row 1 only → 2*4*3*2 = 48.
        assert_eq!(w[1], 144);
        // Sum over slices equals full weight.
        let w0 = column_weights(&s, 0, 2);
        let w1 = column_weights(&s, 1, 2);
        assert_eq!(w0[0] + w1[0], w[0]);
        assert_eq!(w0[1] + w1[1], w[1]);
    }

    #[test]
    fn weights_sum_matches_product_flops() {
        let s = spec();
        let w = column_weights(&s, 0, 1);
        let total: u128 = w.iter().sum();
        assert_eq!(total, bst_sparse::structure::product_flops(&s.a, &s.b));
    }

    #[test]
    fn screened_weights_not_larger() {
        let mut s = spec();
        let mut cs = bst_sparse::SparseShape::dense(2, 2);
        cs.zero_out(0, 1);
        s.c_shape = Some(cs);
        let w = column_weights(&s, 0, 1);
        // Column 1 loses the i=0 contributions: k=0 → rows {0,1} minus 0 ⇒
        // 2*4*3*2 = 48; k=1 → row 1 kept ⇒ 48. Total 96.
        assert_eq!(w[1], 96);
    }
}
