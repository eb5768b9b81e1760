package dbre

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dbre/internal/relation"
	"dbre/internal/table"
)

// The definition-level oracle of the counting phases. It reads tuples
// with tab.Row(i) and counts with plain Go maps — no stats, fd or ind
// code — so it states what IND- and RHS-Discovery must compute, not how:
//
//   - N_k, N_l and N_kl of an equi-join r_k[A_k] = r_l[A_l] (§6.1) are
//     the cardinalities of the two projections and of their
//     intersection, leaving out projected tuples that carry a NULL;
//   - the support of A → b (§6.2.2) is the pair (rows, violations):
//     rows counts the tuples with no NULL in A, violations sums, over the
//     A-groups, the group size minus the count of its majority b value,
//     a NULL b being one regular value;
//   - the checks of candidate A of R_i are b ∈ X_i − A − K_i, minus N_i
//     when A ⊄ N_i;
//   - a binary relationship R(N) — S(1) realized by R[F] ≪ S[T] gets
//     its N leg marked 1 when the tuples of R with no NULL in F are as
//     many as ‖R[F]‖ (and some exist), the N leg Optional when some
//     tuple of R has a NULL in F, and the 1 leg Optional when
//     ‖R[F] ⋈ S[T]‖ < ‖S[T]‖.

// oracleProjection is the set of NULL-free value combinations of tab
// over attrs, keyed by the concatenated value keys.
func oracleProjection(tab *table.Table, attrs []string) (map[string]bool, error) {
	cols, err := oracleCols(tab, attrs)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for i := 0; i < tab.Len(); i++ {
		if key, ok := oracleKey(tab.Row(i), cols); ok {
			set[key] = true
		}
	}
	return set, nil
}

// oracleJoinCounts returns N_k, N_l and N_kl of r_k[ak] = r_l[al].
func oracleJoinCounts(tk *table.Table, ak []string, tl *table.Table, al []string) (nk, nl, nkl int, err error) {
	pk, err := oracleProjection(tk, ak)
	if err != nil {
		return 0, 0, 0, err
	}
	pl, err := oracleProjection(tl, al)
	if err != nil {
		return 0, 0, 0, err
	}
	for key := range pk {
		if pl[key] {
			nkl++
		}
	}
	return len(pk), len(pl), nkl, nil
}

// oracleNonNull counts the tuples of tab with no NULL among attrs.
func oracleNonNull(tab *table.Table, attrs []string) (int, error) {
	cols, err := oracleCols(tab, attrs)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < tab.Len(); i++ {
		if _, ok := oracleKey(tab.Row(i), cols); ok {
			n++
		}
	}
	return n, nil
}

// oracleSupport returns the (rows, violations) support of lhs → rhs.
func oracleSupport(tab *table.Table, lhs []string, rhs string) (rows, violations int, err error) {
	cols, err := oracleCols(tab, lhs)
	if err != nil {
		return 0, 0, err
	}
	rcol, err := oracleCols(tab, []string{rhs})
	if err != nil {
		return 0, 0, err
	}
	groups := make(map[string]map[string]int) // A value → b value → tuples
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		key, ok := oracleKey(row, cols)
		if !ok {
			continue
		}
		rows++
		if groups[key] == nil {
			groups[key] = make(map[string]int)
		}
		groups[key][row[rcol[0]].Key()]++
	}
	for _, counts := range groups {
		size, majority := 0, 0
		for _, n := range counts {
			size += n
			if n > majority {
				majority = n
			}
		}
		violations += size - majority
	}
	return rows, violations, nil
}

// oracleChecks returns the attributes b RHS-Discovery must test against
// candidate cand of relation schema s, given the relation's key K_i and
// its null-not-allowed attributes N_i.
func oracleChecks(s *relation.Schema, cand relation.Ref, key, notNull map[string]bool) []string {
	inA := make(map[string]bool)
	aInN := true
	for _, a := range cand.Attrs.Names() {
		inA[a] = true
		aInN = aInN && notNull[a]
	}
	var out []string
	for _, a := range s.Attrs {
		b := a.Name
		if inA[b] || key[b] || (!aInN && notNull[b]) {
			continue
		}
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

func oracleCols(tab *table.Table, attrs []string) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, ok := tab.ColIndex(a)
		if !ok {
			return nil, fmt.Errorf("oracle: relation %s has no attribute %q", tab.Schema().Name, a)
		}
		cols[i] = c
	}
	return cols, nil
}

// oracleKey concatenates the row's length-prefixed value keys over cols;
// ok is false when one of them is NULL.
func oracleKey(row table.Row, cols []int) (string, bool) {
	var b strings.Builder
	for _, c := range cols {
		if row[c].IsNull() {
			return "", false
		}
		k := row[c].Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String(), true
}
