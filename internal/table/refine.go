// Partition-refinement kernel: the inner loop of every multi-attribute
// projection. One refinement step intersects the current row → group-id
// vector with one column's code vector, assigning fresh dense ids in
// first-occurrence row order — exactly the numbering hashing the rows'
// composite keys in row order produces, so refined partitions are the
// definition's whichever kernel path runs.
//
// Two remapping strategies implement the step:
//
//   - dense: when groups × dict fits a budget, the pair (group id, code)
//     is remapped through a direct-addressed []int32 table (sentinel −1).
//     One array read replaces a hash probe per row; the table is restored
//     to all −1 afterwards by walking the representative rows, so the
//     reset costs O(groups out), not O(groups × dict).
//   - map: the sparse fallback for large products, the pre-overhaul
//     map[int64]int32 probe. The map is cleared and reused across steps.
//
// Both strategies assign ids in first-occurrence order, so which one runs
// is unobservable in the results — the property/fuzz tests in
// refine_test.go and the engine differential harness pin this.
//
// Scratch pooling: a Refiner owns every reusable buffer of the kernel
// (the dense table, the remap map, two alternating intermediate group
// vectors, the representative-row list). Projection builds borrow a
// Refiner from a package-level free list, so steady-state refinement
// allocates only what the resulting Projection retains; the Step kernel
// itself is 0 allocs/op (pinned by internal/stats/alloc_test.go).
package table

import (
	"sync"
	"sync/atomic"
)

// refineDenseBudget caps the groups × dict product the dense strategy
// will direct-address; larger products fall back to the map. The default
// admits any product up to denseRowFactor × rows (a refinement step
// reads every row anyway, so scratch proportional to the row count is
// already paid for) plus a floor that keeps small tables always dense.
// It is atomic so tests and the B12 ablation can force either path.
var refineDenseBudget atomic.Int64

// denseRowFactor scales the row-proportional part of the default budget.
const denseRowFactor = 4

// denseFloor is the product always admitted regardless of table size.
const denseFloor = 1 << 14

func init() { refineDenseBudget.Store(-1) }

// SetRefineDenseBudget overrides the dense-remapping budget and returns
// the previous setting: 0 forces the map strategy (the pre-overhaul
// kernel), a positive value is an absolute groups × dict cap, and −1
// restores the default row-proportional budget. It exists for the B12
// ablation and the kernel-path equivalence tests; results are identical
// under any setting.
func SetRefineDenseBudget(budget int64) int64 {
	return refineDenseBudget.Swap(budget)
}

// denseOK reports whether a step with the given product may use the
// direct-addressed table for a table of n rows.
func denseOK(product int64, n int) bool {
	switch budget := refineDenseBudget.Load(); {
	case budget == 0:
		return false
	case budget > 0:
		return product <= budget
	default:
		return product <= denseRowFactor*int64(n)+denseFloor
	}
}

// Refiner holds the reusable scratch of the refinement kernel. The zero
// value is ready to use; a Refiner is not safe for concurrent use. Reuse
// one across steps (or borrow the package pool via projection builds) to
// refine without allocating.
type Refiner struct {
	dense []int32         // direct-addressed remap table, kept all −1
	remap map[int64]int32 // sparse fallback, cleared per step
	reps  []int32         // group id → first-occurrence row of the last Step
	bufA  []int32         // alternating intermediate group vectors
	bufB  []int32
	flip  bool
	// denseSteps/mapSteps count which strategy each Step chose, for the
	// kernel observability counters.
	denseSteps, mapSteps int64
}

// refinerPool is the package-level arena of Refiners. A mutex-guarded
// free list rather than a sync.Pool: Get and Put move pre-existing
// pointers, so the steady state allocates nothing at all.
var refinerPool struct {
	mu   sync.Mutex
	free []*Refiner
}

func acquireRefiner() *Refiner {
	refinerPool.mu.Lock()
	defer refinerPool.mu.Unlock()
	if n := len(refinerPool.free); n > 0 {
		r := refinerPool.free[n-1]
		refinerPool.free = refinerPool.free[:n-1]
		return r
	}
	return &Refiner{}
}

func releaseRefiner(r *Refiner) {
	r.denseSteps, r.mapSteps = 0, 0
	refinerPool.mu.Lock()
	refinerPool.free = append(refinerPool.free, r)
	refinerPool.mu.Unlock()
}

// Step refines the group vector g (groups distinct ids, −1 for NULL
// rows) by the code vector codes (dict distinct codes, −1 for NULL),
// writing the refined ids into dst and returning the refined group count
// together with the representative rows (refined id → first-occurrence
// row index). dst must have len(g) and must not alias g; the returned
// slice is the Refiner's scratch, valid only until the next Step.
func (r *Refiner) Step(dst, g, codes []int32, groups, dict int) (int, []int32) {
	n := len(g)
	_ = dst[:n]
	_ = codes[:n]
	r.reps = r.reps[:0]
	product := int64(groups) * int64(dict)
	if denseOK(product, n) {
		r.denseSteps++
		r.stepDense(dst, g, codes, int(product), dict)
	} else {
		r.mapSteps++
		r.stepMap(dst, g, codes, int64(dict))
	}
	return len(r.reps), r.reps
}

// stepDense is the direct-addressed strategy. The dense table is kept
// all −1 between uses: it is grown (and filled) lazily, and restored
// after the row pass by revisiting only the slots the representative
// rows touched.
func (r *Refiner) stepDense(dst, g, codes []int32, product, dict int) {
	if len(r.dense) < product {
		old := len(r.dense)
		r.dense = append(r.dense[:old:old], make([]int32, product-old)...)
		for i := old; i < product; i++ {
			r.dense[i] = -1
		}
	}
	dense := r.dense
	for i := range g {
		gi, ci := g[i], codes[i]
		if gi < 0 || ci < 0 {
			dst[i] = nullCode
			continue
		}
		k := int(gi)*dict + int(ci)
		id := dense[k]
		if id < 0 {
			id = int32(len(r.reps))
			dense[k] = id
			r.reps = append(r.reps, int32(i))
		}
		dst[i] = id
	}
	for _, ri := range r.reps {
		dense[int(g[ri])*dict+int(codes[ri])] = -1
	}
}

// stepMap is the sparse fallback: the pre-overhaul per-row hash probe,
// with the map cleared and reused across steps instead of re-made.
func (r *Refiner) stepMap(dst, g, codes []int32, dict int64) {
	if r.remap == nil {
		r.remap = make(map[int64]int32)
	} else {
		clear(r.remap)
	}
	remap := r.remap
	for i := range g {
		gi, ci := g[i], codes[i]
		if gi < 0 || ci < 0 {
			dst[i] = nullCode
			continue
		}
		k := int64(gi)*dict + int64(ci)
		id, ok := remap[k]
		if !ok {
			id = int32(len(remap))
			remap[k] = id
			r.reps = append(r.reps, int32(i))
		}
		dst[i] = id
	}
}

// scratchVec returns an intermediate group vector of length n, rotating
// between two owned buffers so the previous step's output (the current
// input) is never overwritten.
func (r *Refiner) scratchVec(n int) []int32 {
	buf := &r.bufA
	if r.flip {
		buf = &r.bufB
	}
	r.flip = !r.flip
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}
