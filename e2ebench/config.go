package main

import (
	"math/rand"
	"time"

	"dbre"
	"dbre/internal/table"
	"dbre/internal/workload"
)

// The fixed settings every run is measured under. Both sides of a
// comparison build this file from their own checkout, so a change here
// is a change of benchmark, not of program.
const (
	// defaultSeed and heldOutSeed both pass every correctness check.
	defaultSeed = 42
	heldOutSeed = 7
	// shapeSeed fixes the generated schema shape (see generate).
	shapeSeed = 42

	// clients is the closed-loop client count of the serve workloads:
	// one process, at most nproc client goroutines.
	clients = 2
	// parallelism is the pipeline and ingest fan-out (nproc).
	parallelism = 2
	// pollInterval is the client's job-status poll period; it must stay
	// well below the served job latency it resolves.
	pollInterval = 200 * time.Microsecond
	// setupReps is how many times each run sets up; setup_s is the median.
	setupReps = 5

	// wideFactRows sizes the wide shape: 8 fact relations of this many
	// tuples each.
	wideFactRows = 2500
	// servingFactRows sizes the serving shape: 4 fact relations.
	servingFactRows = 25000
	// appendRows is the size of one served append batch, appendEvery the
	// writer's pace (a fixed pace makes the dataset's growth identical
	// from run to run), and breakEvery spaces the batches that break a
	// planted dependency.
	appendRows  = 40
	appendEvery = 10 * time.Millisecond
	breakEvery  = 25
)

// generate builds a workload of the given shape with its tuples in an
// order drawn from the seed. The shape — which links exist, which are
// embedded, dropped or composite — comes from the fixed shapeSeed, so
// every seed measures the same work; the seed reorders every relation's
// tuples, which moves CSV chunk boundaries, dictionary codes, sketch
// samples and the tuples the served appends clone.
func generate(spec workload.Spec, seed int64) (*workload.Workload, error) {
	spec.Seed = shapeSeed
	wl, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	db := table.NewDatabase(wl.DB.Catalog())
	for _, name := range wl.DB.Catalog().Names() {
		src, dst := wl.DB.MustTable(name), db.MustTable(name)
		for _, i := range rng.Perm(src.Len()) {
			dst.MustInsert(src.Row(i))
		}
	}
	wl.DB = db
	wl.Spec.Seed = seed
	return wl, nil
}

// wideSpec is the wide shape: many relations, composite keys, embedded
// and dropped dimensions, dirty links, and near-/far-miss columns for the
// sketch tier.
func wideSpec() workload.Spec {
	return workload.Spec{
		Dimensions: 12, Facts: 8, FKsPerFact: 4, AttrsPerDimension: 4,
		DimensionRows: 2000, FactRows: wideFactRows, CompositeDims: 3,
		EmbedProb: 0.8, DropProb: 0.3, Corruption: 0.01,
		NearMissAttrs: 2, NearMissNoise: 0.002, FarMissAttrs: 4, ProgramsPerJoin: 1,
	}
}

// servingSpec is the resident-pool serving shape (clean links, composite
// keys, light embedding): IND- and projection-dominated.
func servingSpec() workload.Spec {
	spec := workload.DefaultSpec(shapeSeed)
	spec.FactRows = servingFactRows
	spec.Corruption = 0
	spec.CompositeDims = 2
	spec.EmbedProb = 0.1
	return spec
}

// serverConfig is the job server's fixed configuration. TTL bounds how
// long finished jobs (and the pool pins of incremental ones) are
// retained, which bounds the serve workloads' heap.
func serverConfig(root string) dbre.ServerConfig {
	return dbre.ServerConfig{
		Workers:          2,
		QueueDepth:       32,
		TTL:              2 * time.Second,
		MaxJobBytes:      256 << 20,
		MaxResidentBytes: 1 << 30,
		DatasetRoot:      root,
	}
}
