// Oracle comparison: "application programs as oracles" (the paper's
// Discussion section) — compare query-guided dependency elicitation
// against exhaustive data-only discovery on the same database.
//
// The exhaustive miners see only the extension; the paper's method also
// reads the programs and therefore tests a few targeted candidates instead
// of the whole attribute-pair / attribute-lattice space, and it surfaces
// only the dependencies the application actually navigates, not every
// coincidence the data happens to satisfy.
//
// Run it with:
//
//	go run ./examples/oracle-comparison
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dbre"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/paperex"
	"dbre/internal/restruct"
)

func main() {
	// -------- query-guided (the paper's method) --------
	db := paperex.Database()
	q, _ := dbre.ScanPrograms(db, paperex.Programs)

	start := time.Now()
	guidedIND, err := ind.DiscoverCtx(context.Background(), db, q, paperex.Oracle(), ind.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	inS := map[string]bool{}
	for _, n := range guidedIND.NewRelations {
		inS[n] = true
	}
	lhs, err := restruct.DiscoverLHS(db.Catalog(), guidedIND.INDs, func(n string) bool { return inS[n] })
	if err != nil {
		log.Fatal(err)
	}
	guidedFD, err := fd.DiscoverRHSCtx(context.Background(), db, lhs.LHS, lhs.Hidden, paperex.Oracle(), fd.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	guidedTime := time.Since(start)

	// -------- exhaustive, data only --------
	db2 := paperex.Database()
	start = time.Now()
	exhIND, err := ind.DiscoverBaseline(db2, ind.DefaultBaselineOptions())
	if err != nil {
		log.Fatal(err)
	}
	exhFD, err := fd.DiscoverBaselineAll(db2, fd.BaselineOptions{MaxLHS: 1, SkipKeys: true})
	if err != nil {
		log.Fatal(err)
	}
	exhTime := time.Since(start)

	fmt.Println("QUERY-GUIDED (programs as oracles)")
	fmt.Printf("  extension queries: %d (IND) + %d (FD)\n",
		guidedIND.ExtensionQueries, guidedFD.ExtensionChecks)
	fmt.Printf("  wall time: %v\n", guidedTime)
	fmt.Printf("  inclusion dependencies (%d):\n", guidedIND.INDs.Len())
	for _, d := range guidedIND.INDs.Sorted() {
		fmt.Println("   ", d)
	}
	fmt.Printf("  functional dependencies (%d):\n", len(guidedFD.FDs))
	for _, f := range guidedFD.FDs {
		fmt.Println("   ", f)
	}

	fmt.Println("\nEXHAUSTIVE (extension only)")
	fmt.Printf("  candidates tested: %d of %d unary IND pairs; %d FD checks\n",
		exhIND.CandidatesTested, ind.CandidateSpace(db2), exhFD.CandidatesTested)
	fmt.Printf("  wall time: %v\n", exhTime)
	fmt.Printf("  inclusion dependencies (%d):\n", exhIND.INDs.Len())
	for _, d := range exhIND.INDs.Sorted() {
		fmt.Println("   ", d)
	}
	fmt.Printf("  functional dependencies (%d, minimal, LHS=1):\n", len(exhFD.FDs))
	for _, f := range exhFD.FDs {
		fmt.Println("   ", f)
	}

	// What did the data-only view add beyond the navigated dependencies?
	fmt.Println("\nEXHAUSTIVE-ONLY FINDINGS (coincidences the programs never navigate)")
	guidedSet := map[string]bool{}
	for _, d := range guidedIND.INDs.All() {
		guidedSet[d.Key()] = true
	}
	extras := 0
	for _, d := range exhIND.INDs.Sorted() {
		if !guidedSet[d.Key()] {
			fmt.Println("  IND", d)
			extras++
		}
	}
	fmt.Printf("  (%d extra INDs — none is navigated by any program, so none\n", extras)
	fmt.Println("   carries conceptual weight; this is the paper's argument for")
	fmt.Println("   using the application programs as oracles)")
}
