// Command fdscan discovers functional dependencies in a legacy database:
// query-guided (the paper's RHS-Discovery seeded by program-derived
// candidates) or exhaustively (TANE-style level-wise search).
//
// Usage:
//
//	fdscan -schema legacy.sql -data dir -programs dir       # query-guided
//	fdscan -schema legacy.sql -data dir -exhaustive [-maxlhs 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dbre"
	"dbre/internal/expert"
	"dbre/internal/fd"
	"dbre/internal/ind"
	"dbre/internal/restruct"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fdscan", flag.ContinueOnError)
	schema := fs.String("schema", "", "DDL file")
	data := fs.String("data", "", "directory of <relation>.csv extension files")
	programs := fs.String("programs", "", "directory of application programs (query-guided mode)")
	exhaustive := fs.Bool("exhaustive", false, "exhaustive level-wise discovery instead")
	maxLHS := fs.Int("maxlhs", 2, "exhaustive mode: maximum left-hand-side size")
	skipKeys := fs.Bool("skip-keys", false, "exhaustive mode: exclude declared key attributes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schema == "" {
		fs.Usage()
		return fmt.Errorf("-schema is required")
	}
	db, err := dbre.LoadSQLFile(*schema)
	if err != nil {
		return err
	}
	if *data != "" {
		if _, err := dbre.LoadCSVDir(db, *data); err != nil {
			return err
		}
	}

	switch {
	case *exhaustive:
		res, err := fd.DiscoverBaselineAll(db, fd.BaselineOptions{MaxLHS: *maxLHS, SkipKeys: *skipKeys})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "exhaustive: %d candidates tested, %d pruned, %d minimal FDs\n",
			res.CandidatesTested, res.CandidatesPruned, len(res.FDs))
		for _, f := range res.FDs {
			fmt.Fprintln(out, " ", f)
		}
	case *programs != "":
		q, _, err := dbre.ScanProgramsDir(db, *programs)
		if err != nil {
			return err
		}
		oracle := expert.NewAuto()
		indRes, err := ind.DiscoverCtx(context.Background(), db, q, oracle, ind.Opts{})
		if err != nil {
			return err
		}
		inS := map[string]bool{}
		for _, n := range indRes.NewRelations {
			inS[n] = true
		}
		lhsRes, err := restruct.DiscoverLHS(db.Catalog(), indRes.INDs, func(n string) bool { return inS[n] })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "query-guided: |Q|=%d, %d candidate left-hand sides, %d hidden seeds\n",
			q.Len(), len(lhsRes.LHS), len(lhsRes.Hidden))
		res, err := fd.DiscoverRHSCtx(context.Background(), db, lhsRes.LHS, lhsRes.Hidden, oracle, fd.Opts{})
		if err != nil {
			return err
		}
		for _, tr := range res.Traces {
			fmt.Fprintln(out, " ", tr)
		}
		fmt.Fprintf(out, "elicited %d FDs with %d extension checks:\n", len(res.FDs), res.ExtensionChecks)
		for _, f := range res.FDs {
			fmt.Fprintln(out, " ", f)
		}
		fmt.Fprintf(out, "hidden objects (%d):\n", len(res.Hidden))
		for _, h := range res.Hidden {
			fmt.Fprintln(out, " ", h)
		}
	default:
		return fmt.Errorf("need -programs (query-guided) or -exhaustive")
	}
	return nil
}
