// Command indscan discovers inclusion dependencies in a legacy database,
// either the paper's way (query-guided: equi-joins from application
// programs checked against the extension) or exhaustively from the data
// alone (the baseline the method is compared with).
//
// Usage:
//
//	indscan -schema legacy.sql -data dir -programs dir      # query-guided
//	indscan -schema legacy.sql -data dir -exhaustive [-arity 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dbre"
	"dbre/internal/expert"
	"dbre/internal/ind"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "indscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("indscan", flag.ContinueOnError)
	schema := fs.String("schema", "", "DDL file")
	data := fs.String("data", "", "directory of <relation>.csv extension files")
	programs := fs.String("programs", "", "directory of application programs (query-guided mode)")
	exhaustive := fs.Bool("exhaustive", false, "exhaustive data-driven discovery instead")
	arity := fs.Int("arity", 1, "exhaustive mode: maximum IND arity")
	keysOnly := fs.Bool("keys-only", false, "exhaustive mode: restrict right-hand sides to keys")
	verify := fs.Bool("verify", false, "re-verify each elicited IND against the extension")
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
		opts := ind.BaselineOptions{MaxArity: *arity, TypePruning: true, KeysOnlyRHS: *keysOnly}
		res, err := ind.DiscoverBaseline(db, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "exhaustive: %d candidates tested, %d pruned, candidate space %d\n",
			res.CandidatesTested, res.CandidatesPruned, ind.CandidateSpace(db))
		for _, d := range res.INDs.Sorted() {
			fmt.Fprintln(out, " ", d)
		}
	case *programs != "":
		q, scan, err := dbre.ScanProgramsDir(db, *programs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "query-guided: files=%d statements=%d |Q|=%d\n",
			scan.FilesScanned, scan.StatementsFound, q.Len())
		res, err := ind.DiscoverCtx(context.Background(), db, q, expert.NewAuto(), ind.Opts{})
		if err != nil {
			return err
		}
		for _, o := range res.Outcomes {
			fmt.Fprintln(out, " ", o)
		}
		fmt.Fprintf(out, "elicited %d inclusion dependencies with %d extension queries:\n",
			res.INDs.Len(), res.ExtensionQueries)
		for _, d := range res.INDs.Sorted() {
			fmt.Fprintln(out, " ", d)
		}
		if *verify {
			bad, err := ind.Verify(db, res.INDs)
			if err != nil {
				return err
			}
			for _, d := range bad {
				fmt.Fprintf(out, "VIOLATED by extension: %s\n", d)
			}
			if len(bad) == 0 {
				fmt.Fprintln(out, "all elicited INDs hold on the extension")
			}
		}
	default:
		return fmt.Errorf("need -programs (query-guided) or -exhaustive")
	}
	return nil
}
