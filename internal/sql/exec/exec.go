// Package exec applies the parsed SQL subset to the in-memory engine. It
// loads a database — DDL, INSERTs and verified constraint declarations,
// i.e. it reconstructs (R, E) from a dictionary dump. It evaluates no
// queries: the method's extension queries are counts, and they go
// through stats.Cache; application programs are only parsed (appscan).
package exec

import (
	"errors"
	"fmt"

	"dbre/internal/relation"
	"dbre/internal/sql/ast"
	"dbre/internal/sql/parser"
	"dbre/internal/stats"
	"dbre/internal/table"
	"dbre/internal/value"
)

// LoadScript parses and executes a script of CREATE TABLE / ALTER TABLE /
// INSERT statements against a fresh database. Any other statement,
// SELECT included, is reported as an error and skipped. It returns the
// database and any statement-level errors.
func LoadScript(src string) (*table.Database, []error) {
	db := table.NewDatabase(relation.MustCatalog())
	stmts, errs := parser.ParseScript(src)
	for _, s := range stmts {
		if err := Exec(db, s); err != nil {
			errs = append(errs, err)
		}
	}
	return db, errs
}

// Exec applies a statement to the database. SELECT is rejected — the
// loader evaluates no queries — and so are UPDATE and DELETE: the method
// observes a database in operation, it never modifies it.
func Exec(db *table.Database, stmt ast.Statement) error {
	switch s := stmt.(type) {
	case *ast.CreateTable:
		return execCreate(db, s)
	case *ast.AlterTable:
		return execAlter(db, s)
	case *ast.Insert:
		return execInsert(db, s)
	case *ast.Select:
		return fmt.Errorf("exec: not a loading statement: %s", stmt)
	case *ast.Update, *ast.Delete:
		return fmt.Errorf("exec: refusing to modify the database under analysis: %s", stmt)
	default:
		return fmt.Errorf("exec: unsupported statement %T", stmt)
	}
}

func execCreate(db *table.Database, s *ast.CreateTable) error {
	attrs := make([]relation.Attribute, len(s.Columns))
	var uniques []relation.AttrSet
	for i, c := range s.Columns {
		attrs[i] = relation.Attribute{Name: c.Name, Type: c.Kind, NotNull: c.NotNull}
		if c.Unique {
			uniques = append(uniques, relation.NewAttrSet(c.Name))
		}
	}
	for _, u := range s.Uniques {
		uniques = append(uniques, relation.NewAttrSet(u...))
	}
	schema, err := relation.NewSchema(s.Name, attrs, uniques...)
	if err != nil {
		return err
	}
	return db.AddRelation(schema)
}

// execAlter applies an added constraint, verifying it against the current
// extension first: a declaration the data refutes is an error, matching
// what a DBMS would do.
func execAlter(db *table.Database, s *ast.AlterTable) error {
	tab, ok := db.Table(s.Table)
	if !ok {
		return fmt.Errorf("exec: ALTER of unknown relation %q", s.Table)
	}
	switch {
	case len(s.Unique) > 0 || len(s.PrimaryKey) > 0:
		cols := s.Unique
		if len(cols) == 0 {
			cols = s.PrimaryKey
		}
		u := relation.NewAttrSet(cols...)
		okU, a, b, err := tab.CheckUnique(u)
		if err != nil {
			return err
		}
		if !okU {
			return fmt.Errorf("exec: %s: UNIQUE(%v) violated by rows %d and %d", s.Table, u, a, b)
		}
		return tab.Schema().AddUnique(u)
	case s.FK != nil:
		if _, ok := db.Table(s.FK.RefTable); !ok {
			return fmt.Errorf("exec: FOREIGN KEY references unknown relation %q", s.FK.RefTable)
		}
		holds, err := stats.NewCache(db).ContainedIn(s.Table, s.FK.Columns, s.FK.RefTable, s.FK.RefCols)
		if err != nil {
			return err
		}
		if !holds {
			return fmt.Errorf("exec: %s: FOREIGN KEY (%v) REFERENCES %s violated by the extension",
				s.Table, s.FK.Columns, s.FK.RefTable)
		}
		// The engine keeps no FK registry: the paper's method never
		// consumes declared foreign keys (they are its *output*), so a
		// verified declaration is simply accepted.
		return nil
	default:
		return fmt.Errorf("exec: empty ALTER TABLE %s", s.Table)
	}
}

func execInsert(db *table.Database, s *ast.Insert) error {
	tab, ok := db.Table(s.Table)
	if !ok {
		return fmt.Errorf("exec: INSERT into unknown relation %q", s.Table)
	}
	schema := tab.Schema()
	cols := s.Columns
	if cols == nil {
		cols = schema.AttrSet().Names()
		// Schema order, not sorted order.
		cols = cols[:0]
		for _, a := range schema.Attrs {
			cols = append(cols, a.Name)
		}
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		idx, ok := tab.ColIndex(c)
		if !ok {
			return fmt.Errorf("exec: INSERT into %s: unknown column %q", s.Table, c)
		}
		colIdx[i] = idx
	}
	// Rows are encoded into one batch per statement and committed through
	// the table's batch appender (multi-row INSERTs are how dictionary
	// dumps arrive). Strict AppendBatch reproduces Insert's sequential
	// semantics; a row that fails to *build* flushes the pending batch
	// first, so a constraint violation in an earlier row still wins —
	// exactly the serial row-by-row error order.
	enc := table.NewChunkEncoder(tab)
	ap := tab.NewAppender()
	flush := func() error {
		if enc.Len() == 0 {
			return nil
		}
		if _, err := ap.AppendBatch(enc, true); err != nil {
			var be *table.BatchError
			if errors.As(err, &be) {
				return be.Err
			}
			return err
		}
		enc.Reset()
		return nil
	}
	fail := func(buildErr error) error {
		if err := flush(); err != nil {
			return err
		}
		return buildErr
	}
	row := make(table.Row, len(schema.Attrs))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return fail(fmt.Errorf("exec: INSERT into %s: %d values for %d columns", s.Table, len(exprRow), len(cols)))
		}
		for i := range row {
			row[i] = value.Null
		}
		for i, e := range exprRow {
			lit, isLit := e.(ast.Literal)
			if !isLit {
				return fail(fmt.Errorf("exec: INSERT into %s: non-literal value %s", s.Table, e))
			}
			v := lit.Val
			if !v.IsNull() {
				want := schema.Attrs[colIdx[i]].Type
				coerced, canCoerce := value.Coerce(v, want)
				if !canCoerce {
					return fail(fmt.Errorf("exec: INSERT into %s.%s: cannot coerce %s to %v",
						s.Table, cols[i], v.SQL(), want))
				}
				v = coerced
			}
			row[colIdx[i]] = v
		}
		if err := enc.AppendRow(row); err != nil {
			return fail(err)
		}
	}
	return flush()
}
