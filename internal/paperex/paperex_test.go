package paperex

import (
	"sort"
	"testing"

	"dbre/internal/appscan"
	"dbre/internal/sql/exec"
	"dbre/internal/stats"
	"dbre/internal/table"
)

// TestE1_KN verifies the Section 5 constraint sets K and N, both from the
// hand-built catalog and from parsing the DDL text (experiment E1).
func TestE1_KN(t *testing.T) {
	check := func(t *testing.T, db *table.Database) {
		t.Helper()
		cat := db.Catalog()
		var ks []string
		for _, k := range cat.Keys() {
			ks = append(ks, k.String())
		}
		wantK := []string{
			"Assignment.{dep, emp, proj}",
			"Department.dep",
			"HEmployee.{date, no}",
			"Person.id",
		}
		if len(ks) != len(wantK) {
			t.Fatalf("K = %v", ks)
		}
		for i := range wantK {
			if ks[i] != wantK[i] {
				t.Errorf("K[%d] = %q, want %q", i, ks[i], wantK[i])
			}
		}
		var ns []string
		for _, n := range cat.NotNulls() {
			ns = append(ns, n.String())
		}
		wantN := []string{
			"Assignment.dep", "Assignment.emp", "Assignment.proj",
			"Department.dep", "Department.location",
			"HEmployee.date", "HEmployee.no",
			"Person.id",
		}
		if len(ns) != len(wantN) {
			t.Fatalf("N = %v", ns)
		}
		for i := range wantN {
			if ns[i] != wantN[i] {
				t.Errorf("N[%d] = %q, want %q", i, ns[i], wantN[i])
			}
		}
	}
	t.Run("hand-built", func(t *testing.T) { check(t, table.NewDatabase(Catalog())) })
	t.Run("parsed-DDL", func(t *testing.T) {
		db, errs := exec.LoadScript(DDL)
		if len(errs) > 0 {
			t.Fatalf("DDL: %v", errs)
		}
		check(t, db)
	})
}

// TestE2_Q verifies that scanning the application programs yields exactly
// the paper's equi-join set Q (experiment E2).
func TestE2_Q(t *testing.T) {
	var rep appscan.Report
	var snippets []appscan.Snippet
	var names []string
	for name := range Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snippets = append(snippets, appscan.ScanSource(name, Programs[name], &rep)...)
	}
	if rep.ParseFailures != 0 {
		t.Fatalf("parse failures: %v", rep.FailureSamples)
	}
	got := appscan.NewExtractor(Catalog()).ExtractQ(snippets)
	want := Q()
	if got.Len() != want.Len() {
		t.Fatalf("Q has %d joins:\n%s\nwant:\n%s", got.Len(), got, want)
	}
	for _, q := range want.All() {
		if !got.Contains(q) {
			t.Errorf("missing %s", q)
		}
	}
}

// TestExtensionCardinalities verifies the counts the paper's worked example
// quotes in Section 6.1 — the "select count distinct" quantities of its
// notation — through the stats cache every phase counts with.
func TestExtensionCardinalities(t *testing.T) {
	cache := stats.NewCache(Database())
	count := func(rel string, attrs ...string) int {
		n, err := cache.DistinctCount(rel, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	joinCount := func(rk string, ak string, rl string, al string) int {
		n, err := cache.JoinDistinctCount(rk, []string{ak}, rl, []string{al})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count("Person", "id"); got != 2200 {
		t.Errorf("‖Person[id]‖ = %d, want 2200", got)
	}
	if got := count("HEmployee", "no"); got != 1550 {
		t.Errorf("‖HEmployee[no]‖ = %d, want 1550", got)
	}
	if got := joinCount("HEmployee", "no", "Person", "id"); got != 1550 {
		t.Errorf("‖HEmployee[no] ⋈ Person[id]‖ = %d, want 1550", got)
	}
	if got := count("Assignment", "dep"); got != 150 {
		t.Errorf("‖Assignment[dep]‖ = %d, want 150", got)
	}
	if got := count("Department", "dep"); got != 125 {
		t.Errorf("‖Department[dep]‖ = %d, want 125", got)
	}
	if got := joinCount("Assignment", "dep", "Department", "dep"); got != 100 {
		t.Errorf("‖Assignment[dep] ⋈ Department[dep]‖ = %d, want 100", got)
	}
	if got := count("Department", "emp"); got != NumManagers {
		t.Errorf("‖Department[emp]‖ = %d", got)
	}
	if got := count("Assignment", "emp"); got != NumAssignEmps {
		t.Errorf("‖Assignment[emp]‖ = %d", got)
	}
	if got := count("Department", "proj"); got != NumDeptProjs {
		t.Errorf("‖Department[proj]‖ = %d", got)
	}
	if got := count("Assignment", "proj"); got != NumAssignProjs {
		t.Errorf("‖Assignment[proj]‖ = %d", got)
	}
}

// holdsFD checks a single-attribute FD lhs → rhs on a relation by brute
// force, NULL-LHS tuples skipped.
func holdsFD(t *testing.T, db *table.Database, rel, lhs, rhs string) bool {
	t.Helper()
	tab := db.MustTable(rel)
	li, ok := tab.ColIndex(lhs)
	if !ok {
		t.Fatalf("%s has no %s", rel, lhs)
	}
	ri, ok := tab.ColIndex(rhs)
	if !ok {
		t.Fatalf("%s has no %s", rel, rhs)
	}
	seen := make(map[string]string)
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		if row[li].IsNull() {
			continue
		}
		k, v := row[li].Key(), row[ri].Key()
		if prev, dup := seen[k]; dup && prev != v {
			return false
		}
		seen[k] = v
	}
	return true
}

// TestPlantedFDs verifies the extension satisfies exactly the dependencies
// the paper's session elicits and violates the ones it rejects.
func TestPlantedFDs(t *testing.T) {
	db := Database()
	mustHold := [][3]string{
		{"Department", "emp", "skill"},
		{"Department", "emp", "proj"},
		{"Assignment", "proj", "project-name"},
	}
	mustFail := [][3]string{
		{"HEmployee", "no", "salary"},         // → Employee is hidden
		{"Assignment", "proj", "date"},        // only project-name in RHS
		{"Assignment", "emp", "date"},         // Assignment.emp given up
		{"Assignment", "emp", "project-name"}, //
		{"Assignment", "dep", "date"},         // Other-Dept stays hidden
		{"Assignment", "dep", "project-name"}, //
		{"Department", "proj", "emp"},         // Department.proj given up
		{"Department", "proj", "skill"},       //
	}
	for _, f := range mustHold {
		if !holdsFD(t, db, f[0], f[1], f[2]) {
			t.Errorf("FD %s: %s -> %s should hold", f[0], f[1], f[2])
		}
	}
	for _, f := range mustFail {
		if holdsFD(t, db, f[0], f[1], f[2]) {
			t.Errorf("FD %s: %s -> %s should fail", f[0], f[1], f[2])
		}
	}
}

// TestPlantedINDs verifies the value-set relationships behind Section 6.1.
func TestPlantedINDs(t *testing.T) {
	cache := stats.NewCache(Database())
	contains := func(lr, la, rr, ra string) bool {
		ok, err := cache.ContainedIn(lr, []string{la}, rr, []string{ra})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !contains("HEmployee", "no", "Person", "id") {
		t.Error("HEmployee[no] ⊆ Person[id] must hold")
	}
	if !contains("Department", "emp", "HEmployee", "no") {
		t.Error("Department[emp] ⊆ HEmployee[no] must hold")
	}
	if !contains("Assignment", "emp", "HEmployee", "no") {
		t.Error("Assignment[emp] ⊆ HEmployee[no] must hold")
	}
	if !contains("Department", "proj", "Assignment", "proj") {
		t.Error("Department[proj] ⊆ Assignment[proj] must hold")
	}
	// The NEI: neither direction holds.
	if contains("Assignment", "dep", "Department", "dep") ||
		contains("Department", "dep", "Assignment", "dep") {
		t.Error("Assignment.dep / Department.dep must be a proper NEI")
	}
}
